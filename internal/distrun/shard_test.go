package distrun

import (
	"fmt"
	"math"
	"os"
	"testing"

	jaxpp "repro"
	"repro/internal/collective"
)

// TestShardPlanOwnerMajorLayout pins the owner-major flat layout: gradient
// tensors sort by (producing actor, gradient index), offsets are exact prefix
// sums, gradOff inverts the permutation, each actor's tensors form one
// segment, and the ZeRO-1 partition splits every segment evenly over the
// replicas, covering [0, total) contiguously.
func TestShardPlanOwnerMajorLayout(t *testing.T) {
	owners := []int{1, 0, 2, 0}
	sizes := []int{3, 4, 2, 5}
	p, err := newShardPlan(owners, sizes, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []int{1, 3, 0, 2} // owner 0: g1,g3; owner 1: g0; owner 2: g2
	wantOff := []int{0, 4, 9, 12, 14}
	for k, gi := range wantOrder {
		if p.order[k] != gi {
			t.Fatalf("order %v, want %v", p.order, wantOrder)
		}
		if p.off[k] != wantOff[k] {
			t.Fatalf("off %v, want %v", p.off, wantOff)
		}
		if p.gradOff[gi] != wantOff[k] {
			t.Fatalf("gradOff[%d] = %d, want %d", gi, p.gradOff[gi], wantOff[k])
		}
	}
	if p.total != 14 {
		t.Fatalf("total %d, want 14", p.total)
	}
	wantSeg := []int{0, 9, 12, 14}
	for a, off := range wantSeg {
		if p.seg[a] != off {
			t.Fatalf("segments %v, want %v", p.seg, wantSeg)
		}
	}
	for _, replicas := range []int{1, 2, 3, 5} {
		counts := p.zeroCounts(replicas)
		var want []int
		for a := 0; a < 3; a++ {
			want = append(want, collective.EvenCounts(wantSeg[a+1]-wantSeg[a], replicas)...)
		}
		sum := 0
		for k := range want {
			if counts[k] != want[k] {
				t.Fatalf("replicas %d: counts %v, want %v", replicas, counts, want)
			}
			sum += counts[k]
		}
		if len(counts) != len(want) || sum != p.total {
			t.Fatalf("replicas %d: partition %v covers %d of %d", replicas, counts, sum, p.total)
		}
	}
	if _, err := newShardPlan([]int{0, 3}, []int{1, 1}, 3); err == nil {
		t.Fatal("owner outside the pipeline accepted")
	}
}

// TestShardedStateMemoryIsOneOverWorld pins the stage-local memory claims at
// the unit level: a dense rank holds the parameters and velocity of its own
// stage only (1/PP of the model), and a sharded rank's velocity holds at most
// ceil(total/world) elements — the balanced 1/world slice.
func TestShardedStateMemoryIsOneOverWorld(t *testing.T) {
	const pp = 4
	owners := []int{0, 1, 2, 3}
	sizes := []int{100, 100, 100, 100}
	p, err := newShardPlan(owners, sizes, pp)
	if err != nil {
		t.Fatal(err)
	}
	for _, dp := range []int{1, 2, 3, 7} {
		world := pp * dp
		ceil := (p.total + world - 1) / world
		for _, sharded := range []bool{false, true} {
			spec := JobSpec{Stages: pp, DataParallel: dp, Momentum: 0.9, Sharded: sharded}
			for r := 0; r < world; r++ {
				params := make([]*jaxpp.Tensor, len(sizes))
				for i, n := range sizes {
					params[i] = jaxpp.NewTensor(n)
				}
				s := newStageState(spec, p, r, params, nil)
				held := 0
				for _, q := range s.params {
					if q != nil {
						held += q.Size()
					}
				}
				if held != p.total/pp {
					t.Fatalf("dp %d sharded=%v rank %d: holds %d parameter elems, want %d (1/PP)", dp, sharded, r, held, p.total/pp)
				}
				got := s.vel.Size()
				if !sharded && got != p.total/pp {
					t.Fatalf("dp %d rank %d: dense velocity %d elems, want %d (1/PP)", dp, r, got, p.total/pp)
				}
				if sharded && got > ceil {
					t.Fatalf("world %d rank %d: velocity shard %d elems, want <= ceil(%d/%d)=%d", world, r, got, p.total, world, ceil)
				}
				s.release()
			}
		}
	}
}

// TestShardedMatchesReplicated is the ZeRO acceptance test: the sharded
// epilogue (shard-local update → AllGatherV inside the stage's DP group)
// must produce per-step losses AND post-step parameter bits identical to the
// dense in-process reference, for plain SGD and momentum, across NPOT and
// power-of-two worlds over real TCP ranks.
func TestShardedMatchesReplicated(t *testing.T) {
	configs := []struct {
		name   string
		stages int
		dp     int
	}{
		{"pp2", 2, 0},
		{"pp3", 3, 0},
		{"dp2xpp2", 2, 2},
		{"dp2xpp4", 4, 2},
	}
	for _, cfg := range configs {
		for _, mu := range []float64{0, 0.9} {
			name := fmt.Sprintf("%s/momentum=%v", cfg.name, mu)
			t.Run(name, func(t *testing.T) {
				spec := JobSpec{
					Stages: cfg.stages, NumMB: 4, MBRows: 4, Width: 16,
					Steps: 5, LR: 0.5, Momentum: mu, Schedule: "1f1b",
					DataParallel: cfg.dp, Seed: 21,
				}
				local, err := RunLocal(spec)
				if err != nil {
					t.Fatal(err)
				}
				sharded := spec
				sharded.Sharded = true
				got := launchWorld(t, sharded)
				requireBitIdentical(t, got, local)
			})
		}
	}
}

// TestShardedCheckpointRestoresAcrossWorlds is the elastic-format acceptance
// test: a world-4 sharded momentum run commits an owner-major checkpoint;
// both a dense and a sharded world-3 job restore it (re-deriving owner tables
// for the new world) and finish bit-identical to each other — proving the
// sharded layout pivots across world sizes and across layouts in both
// directions.
func TestShardedCheckpointRestoresAcrossWorlds(t *testing.T) {
	base := JobSpec{
		Stages: 1, DataParallel: 4, NumMB: 2, MBRows: 4, Width: 16,
		Steps: 12, LR: 0.1, Momentum: 0.9, Schedule: "1f1b", Seed: 7,
		CkptEvery: 5, Sharded: true,
	}
	srcDir := t.TempDir()
	leg1 := base
	leg1.CkptDir = srcDir
	leg1.Steps = 7 // "crash" after step 7; the committed checkpoint is step 5
	if rep := launchWorld(t, leg1); rep.StartStep != 0 {
		t.Fatalf("fresh run claims resume from %d", rep.StartStep)
	}

	// Two independent copies of the checkpoint directory: each resumed leg
	// writes (and prunes) its own checkpoints.
	resume := func(sharded bool) *Report {
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(srcDir)); err != nil {
			t.Fatal(err)
		}
		spec := base
		spec.DataParallel = 3 // world 4 -> world 3
		spec.CkptDir = dir
		spec.Sharded = sharded
		rep := launchWorld(t, spec)
		if rep.StartStep != 5 {
			t.Fatalf("sharded=%v leg resumed at %d, want 5", sharded, rep.StartStep)
		}
		return rep
	}
	dense := resume(false)
	shard := resume(true)

	if len(shard.MBLosses) != len(dense.MBLosses) {
		t.Fatalf("steps: %d vs %d", len(shard.MBLosses), len(dense.MBLosses))
	}
	for s := range dense.MBLosses {
		for mb := range dense.MBLosses[s] {
			g, w := shard.MBLosses[s][mb], dense.MBLosses[s][mb]
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("step %d mb %d: sharded loss %v != dense %v", s, mb, g, w)
			}
		}
	}
	for i := range dense.FinalParams {
		gd, wd := shard.FinalParams[i].Data(), dense.FinalParams[i].Data()
		for j := range wd {
			if math.Float64bits(gd[j]) != math.Float64bits(wd[j]) {
				t.Fatalf("param %d elem %d: sharded %v != dense %v", i, j, gd[j], wd[j])
			}
		}
	}
}
