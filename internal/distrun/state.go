package distrun

import (
	"fmt"
	"log"

	jaxpp "repro"
	"repro/internal/ckpt"
	"repro/internal/collective"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// scParamAG times the sharded epilogue's AllGatherV of updated parameter
// slices inside the stage's DP group. An envelope scope (it contains the
// collective and wire leaf spans), so the breakdown classifier excludes it.
var scParamAG = obs.Scope("step/param_allgatherv")

// stageGroupID selects the tag window of the per-stage DP groups the
// sharded epilogue gathers parameters on. The runtime's DP-sync groups use
// IDs below the pipeline width and the all-ranks group uses worldGroupID;
// groups of different stages share this ID, which is safe because their
// rank sets are disjoint.
const stageGroupID = worldGroupID + 1

// stageState is one rank's training state under stage-local ownership: the
// parameters of the pipeline stage its actor runs and, with momentum, the
// velocity over the flat range [lo, hi) of the owner-major layout that this
// rank updates. On the dense path that range is the stage's whole segment
// and the update lands in the parameters in place; under ZeRO-1 sharding it
// is this replica's even share of the segment, and the updated slices are
// gathered within the stage's DP group. Every element runs the same fused
// range kernel over the same inputs as the in-process reference, so the
// bits agree.
type stageState struct {
	spec     JobSpec
	plan     *shardPlan
	shapes   [][]int
	rank     int
	pp       int
	actor    int
	replica  int
	replicas int
	// params is indexed like the model's parameter list; entries of other
	// stages are nil.
	params []*jaxpp.Tensor
	lo, hi int
	vel    *tensor.Tensor // velocity over [lo, hi); nil for plain SGD

	// Sharded only: the updated slice, the stage segment it is gathered
	// into, the stage's per-replica shard sizes, and the DP group.
	upd    *tensor.Tensor
	flatP  *tensor.Tensor
	counts []int
	dp     *collective.Communicator
}

// newStageState takes this rank's stage out of the initial parameters
// (dropping the others) and allocates its optimizer state. dp is the stage's
// DP-group communicator; only the sharded epilogue uses it.
func newStageState(spec JobSpec, plan *shardPlan, rank int, params []*jaxpp.Tensor, dp *collective.Communicator) *stageState {
	pp := len(plan.seg) - 1
	s := &stageState{
		spec: spec, plan: plan, rank: rank, pp: pp,
		actor: rank % pp, replica: rank / pp, replicas: spec.Replicas(),
		params: make([]*jaxpp.Tensor, len(params)),
		shapes: make([][]int, len(params)),
		dp:     dp,
	}
	for gi, p := range params {
		s.shapes[gi] = p.Shape()
		if plan.owners[gi] == s.actor {
			s.params[gi] = p
		}
	}
	s.lo, s.hi = plan.seg[s.actor], plan.seg[s.actor+1]
	if spec.Sharded {
		s.counts = collective.EvenCounts(s.hi-s.lo, s.replicas)
		for r := 0; r < s.replica; r++ {
			s.lo += s.counts[r]
		}
		s.hi = s.lo + s.counts[s.replica]
		s.upd = tensor.GetScratch(s.hi - s.lo)
		s.flatP = tensor.GetScratch(plan.seg[s.actor+1] - plan.seg[s.actor])
	}
	if spec.Momentum != 0 {
		s.vel = tensor.GetScratchZero(s.hi - s.lo)
	}
	if spec.Sharded {
		// The line the CI memory gate greps: the denominator stays the
		// replicated optimizer state of the whole model.
		velBytes := 0
		if s.vel != nil {
			velBytes = 8 * s.vel.Size()
		}
		log.Printf("distrun: rank %d sharded optimizer state %d/%d bytes (%.1f%% of replicated, world %d)",
			rank, velBytes, 8*plan.total, 100*float64(velBytes)/float64(max(8*plan.total, 1)), spec.World())
	}
	return s
}

// release recycles the buffer set (keeps a job-retrying process's scratch
// pool warm).
func (s *stageState) release() {
	for _, t := range []*tensor.Tensor{s.vel, s.upd, s.flatP} {
		if t != nil {
			tensor.Recycle(t)
		}
	}
}

// update applies one optimizer step from this actor's DP-reduced gradients,
// consuming them. Dense: the fused kernel writes the parameters in place —
// safe because the step's loss gather has fenced every read of them,
// including tied-weight sends. Sharded: the kernel writes this replica's
// slice, and an AllGatherV inside the stage's DP group redistributes the
// stage's updated parameters.
func (s *stageState) update(res *jaxpp.ActorResults) error {
	lr, mu := s.spec.LR, s.spec.Momentum
	hs := obs.TrackTid(scSGD, s.rank)
	for i, gi := range res.GradIdx {
		p := s.params[gi]
		if p == nil {
			hs.Stop()
			return fmt.Errorf("gradient %d of a parameter this rank does not hold", gi)
		}
		g := res.Grads[i].Data()
		off := s.plan.gradOff[gi]
		if lo, hi := max(off, s.lo), min(off+len(g), s.hi); lo < hi {
			src := p.Data()[lo-off : hi-off]
			dst := src
			if s.upd != nil {
				dst = s.upd.Data()[lo-s.lo : hi-s.lo]
			}
			if s.vel != nil {
				model.MomentumRange(dst, src, g[lo-off:hi-off], s.vel.Data()[lo-s.lo:hi-s.lo], lr, mu)
			} else {
				model.SGDRange(dst, src, g[lo-off:hi-off], lr)
			}
		}
		tensor.Recycle(res.Grads[i])
	}
	hs.Stop()
	if s.upd == nil {
		return nil
	}
	ha := obs.TrackTid(scParamAG, s.rank)
	err := s.dp.AllGatherVInto(s.flatP, s.upd, s.counts)
	ha.Stop()
	if err != nil {
		return fmt.Errorf("param all-gatherv: %w", err)
	}
	base := s.plan.seg[s.actor]
	for gi, p := range s.params {
		if p != nil {
			off := s.plan.gradOff[gi] - base
			p.CopyFrom(s.flatP.Data()[off : off+p.Size()])
		}
	}
	return nil
}

// restore loads the newest consistent checkpoint into params (the full
// starting set, whose entries for this stage are the state's own tensors)
// and this rank's velocity range, and returns the step to resume at (0 for
// a fresh start).
func (s *stageState) restore(params []*jaxpp.Tensor) (int, error) {
	step, flat, err := restoreState(s.spec, s.rank, params, s.plan)
	if flat != nil {
		copy(s.vel.Data(), flat.Data()[s.lo:s.hi])
		tensor.Recycle(flat)
	}
	return step, err
}

// save writes the checkpoint of a completed step: each tensor is written by
// the rank that holds it — a stage's parameters (and dense velocities) by
// its replica-0 rank, each flat velocity slice by the replica that owns it —
// then a barrier fences durability and rank 0 commits the manifest. The
// on-disk layouts are the ones velFlat reads.
func (s *stageState) save(sess *dist.Session, step int) error {
	n := len(s.params)
	var optCounts []int
	entries := make([]*tensor.Tensor, n)
	writers := make([]int, n)
	copy(writers, s.plan.owners) // replica 0's rank of pipeline actor a is a
	if s.replica == 0 {
		copy(entries, s.params)
	}
	switch {
	case s.vel == nil:
	case s.spec.Sharded:
		optCounts = s.plan.zeroCounts(s.replicas)
		for k := range optCounts {
			writers = append(writers, (k%s.replicas)*s.pp+k/s.replicas)
			entries = append(entries, nil)
		}
		entries[n+s.actor*s.replicas+s.replica] = s.vel
	default:
		writers = append(writers, s.plan.owners...)
		for gi, p := range s.params {
			var v *tensor.Tensor
			if p != nil && s.replica == 0 {
				off := s.plan.gradOff[gi] - s.lo
				v = tensor.View(s.vel.Data()[off:off+p.Size()], s.shapes[gi]...)
			}
			entries = append(entries, v)
		}
	}
	if err := ckpt.WriteShard(s.spec.CkptDir, step, s.rank, entries, ckpt.Written(s.rank, writers)); err != nil {
		return fmt.Errorf("distrun: rank %d checkpoint step %d: %w", s.rank, step, err)
	}
	if err := sess.Barrier(); err != nil {
		return fmt.Errorf("distrun: rank %d checkpoint barrier step %d: %w", s.rank, step, err)
	}
	if s.rank != 0 {
		return nil
	}
	m := ckpt.NewManifestFor(step, sess.World, s.spec.Stages, s.spec.Width, n, s.spec.Momentum, optCounts, writers)
	return commitCheckpoint(s.spec.CkptDir, m)
}

// finalParams gathers the full parameter set onto every rank with one
// lossless AllGatherV over the world: each replica-0 rank contributes its
// stage's owner-major segment, every other rank a zero-length shard.
func (s *stageState) finalParams(comm *collective.Communicator, world int) ([]*jaxpp.Tensor, error) {
	counts := make([]int, world)
	for a := 0; a < s.pp; a++ {
		counts[a] = s.plan.seg[a+1] - s.plan.seg[a]
	}
	mine := tensor.GetScratch(counts[s.rank])
	all := tensor.GetScratch(s.plan.total)
	defer tensor.Recycle(mine)
	defer tensor.Recycle(all)
	if s.replica == 0 {
		base := s.plan.seg[s.actor]
		for gi, p := range s.params {
			if p != nil {
				copy(mine.Data()[s.plan.gradOff[gi]-base:], p.Data())
			}
		}
	}
	if err := comm.AllGatherVInto(all, mine, counts); err != nil {
		return nil, fmt.Errorf("distrun: rank %d final params gather: %w", s.rank, err)
	}
	out := make([]*jaxpp.Tensor, len(s.shapes))
	for gi, shape := range s.shapes {
		out[gi] = jaxpp.NewTensor(shape...)
	}
	s.plan.scatter(out, all.Data())
	return out, nil
}
