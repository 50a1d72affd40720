package distrun

import (
	"strings"
	"testing"

	"repro/internal/dist"
)

// TestHostedFilterMatchesUnfiltered2Ranks is the hosted-actor-filter
// equivalence bar: a 2-rank run where each process materializes only its own
// actor must produce losses and final parameters bit-identical to the same
// run with every rank loading the full world-size cluster — and both must
// match the in-process reference.
func TestHostedFilterMatchesUnfiltered2Ranks(t *testing.T) {
	spec := JobSpec{
		Stages: 2, NumMB: 4, MBRows: 4, Width: 16,
		Steps: 5, LR: 0.5, Schedule: "1f1b", Seed: 11,
	}
	local, err := RunLocal(spec)
	if err != nil {
		t.Fatal(err)
	}
	filtered := launchWorld(t, spec) // distrun.Run hosts one actor per rank by default
	spec.NoHostedFilter = true
	unfiltered := launchWorld(t, spec)
	requireBitIdentical(t, filtered, local)
	requireBitIdentical(t, unfiltered, local)
	requireBitIdentical(t, filtered, unfiltered)
}

// TestCollectiveJobOverLocalMesh runs the self-verifying wire-collective job
// across 8 TCP endpoints inside one process — the same world size and op
// sequence as the CI smoke, minus the OS-process fan-out.
func TestCollectiveJobOverLocalMesh(t *testing.T) {
	spec := CollectiveSpec{
		Kind: KindCollective, World: 8, Elems: 4096, Iters: 2,
		Seed: 7, BucketBytes: 1 << 13, // several fusion buckets per iteration
	}
	if err := RunCollectiveLocal(spec, dist.Options{CRC: true}); err != nil {
		t.Fatal(err)
	}
}

// TestJobPayloadKindDispatch pins the payload-kind discrimination both
// decoders enforce: a collective payload must not decode as a training job
// and vice versa, so a mixed-version world fails loudly at rendezvous
// instead of running the wrong job.
func TestJobPayloadKindDispatch(t *testing.T) {
	cs := CollectiveSpec{World: 4, Elems: 64, Iters: 1}
	if _, err := UnmarshalJobSpec(cs.Marshal()); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Fatalf("training decoder accepted a collective payload: %v", err)
	}
	js := JobSpec{Stages: 2, NumMB: 2, MBRows: 2, Width: 8, Steps: 1, LR: 0.1, Seed: 1}
	if _, err := UnmarshalCollectiveSpec(js.Marshal()); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Fatalf("collective decoder accepted a training payload: %v", err)
	}
	if _, err := UnmarshalCollectiveSpec(CollectiveSpec{Kind: KindCollective}.Marshal()); err == nil {
		t.Fatal("collective decoder accepted an empty spec")
	}
}
