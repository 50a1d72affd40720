package distrun

import (
	"strings"
	"testing"

	"repro/internal/dist"
)

// TestShapedRunStaysBitIdentical runs the DP×PP job through ShapedTransport
// (latency, jitter, and a bandwidth cap) and requires losses and final
// parameters bit-identical to the in-process reference: shaping delays
// frames but must never alter payload bits or delivery order.
func TestShapedRunStaysBitIdentical(t *testing.T) {
	spec := JobSpec{
		Stages: 2, NumMB: 4, MBRows: 4, Width: 16,
		Steps: 6, LR: 0.5, Schedule: "1f1b", DataParallel: 2, Seed: 3,
	}
	local, err := RunLocal(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Shape = &ShapeSpec{LatencyUs: 1000, JitterUs: 200, BandwidthGBs: 2, Seed: 7}
	got := launchWorld(t, spec)
	requireBitIdentical(t, got, local)
}

// TestCollectiveSpecWireDTypes pins the collective job's dtype policy: f32 is
// a real verification (integer payloads are f32-exact), int8q is rejected
// up front because a lossy round trip cannot pass a bit-exact self-check.
func TestCollectiveSpecWireDTypes(t *testing.T) {
	base := CollectiveSpec{World: 4, Elems: 1 << 10, Iters: 2, Seed: 5, BucketBytes: 4096}

	bad := base
	bad.WireDType = "int8q"
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "int8q") {
		t.Fatalf("int8q collective spec accepted: %v", err)
	}

	unknown := base
	unknown.WireDType = "q4"
	if err := unknown.Validate(); err == nil {
		t.Fatal("unknown wire dtype accepted")
	}

	f32 := base
	f32.WireDType = "f32"
	if err := RunCollectiveLocal(f32, dist.Options{}); err != nil {
		t.Fatalf("f32 collective verification failed: %v", err)
	}
}

// TestJobSpecRejectsBadWireDType checks the rendezvous payload validation: a
// training payload carrying a gradient wire dtype — which training jobs no
// longer take — fails at decode on every rank, not by silently training on
// f64 while the coordinator believed it compressed.
func TestJobSpecRejectsBadWireDType(t *testing.T) {
	for _, dt := range []string{"q4", "int8q"} {
		payload := `{"stages":2,"num_mb":2,"mb_rows":2,"width":8,"steps":1,"lr":0.1,"schedule":"1f1b","seed":1,"wire_dtype":"` + dt + `"}`
		if _, err := UnmarshalJobSpec([]byte(payload)); err == nil || !strings.Contains(err.Error(), "wire_dtype") {
			t.Fatalf("wire_dtype %q accepted: %v", dt, err)
		}
	}
}
