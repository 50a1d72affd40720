package main

import (
	"time"

	jaxpp "repro"
	"repro/internal/obs"
)

// Profile tier: the obs registry's compute/wire/idle breakdown of profiled
// steady-state steps, run separately from (and after) the timed loops so
// enabling the registry never contaminates the gated step-time measurements.

// tierProfile is one tier's breakdown. Fractions are of classified leaf-span
// time (compute + wire + idle), not wall time: spans on concurrent actors
// overlap, so the three classes describe where runtime effort goes, summing
// to 1.
type tierProfile struct {
	ComputeMs   float64 `json:"compute_ms"`
	WireMs      float64 `json:"wire_ms"`
	IdleMs      float64 `json:"idle_ms"`
	ComputeFrac float64 `json:"compute_frac"`
	WireFrac    float64 `json:"wire_frac"`
	IdleFrac    float64 `json:"idle_frac"`
	// SendHandoffUs is the mean delay from an asynchronous send's
	// initiation to its sender worker's transport.Send call
	// (actor/send_handoff); 0 when the tier issued no asynchronous send.
	SendHandoffUs float64 `json:"send_handoff_us"`
}

// profileBlock joins the committed BENCH trajectory: per-tier breakdowns plus
// the two numbers the zero-overhead claim rests on — the measured cost of a
// disabled Track/Stop pair and the scratch-pool hit rate under load.
type profileBlock struct {
	Pipeline        *tierProfile `json:"pipeline"`
	DPxPP           *tierProfile `json:"dpxpp"`
	WireCollective  *tierProfile `json:"wire_collective"`
	DisabledTrackNs float64      `json:"disabled_track_ns"`
	// Disabled/EnabledStepRecordNs measure the per-step telemetry publish:
	// one obs.RecordStep into the lock-free step ring with the gate off
	// (one atomic load) and on (a seqlock slot publish). Both are
	// allocation-free; the disabled cost joins the overhead estimate below.
	DisabledStepRecordNs float64 `json:"disabled_step_record_ns"`
	EnabledStepRecordNs  float64 `json:"enabled_step_record_ns"`
	// DisabledOverheadPct estimates the disabled registry's share of a
	// pipeline step: tracked scope hits per step × the measured disabled
	// Track/Stop cost, plus one disabled per-step telemetry record, over
	// the gated step time. CI pins this ≤ 1%.
	DisabledOverheadPct float64 `json:"disabled_overhead_pct"`
	PoolHitRatePct      float64 `json:"pool_hit_rate_pct"`
}

// profileSteps is how many steady-state steps each tier records.
const profileSteps = 10

// profileUnder runs fn with the obs registry armed and returns the resulting
// breakdown plus the raw snapshot (for counter extraction).
func profileUnder(fn func() error) (*tierProfile, *obs.Snapshot, error) {
	obs.SnapshotAndReset()
	obs.Enable()
	defer obs.Disable()
	if err := fn(); err != nil {
		return nil, nil, err
	}
	snap := obs.SnapshotAndReset()
	c, w, i := snap.Breakdown()
	tp := &tierProfile{
		ComputeMs: c.Seconds() * 1e3,
		WireMs:    w.Seconds() * 1e3,
		IdleMs:    i.Seconds() * 1e3,
	}
	if total := c + w + i; total > 0 {
		tp.ComputeFrac = float64(c) / float64(total)
		tp.WireFrac = float64(w) / float64(total)
		tp.IdleFrac = float64(i) / float64(total)
	}
	if h, ok := snap.ScopeByName("actor/send_handoff"); ok && h.Count > 0 {
		tp.SendHandoffUs = float64(h.Total) / float64(h.Count) / 1e3
	}
	return tp, snap, nil
}

// measureProfile builds the snapshot's profile block: pipeline and DP×PP
// training-step tiers, the wire-collective tier (bucketed ring AllReduce over
// TCP endpoints), the disabled-gate cost, and the pooled-scratch hit rate
// aggregated across all three profiled tiers. pipelineStepMs is the gated
// (registry-off) pipeline step time, the denominator of the disabled-overhead
// estimate.
func measureProfile(pipelineStepMs float64) (*profileBlock, error) {
	pb := &profileBlock{}

	// Disabled-gate cost: a Track/Stop pair with the registry off. With a few
	// hundred instrumentation points per step, this × count is the whole
	// disabled overhead — single-digit ns keeps it far under the ≤1%
	// step-delta budget the CI bench-regression gate enforces end to end.
	gateScope := obs.Scope("bench/disabled_gate")
	obs.Disable()
	const gateIters = 1 << 20
	t0 := time.Now()
	for i := 0; i < gateIters; i++ {
		h := obs.Track(gateScope)
		h.Stop()
	}
	pb.DisabledTrackNs = time.Since(t0).Seconds() * 1e9 / gateIters

	// Per-step telemetry publish cost, both sides of the gate. The sample is
	// stack-built each iteration like the real call site (stepSampler.record
	// assembles it from live aggregates).
	obs.DisableSteps()
	t0 = time.Now()
	for i := 0; i < gateIters; i++ {
		obs.RecordStep(obs.StepSample{Rank: 1, Step: int64(i)})
	}
	pb.DisabledStepRecordNs = time.Since(t0).Seconds() * 1e9 / gateIters
	obs.EnableSteps()
	t0 = time.Now()
	for i := 0; i < gateIters; i++ {
		obs.RecordStep(obs.StepSample{Rank: 1, Step: int64(i)})
	}
	pb.EnabledStepRecordNs = time.Since(t0).Seconds() * 1e9 / gateIters
	obs.DisableSteps()

	var hit, miss float64
	countPool := func(snap *obs.Snapshot) {
		hit += float64(snap.CounterValue("pool/hit"))
		miss += float64(snap.CounterValue("pool/miss"))
	}
	tier := func(stages, mbRows, numMB, width, dp int) (*tierProfile, *obs.Snapshot, error) {
		step, params, batch, err := mlpTrainStep(stages, mbRows, numMB, width, dp)
		if err != nil {
			return nil, nil, err
		}
		defer step.Close()
		losses := make([]*jaxpp.Tensor, step.NumReplicas()*step.NumMicrobatches())
		grads := make([]*jaxpp.Tensor, len(params))
		for i := 0; i < 3; i++ { // warm outside the profiled window
			if err := step.StepInto(params, batch, losses, grads); err != nil {
				return nil, nil, err
			}
		}
		tp, snap, err := profileUnder(func() error {
			for i := 0; i < profileSteps; i++ {
				if err := step.StepInto(params, batch, losses, grads); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		countPool(snap)
		return tp, snap, nil
	}

	pipe, pipeSnap, err := tier(4, 8, 8, 32, 0)
	if err != nil {
		return nil, err
	}
	pb.Pipeline = pipe
	if pipelineStepMs > 0 {
		var calls int64
		for _, sc := range pipeSnap.Scopes {
			calls += sc.Count
		}
		callsPerStep := float64(calls) / profileSteps
		pb.DisabledOverheadPct = 100 * (callsPerStep*pb.DisabledTrackNs + pb.DisabledStepRecordNs) / (pipelineStepMs * 1e6)
	}
	if pb.DPxPP, _, err = tier(4, 8, 4, 32, 2); err != nil {
		return nil, err
	}
	wc, wcSnap, err := profileUnder(func() error {
		_, err := measureWireCollective(wireCollectiveRanks, wireCollectiveElems)
		return err
	})
	if err != nil {
		return nil, err
	}
	pb.WireCollective = wc
	countPool(wcSnap)
	if hit+miss > 0 {
		pb.PoolHitRatePct = 100 * hit / (hit + miss)
	}
	return pb, nil
}
