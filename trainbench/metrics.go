package main

import (
	"fmt"
	"os"
	"sort"

	"repro/internal/distrun"
	"repro/internal/obs"
)

type metricName struct{ name, unit string }

// endToEndMetrics are what a user of the trainer sees, measured with tracing
// off.
var endToEndMetrics = []metricName{
	{"samples_per_s", "samples/s"},
	{"setup_s", "s"},
	{"cpu_ms_per_step", "ms"},
	{"wire_bytes_per_step", "B"},
	{"peak_rss_mib", "MiB"},
}

// layerMetrics are the traced run's per-layer breakdown, for the bounding
// rank (the rank with the most busy time). README.md maps each to the
// end-to-end metric it should move.
var layerMetrics = []metricName{
	{"tensor.matmul_gflops", "GFLOP/s"},
	{"tensor.pool_hit_pct", "%"},
	{"interp.seg_ms_per_step", "ms"},
	{"runtime.instrs_per_step", "count"},
	{"runtime.dispatch_us_per_instr", "us"},
	{"runtime.recv_wait_ms_per_step", "ms"},
	{"runtime.allocs_per_step", "count"},
	{"runtime.store_peak_mib", "MiB"},
	{"schedule.bubble_pct", "%"},
	{"dist.bytes_per_step", "B"},
	{"dist.frames_per_step", "count"},
	{"dist.codec_ms_per_step", "ms"},
	{"dist.rtt_us", "us"},
	{"dist.rendezvous_ms", "ms"},
	{"dist.crc_fail", "count"},
	{"dist.poisoned_transports", "count"},
	{"collective.busy_ms_per_step", "ms"},
	{"collective.wait_ms_per_step", "ms"},
	{"collective.allreduce_ms", "ms"},
	{"distrun.grad_exchange_ms_per_step", "ms"},
	{"distrun.dp_sync_ms_per_step", "ms"},
	{"distrun.loss_gather_ms_per_step", "ms"},
	{"distrun.compile_ms", "ms"},
	{"distrun.failed_steps", "count"},
	{"model.update_ms_per_step", "ms"},
	{"model.opt_state_mib_per_rank", "MiB"},
	{"ckpt.write_ms", "ms"},
	{"ckpt.bytes_per_ckpt", "B"},
	{"obs.trace_overhead_pct", "%"},
	{"obs.unattributed_ms_per_step", "ms"},
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// samplesPerS is the trial's steady-state throughput: global-batch rows ×
// timed steps ÷ the wall of the timed job minus the wall of the warm 0-step
// job, which compiles, initialises and tears down the same.
func samplesPerS(spec distrun.JobSpec, t *trial) float64 {
	r0 := t.ranks[0]
	return float64(rows(spec)*spec.Steps) / (float64(r0.JobS.WallNs-r0.Job0.WallNs) / 1e9)
}

// endToEnd computes the end-to-end metrics as medians over the trials.
func endToEnd(m map[string]metric, spec distrun.JobSpec, ts []*trial) {
	var sps, setup, cpu, wire, rss []float64
	for _, t := range ts {
		sps = append(sps, samplesPerS(spec, t))
		var ready, cpuNs, bytes, peak int64
		for i, r := range t.ranks {
			ready = max(ready, r.ReadyUnixNs)
			d := r.JobS.minus(r.Job0)
			cpuNs += d.CPUNs
			bytes += d.Bytes
			peak = max(peak, t.maxRSS[i])
		}
		setup = append(setup, float64(ready-t.launchNs)/1e9)
		cpu = append(cpu, float64(cpuNs)/1e6/float64(spec.Steps))
		// Per actor: one per process over TCP, all of them in-process.
		wire = append(wire, float64(bytes)/float64(spec.Steps)/float64(spec.World()))
		rss = append(rss, float64(peak)/(1<<20))
		fmt.Fprintf(os.Stderr, "trial %d: samples/s %.1f setup %.4fs cpu %.3fms/step rss %.1fMiB\n",
			t.n, sps[len(sps)-1], setup[len(setup)-1], cpu[len(cpu)-1], rss[len(rss)-1])
	}
	for i, v := range [][]float64{sps, setup, cpu, wire, rss} {
		m[endToEndMetrics[i].name] = metric{median(v), endToEndMetrics[i].unit}
	}
}

// scopeSum totals the scope times whose names equal one of names, or start
// with it when it ends in '/'.
func scopeSum(s *obs.Snapshot, names ...string) int64 {
	var total int64
	for _, sc := range s.Scopes {
		for _, n := range names {
			if sc.Name == n || (n[len(n)-1] == '/' && len(sc.Name) > len(n) && sc.Name[:len(n)] == n) {
				total += sc.Total
			}
		}
	}
	return total
}

// busyNs is a rank's compute plus wire time: the time its leaf scopes spent
// working rather than waiting.
func busyNs(s *obs.Snapshot) int64 {
	c, w, _ := s.Breakdown()
	return int64(c + w)
}

// boundingRank is the rank most often the busiest across the traced trials.
func boundingRank(ts []*trial) int {
	votes := map[int]int{}
	for _, t := range ts {
		best := 0
		for r, s := range t.ranks[0].Profiles {
			if busyNs(s) > busyNs(t.ranks[0].Profiles[best]) {
				best = r
			}
		}
		votes[best]++
	}
	best := 0
	for r, v := range votes {
		if v > votes[best] || (v == votes[best] && r < best) {
			best = r
		}
	}
	return best
}
