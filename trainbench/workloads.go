package main

import (
	"fmt"

	"repro/internal/distrun"
)

// A workload is one training job shape the benchmark drives end to end. Each
// puts most of the load on different layers, so a change to one layer shows
// on the workload that exercises it and must not move the ones that bypass it.
type workload struct {
	name string
	// procs is the number of OS processes: 1 runs every actor in one process
	// on the in-process transport, more runs one actor per process over
	// localhost TCP.
	procs int
	// ckpt marks workloads whose jobs checkpoint; every job then gets a fresh,
	// empty directory, because a reused one resumes from its newest
	// checkpoint and silently runs fewer steps.
	ckpt bool
	// spec builds the job from the benchmark seed; its Steps is the length
	// of the timed job of one trial. The program receives only this JobSpec.
	spec func(seed uint64) distrun.JobSpec
}

var workloads = []workload{
	{
		// DP2×PP4, 8 actors in one process with tiny tensors: actor dispatch,
		// store bookkeeping and per-op interpreter overhead make up most of
		// the step. No TCP, no wire codec: runtime changes show here, wire
		// changes must not.
		name: "inproc-dpxpp-narrow", procs: 1,
		spec: func(seed uint64) distrun.JobSpec {
			return distrun.JobSpec{Stages: 4, DataParallel: 2, NumMB: 16, MBRows: 4, Width: 32,
				Schedule: "1f1b", LR: 0.05, Steps: 200, Seed: seed}
		},
	},
	{
		// PP2 over 2 processes, wide f64 activations: stage 0's segments bound
		// the step, and per-microbatch activation frames plus the world
		// gradient AllReduce cross TCP. Kernel, critical-stage and
		// gradient-broadcast changes show here.
		name: "tcp-pp2-wide", procs: 2,
		spec: func(seed uint64) distrun.JobSpec {
			return distrun.JobSpec{Stages: 2, NumMB: 8, MBRows: 16, Width: 256,
				Schedule: "1f1b", LR: 0.05, Steps: 20, Seed: seed}
		},
	},
	{
		// DP2×PP1 over 2 processes with ZeRO-1 sharded momentum and a
		// checkpoint every 10 steps: a real DP AllReduce plus ReduceScatterV
		// and AllGatherV over 2 MiB of state each step, and durable shard
		// writes. A gain on the dense PP path that costs the DP or sharded
		// path shows here.
		name: "tcp-dp2-zero1-ckpt", procs: 2, ckpt: true,
		spec: func(seed uint64) distrun.JobSpec {
			return distrun.JobSpec{Stages: 1, DataParallel: 2, NumMB: 4, MBRows: 4, Width: 512,
				Schedule: "1f1b", LR: 0.05, Momentum: 0.9, Sharded: true, CkptEvery: 10,
				Steps: 30, Seed: seed}
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// rows is the global batch of one step: replicas × microbatches × rows.
func rows(spec distrun.JobSpec) int { return spec.Replicas() * spec.NumMB * spec.MBRows }
