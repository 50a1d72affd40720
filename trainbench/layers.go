package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	jaxpp "repro"
	"repro/internal/ckpt"
	"repro/internal/collective"
	"repro/internal/dist"
	"repro/internal/distrun"
	"repro/internal/tensor"
)

// bwdRatio is the backward-to-forward task cost of the unit-cost schedule
// timeline schedule.bubble_pct is computed from.
const bwdRatio = 2

// perLayer computes the per-layer breakdown from the traced trials (scope
// totals and counters the program's obs registry recorded, armed through
// JobSpec.Profile), the untraced trials (counts that tracing would disturb,
// and the throughput the tracing overhead is relative to), and replays of
// single layers at the workload's shapes.
func perLayer(w workload, spec distrun.JobSpec, plain, traced []*trial, failedSteps, poisoned int, work string, rec *recorder) (map[string]metric, error) {
	b := boundingRank(traced)
	steps := float64(spec.Steps)
	perStepMs := func(ns int64) float64 { return float64(ns) / 1e6 / steps }
	vals := map[string][]float64{}
	put := func(name string, v float64) { vals[name] = append(vals[name], v) }

	prog, err := programStats(w, spec, b, rec)
	if err != nil {
		return nil, err
	}
	actors := 1
	if w.procs == 1 {
		actors = spec.World()
	}
	var crc int64
	for _, t := range traced {
		s := t.ranks[0].Profiles[b]
		r := t.ranks[b]
		d := r.JobS.minus(r.Job0)
		seg := scopeSum(s, "seg/")
		recv := scopeSum(s, "actor/recv")
		if w.procs == 1 {
			recv = r.RecvWaitNs // the benchmark's own transport wrapper
		}
		collBusy := scopeSum(s, "coll/send", "coll/reduce", "coll/copy")
		codec := scopeSum(s, "wire/encode", "wire/decode")
		update := scopeSum(s, "step/sgd")
		hit, miss := s.CounterValue("pool/hit"), s.CounterValue("pool/miss")
		for _, rr := range t.ranks[0].Profiles {
			crc += rr.CounterValue("wire/crc_fail")
		}

		put("tensor.pool_hit_pct", 100*float64(hit)/float64(max(hit+miss, 1)))
		put("interp.seg_ms_per_step", perStepMs(seg))
		// Busy time is the rank's CPU time: the in-process world runs its
		// actors on fewer cores than it has actors, so a wall-clock sum would
		// count time an actor was runnable but not running. Receive waits
		// take no CPU, so they drop out on their own.
		put("runtime.dispatch_us_per_instr", float64(d.CPUNs-seg-collBusy-codec-update)/1e3/steps/float64(prog.instrs))
		put("runtime.recv_wait_ms_per_step", perStepMs(recv))
		put("dist.bytes_per_step", float64(d.Bytes)/steps)
		put("dist.frames_per_step", float64(d.Sends)/steps)
		put("dist.codec_ms_per_step", perStepMs(codec))
		put("dist.rendezvous_ms", float64(r.RendezvousNs)/1e6)
		put("collective.busy_ms_per_step", perStepMs(collBusy))
		put("collective.wait_ms_per_step", perStepMs(scopeSum(s, "coll/wait")))
		put("distrun.grad_exchange_ms_per_step", perStepMs(scopeSum(s, "step/grad_allreduce", "step/grad_reducescatter", "step/param_allgatherv")))
		put("distrun.dp_sync_ms_per_step", perStepMs(scopeSum(s, "step/dp_sync")))
		put("distrun.loss_gather_ms_per_step", perStepMs(scopeSum(s, "step/loss_gather")))
		put("model.update_ms_per_step", perStepMs(update))
		// Unattributed: each hosted actor's timeline over the step, less the
		// leaf layer scopes that ran on it, averaged over the actors.
		attributed := scopeSum(s, "seg/", "actor/recv", "actor/accum", "actor/add", "coll/", "step/sgd", "step/quant_ef")
		put("obs.unattributed_ms_per_step", (float64(d.WallNs)*float64(actors)-float64(attributed))/1e6/steps/float64(actors))
	}
	var plainSPS, tracedSPS []float64
	for _, t := range plain {
		r := t.ranks[b]
		d := r.JobS.minus(r.Job0)
		put("runtime.allocs_per_step", float64(d.Mallocs)/steps)
		plainSPS = append(plainSPS, samplesPerS(spec, t))
	}
	for _, t := range traced {
		tracedSPS = append(tracedSPS, samplesPerS(spec, t))
	}
	out := map[string]metric{}
	for _, m := range layerMetrics {
		out[m.name] = metric{median(vals[m.name]), m.unit}
	}
	set := func(name string, v float64) { out[name] = metric{v, out[name].Unit} }
	set("dist.crc_fail", float64(crc))
	set("dist.poisoned_transports", float64(poisoned))
	set("distrun.failed_steps", float64(failedSteps))
	set("obs.trace_overhead_pct", 100*(median(plainSPS)-median(tracedSPS))/median(plainSPS))
	set("runtime.instrs_per_step", float64(prog.instrs))
	set("runtime.store_peak_mib", float64(prog.storePeak)/(1<<20))
	set("schedule.bubble_pct", 100*prog.bubble)
	set("distrun.compile_ms", prog.compileMs)
	set("model.opt_state_mib_per_rank", float64(optStateBytes(spec, w.procs))/(1<<20))
	end := rec.begin("MatMulInto", 0)
	set("tensor.matmul_gflops", matmulGflops(spec.MBRows, spec.Width, spec.Width))
	end()
	end = rec.begin("Transport round trips", 0)
	rtt, err := rttUs(spec.MBRows, spec.Width)
	end()
	if err != nil {
		return nil, err
	}
	set("dist.rtt_us", rtt)
	end = rec.begin("AllReduceBucketsInPlace", 0)
	ar, err := allReduceMs(spec)
	end()
	if err != nil {
		return nil, err
	}
	set("collective.allreduce_ms", ar)
	end = rec.begin("WriteShard+WriteManifest", 0)
	ckMs, ckBytes, err := ckptWrite(spec, w.procs, filepath.Join(work, "ckpt-replay"))
	end()
	if err != nil {
		return nil, err
	}
	set("ckpt.write_ms", ckMs)
	set("ckpt.bytes_per_ckpt", float64(ckBytes))
	return out, nil
}

type progStats struct {
	instrs    int     // instructions the bounding rank executes per step
	storePeak int64   // its actors' peak store bytes over one step
	bubble    float64 // idle fraction of the unit-cost schedule timeline
	compileMs float64 // median distrun.CompileHosted for its actors
}

// programStats compiles the workload's job in this process. Counts come from
// the compiled taskgraph.Program, store peaks from TrainStep.MemoryStats
// after one step, and compile time from compiling the bounding rank's share
// (every actor for the in-process workload) five times.
func programStats(w workload, spec distrun.JobSpec, b int, rec *recorder) (progStats, error) {
	var st progStats
	end := rec.begin("Compile", 0)
	ts, err := distrun.Compile(spec, nil)
	end()
	if err != nil {
		return st, err
	}
	defer ts.Close()
	prog := ts.Program()
	pp := ts.NumActors() / ts.NumReplicas()
	hosted := []int{b}
	if w.procs == 1 {
		hosted = nil
		for a := 0; a < ts.NumActors(); a++ {
			hosted = append(hosted, a)
		}
	}
	for _, a := range hosted {
		st.instrs += len(prog.Actors[a%pp])
	}
	params, batch := distrun.InitModel(spec)
	losses := make([]*jaxpp.Tensor, ts.NumReplicas()*ts.NumMicrobatches())
	grads := make([]*jaxpp.Tensor, len(prog.Grads))
	end = rec.begin("StepInto", 0)
	err = ts.StepInto(params, batch, losses, grads)
	end()
	if err != nil {
		return st, err
	}
	mem := ts.MemoryStats()
	for _, a := range hosted {
		st.storePeak += mem[a].PeakBytes
	}
	st.bubble = prog.Schedule.BubbleFraction(bwdRatio)

	host := []int{b}
	if w.procs == 1 {
		host = nil
	}
	var ms []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		c, err := distrun.CompileHosted(spec, nil, host)
		stop := time.Now()
		rec.add("CompileHosted", 0, start.UnixNano(), stop.UnixNano())
		if err != nil {
			return st, err
		}
		ms = append(ms, float64(stop.Sub(start))/1e6)
		c.Close()
	}
	st.compileMs = median(ms)
	return st, nil
}

// optStateBytes is one rank's optimizer state: none for plain SGD, the full
// momentum for the dense path, and the rank's even share of the flat state
// under ZeRO-1 sharding.
func optStateBytes(spec distrun.JobSpec, procs int) int {
	if spec.Momentum == 0 {
		return 0
	}
	total := spec.Stages * spec.Width * spec.Width
	if spec.Sharded {
		return 8 * collective.EvenCounts(total, procs)[0]
	}
	return 8 * total
}

// matmulGflops replays tensor.MatMulInto at [m×k]·[k×n] and returns the
// median rate over ten batches of about 20 ms each.
func matmulGflops(m, k, n int) float64 {
	rng := jaxpp.NewRNG(1)
	a, bm := rng.Normal(1, m, k), rng.Normal(1, k, n)
	dst := tensor.New(m, n)
	flops := 2 * float64(m) * float64(k) * float64(n)
	reps := 1
	for {
		start := time.Now()
		for i := 0; i < reps; i++ {
			tensor.MatMulInto(dst, a, bm)
		}
		if time.Since(start) > 20*time.Millisecond {
			break
		}
		reps *= 2
	}
	var rates []float64
	for i := 0; i < 10; i++ {
		start := time.Now()
		for j := 0; j < reps; j++ {
			tensor.MatMulInto(dst, a, bm)
		}
		rates = append(rates, flops*float64(reps)/time.Since(start).Seconds()/1e9)
	}
	return median(rates)
}

// rttUs replays activation-sized round trips between two dist.Transport
// endpoints over localhost TCP and returns the median.
func rttUs(rows, width int) (float64, error) {
	mesh, err := dist.NewLocalMesh(2, dist.Options{})
	if err != nil {
		return 0, err
	}
	defer mesh.Close()
	const trips, tag = 200, 1
	echoErr := make(chan error, 1)
	go func() {
		for i := 0; i < trips; i++ {
			t, err := mesh.Recv(1, 0, tag)
			if err != nil {
				echoErr <- err
				return
			}
			mesh.Send(1, 0, tag, t)
			tensor.Recycle(t)
		}
		echoErr <- nil
	}()
	x := tensor.New(rows, width)
	var us []float64
	for i := 0; i < trips; i++ {
		start := time.Now()
		mesh.Send(0, 1, tag, x)
		y, err := mesh.Recv(0, 1, tag)
		if err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(start))/1e3)
		tensor.Recycle(y)
	}
	return median(us), <-echoErr
}

// allReduceMs replays Communicator.AllReduceBucketsInPlace on the workload's
// gradient tensors over a 2-rank dist.LocalMesh and returns the median.
func allReduceMs(spec distrun.JobSpec) (float64, error) {
	mesh, err := dist.NewLocalMesh(2, dist.Options{})
	if err != nil {
		return 0, err
	}
	defer mesh.Close()
	group, err := collective.NewGroup(mesh, []int{0, 1}, 0)
	if err != nil {
		return 0, err
	}
	const iters = 20
	ms := make([]float64, 0, iters)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		comm, err := group.Comm(r)
		if err != nil {
			return 0, err
		}
		grads := make([]*tensor.Tensor, spec.Stages)
		for i := range grads {
			grads[i] = tensor.New(spec.Width, spec.Width)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters && errs[r] == nil; i++ {
				start := time.Now()
				errs[r] = comm.AllReduceBucketsInPlace(grads, collective.OpSum, 0)
				if r == 0 {
					ms = append(ms, float64(time.Since(start))/1e6)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return median(ms), nil
}

// ckptWrite replays one checkpoint at the workload's shard sizes: every
// rank's ckpt.WriteShard, then rank 0's ckpt.WriteManifest. It returns the
// median time of rank 0's share (its shard plus the manifest) over five
// checkpoints, and the bytes one checkpoint leaves on disk.
func ckptWrite(spec distrun.JobSpec, procs int, dir string) (float64, int64, error) {
	defer os.RemoveAll(dir)
	params, _ := distrun.InitModel(spec)
	entries := append([]*tensor.Tensor(nil), params...)
	var counts []int
	if spec.Momentum != 0 {
		if spec.Sharded {
			counts = collective.EvenCounts(spec.Stages*spec.Width*spec.Width, procs)
			for _, c := range counts {
				entries = append(entries, tensor.New(c))
			}
		} else {
			for _, p := range params {
				entries = append(entries, tensor.New(p.Shape()...))
			}
		}
	}
	owned := func(rank int) []int {
		if !spec.Sharded {
			return ckpt.Owned(rank, procs, len(entries))
		}
		return append(ckpt.Owned(rank, procs, len(params)), len(params)+rank)
	}
	var ms []float64
	var bytes int64
	for step := 1; step <= 5; step++ {
		for r := procs - 1; r >= 1; r-- {
			if err := ckpt.WriteShard(dir, step, r, entries, owned(r)); err != nil {
				return 0, 0, err
			}
		}
		start := time.Now()
		if err := ckpt.WriteShard(dir, step, 0, entries, owned(0)); err != nil {
			return 0, 0, err
		}
		m := ckpt.NewManifest(step, procs, spec.Stages, spec.Width, len(params), spec.Momentum)
		if counts != nil {
			m = ckpt.NewManifestSharded(step, procs, spec.Stages, spec.Width, len(params), spec.Momentum, counts)
		}
		if err := ckpt.WriteManifest(dir, m); err != nil {
			return 0, 0, err
		}
		ms = append(ms, float64(time.Since(start))/1e6)
		files, err := os.ReadDir(ckpt.StepDir(dir, step))
		if err != nil {
			return 0, 0, err
		}
		bytes = 0
		for _, f := range files {
			info, err := f.Info()
			if err != nil {
				return 0, 0, err
			}
			bytes += info.Size()
		}
	}
	if bytes == 0 {
		return 0, 0, fmt.Errorf("checkpoint replay wrote nothing under %s", dir)
	}
	return median(ms), bytes, nil
}
