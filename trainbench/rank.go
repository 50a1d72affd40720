package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	goruntime "runtime"
	"sync/atomic"
	"syscall"
	"time"

	jaxpp "repro"
	"repro/internal/dist"
	"repro/internal/distrun"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// rankEnv carries a rank process's configuration. The launcher re-executes its
// own binary once per rank with this variable set.
const rankEnv = "TRAINBENCH_RANK"

type rankConfig struct {
	Rank  int `json:"rank"`
	Procs int `json:"procs"`
	// Ctrl is the coordinator's control address (multi-process only).
	Ctrl string `json:"ctrl,omitempty"`
	// Spec is the job: the coordinator distributes it as the rendezvous
	// payload, workers take theirs from there.
	Spec  distrun.JobSpec `json:"spec"`
	Trial int             `json:"trial"`
	// PerturbSeed, when nonzero, replaces this rank's job seed after the
	// rendezvous — the benchmark's own test uses it to prove that a wrong
	// result is counted as failed steps.
	PerturbSeed uint64 `json:"perturb_seed,omitempty"`
}

// jobCost is what one job cost this rank, read around the call into the
// program.
type jobCost struct {
	WallNs  int64  `json:"wall_ns"`
	CPUNs   int64  `json:"cpu_ns"`
	Mallocs uint64 `json:"mallocs"`
	Sends   int64  `json:"sends"`
	Bytes   int64  `json:"bytes"`
}

func (c jobCost) minus(o jobCost) jobCost {
	return jobCost{c.WallNs - o.WallNs, c.CPUNs - o.CPUNs, c.Mallocs - o.Mallocs, c.Sends - o.Sends, c.Bytes - o.Bytes}
}

// rankResult is the one JSON line a rank prints on standard output.
type rankResult struct {
	Rank         int   `json:"rank"`
	RendezvousNs int64 `json:"rendezvous_ns"`
	// ReadyUnixNs is when the cold 0-step job returned: the first step of a
	// job could run from here on.
	ReadyUnixNs int64 `json:"ready_unix_ns"`
	// Job0 is a warm 0-step job, JobS the timed job of Spec.Steps steps. Both
	// compile and allocate the same, so JobS minus Job0 is the steps alone.
	Job0       jobCost `json:"job0"`
	JobS       jobCost `json:"jobs"`
	RecvWaitNs int64   `json:"recv_wait_ns,omitempty"`
	StartStep  int     `json:"start_step"`
	Steps      int     `json:"steps"`
	LossHash   string  `json:"loss_hash,omitempty"`
	ParamHash  string  `json:"param_hash"`
	Poisoned   bool    `json:"poisoned,omitempty"`
	// Profiles are every rank's obs scope totals and counters (rank 0 of a
	// traced trial only), spans stripped.
	Profiles []*obs.Snapshot `json:"profiles,omitempty"`
	Spans    []span          `json:"spans,omitempty"`
	Dropped  int             `json:"dropped_spans,omitempty"`
	Err      string          `json:"err,omitempty"`
}

func rankMain(cfgJSON string) int {
	var cfg rankConfig
	res := &rankResult{}
	err := json.Unmarshal([]byte(cfgJSON), &cfg)
	if err == nil {
		res.Rank = cfg.Rank
		var rec *recorder
		if cfg.Spec.Profile {
			rec = newRecorder(cfg.Trial)
		}
		if cfg.Procs == 1 {
			err = runInProcess(cfg, res, rec)
		} else {
			err = runTCP(cfg, res, rec)
		}
		res.Spans, res.Dropped = rec.take()
	}
	if err != nil {
		res.Err = err.Error()
	}
	out, _ := json.Marshal(res) // plain data; cannot fail
	fmt.Println(string(out))
	if err != nil {
		return 1
	}
	return 0
}

// sendCounter is the SendCount both transports implement; the in-process one
// counts elements, the TCP one bytes.
type sendCounter interface{ SendCount() (int, int64) }

// measure times one job and reads this process's CPU time, allocations and
// transport traffic around it.
func measure(tr sendCounter, bytesPerUnit int64, rec *recorder, name string, job func() error) (jobCost, error) {
	// read returns running totals (and the wall clock); their difference
	// across the job is its cost.
	read := func() jobCost {
		var ms goruntime.MemStats
		goruntime.ReadMemStats(&ms)
		var ru syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
		end := rec.begin("SendCount", 0)
		sends, units := tr.SendCount()
		end()
		return jobCost{
			WallNs:  time.Now().UnixNano(),
			CPUNs:   ru.Utime.Nano() + ru.Stime.Nano(),
			Mallocs: ms.Mallocs,
			Sends:   int64(sends),
			Bytes:   units * bytesPerUnit,
		}
	}
	before := read()
	end := rec.begin(name, 0)
	err := job()
	end()
	return read().minus(before), err
}

// runInProcess runs the in-process workload: every actor in this process on
// the in-process transport, driven by distrun.RunLocalOn.
func runInProcess(cfg rankConfig, res *rankResult, rec *recorder) error {
	spec := cfg.Spec
	job0 := spec
	job0.Steps, job0.Profile = 0, false
	end := rec.begin("RunLocalOn/cold", 0)
	_, err := distrun.RunLocalOn(job0, runtime.NewChanTransport())
	end()
	if err != nil {
		return err
	}
	res.ReadyUnixNs = time.Now().UnixNano()
	tr0 := runtime.NewChanTransport()
	if res.Job0, err = measure(tr0, 8, rec, "RunLocalOn/warm0", func() error {
		_, err := distrun.RunLocalOn(job0, tr0)
		return err
	}); err != nil {
		return err
	}
	trS := runtime.NewChanTransport()
	var tr runtime.Transport = trS
	var timed *timedTransport
	if rec != nil {
		timed = &timedTransport{inner: trS, rec: rec}
		tr = timed
	}
	var rep *distrun.Report
	if res.JobS, err = measure(trS, 8, rec, "RunLocalOn", func() error {
		var err error
		rep, err = distrun.RunLocalOn(spec, tr)
		return err
	}); err != nil {
		return err
	}
	if timed != nil {
		res.RecvWaitNs = timed.recvWait.Load()
	}
	res.record(rep, true)
	return nil
}

// runTCP runs one rank of a multi-process workload: rendezvous through the
// public dist.Coordinate/dist.Join, then distrun.Run on the session.
func runTCP(cfg rankConfig, res *rankResult, rec *recorder) error {
	opts := dist.SessionOptions{WantRank: cfg.Rank}
	start := time.Now()
	end := rec.begin("rendezvous", 0)
	var sess *dist.Session
	var err error
	if cfg.Rank == 0 {
		sess, err = dist.Coordinate(cfg.Ctrl, cfg.Procs, cfg.Spec.Marshal(), opts)
	} else {
		sess, err = dist.Join(cfg.Ctrl, opts)
	}
	end()
	if err != nil {
		return err
	}
	defer sess.Close()
	res.RendezvousNs = int64(time.Since(start))
	res.Rank = sess.Rank
	spec, err := distrun.UnmarshalJobSpec(sess.Job)
	if err != nil {
		return err
	}
	if cfg.PerturbSeed != 0 {
		spec.Seed = cfg.PerturbSeed
	}
	job0 := spec
	job0.Steps, job0.Profile = 0, false
	end = rec.begin("Run/cold", 0)
	_, err = distrun.Run(sess, job0)
	end()
	if err != nil {
		return err
	}
	res.ReadyUnixNs = time.Now().UnixNano()
	if res.Job0, err = measure(sess.Transport, 1, rec, "Run/warm0", func() error {
		_, err := distrun.Run(sess, job0)
		return err
	}); err != nil {
		return err
	}
	var rep *distrun.Report
	if res.JobS, err = measure(sess.Transport, 1, rec, "Run", func() error {
		var err error
		rep, err = distrun.Run(sess, spec)
		return err
	}); err != nil {
		return err
	}
	res.Poisoned = sess.Transport.Err() != nil
	res.record(rep, sess.Rank == 0)
	return sess.Barrier()
}

// record keeps what the launcher checks: the hashes of the losses (on the rank
// that gathers them) and of the final parameters, which every rank holds.
func (res *rankResult) record(rep *distrun.Report, losses bool) {
	res.StartStep = rep.StartStep
	res.ParamHash = paramHash(rep.FinalParams)
	if losses {
		res.Steps = len(rep.MBLosses)
		res.LossHash = lossHash(rep.MBLosses)
	}
	for _, p := range rep.Profiles {
		p.Spans = nil
	}
	res.Profiles = rep.Profiles
}

// lossHash and paramHash digest the exact bits of a job's outputs, so two
// jobs agree only when every loss and parameter is Float64bits-identical.
func lossHash(mb [][]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, step := range mb {
		binary.LittleEndian.PutUint64(b[:], uint64(len(step)))
		h.Write(b[:])
		for _, v := range step {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func paramHash(ps []*jaxpp.Tensor) string {
	steps := make([][]float64, len(ps))
	for i, p := range ps {
		steps[i] = p.Data()
	}
	return lossHash(steps)
}

// timedTransport wraps the in-process transport in the traced run: it times
// every receive (the wait for a peer actor) and records a span per call.
type timedTransport struct {
	inner    runtime.Transport
	rec      *recorder
	recvWait atomic.Int64
}

func (t *timedTransport) Send(from, to, tag int, ten *tensor.Tensor) {
	end := t.rec.begin("Send", from)
	t.inner.Send(from, to, tag, ten)
	end()
}

func (t *timedTransport) Recv(to, from, tag int) (*tensor.Tensor, error) {
	start := time.Now()
	ten, err := t.inner.Recv(to, from, tag)
	stop := time.Now()
	t.recvWait.Add(int64(stop.Sub(start)))
	t.rec.add("Recv", to, start.UnixNano(), stop.UnixNano())
	return ten, err
}
