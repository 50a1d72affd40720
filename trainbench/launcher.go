package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/distrun"
)

// trialTimeout bounds one trial; a job that hangs past it is killed and its
// steps count as failed, so a hung job cannot stall the run.
const trialTimeout = 60 * time.Second

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the benchmark's command-line arguments.
type options struct {
	workload workload
	seed     uint64
	seconds  float64
	trace    bool
	// perturbSeed is test instrumentation: rank procs-1 trains from this seed
	// instead of the job's (0 disables).
	perturbSeed uint64
}

func launcherMain(args []string) int {
	fs := flag.NewFlagSet("trainbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "workload seed; the job's model and data derive from it")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1 reports the per-layer breakdown instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trainbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "trainbench: --trace must be 0 or 1")
		return 2
	}
	opt := options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1}
	res, err := run(opt, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trainbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trainbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// run executes one benchmark run: provenance, the reference job, then trials
// until the measuring time is spent, then (traced) the layer replays.
// Informational lines go to info; the caller prints the result line.
func run(opt options, info io.Writer) (*result, error) {
	w := opt.workload
	spec := w.spec(opt.seed)
	runs, err := filepath.Abs(filepath.Join(".bench_build", "runs"))
	if err != nil {
		return nil, err
	}
	work := filepath.Join(runs, strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		os.RemoveAll(work)
		os.Remove(runs) // only once no other run is using it
	}()

	prov := provenance(w, opt.seed)
	if b, err := json.Marshal(prov); err == nil {
		fmt.Fprintf(info, "provenance: %s\n", b)
	}
	// The traced run also records the launcher's own calls into the program.
	var rec *recorder
	if opt.trace {
		rec = newRecorder(-1)
	}
	end := rec.begin("reference", 0)
	ref, err := reference(w, spec, filepath.Join(work, "reference"))
	end()
	if err != nil {
		return nil, fmt.Errorf("reference job: %w", err)
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	var plain, traced []*trial
	poisoned := 0
	// The traced run needs an untraced and a traced trial at least.
	minTrials := 1
	if opt.trace {
		minTrials = 2
	}
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for n := 0; n < minTrials || time.Now().Before(deadline); n++ {
		// The traced run alternates untraced and traced trials, so the
		// tracing overhead is measured under the same conditions.
		profile := opt.trace && n%2 == 1
		end := rec.begin("trial", n)
		t := runTrial(w, spec, n, profile, opt.perturbSeed, work)
		end()
		res.Attempted += spec.Steps
		for _, r := range t.ranks {
			if r.Poisoned {
				poisoned++
			}
		}
		if err := t.check(ref, spec); err != nil {
			res.Failed += spec.Steps
			res.Correct = false
			fmt.Fprintf(os.Stderr, "trainbench: trial %d failed: %v\n%s", n, err, t.stderr)
			continue
		}
		if profile {
			traced = append(traced, t)
		} else {
			plain = append(plain, t)
		}
	}
	if len(plain) == 0 || (opt.trace && len(traced) == 0) {
		res.Correct = false
		names := endToEndMetrics
		if opt.trace {
			names = layerMetrics
		}
		for _, m := range names {
			res.Metrics[m.name] = metric{Unit: m.unit}
		}
		return res, nil
	}
	if !opt.trace {
		endToEnd(res.Metrics, spec, plain)
		return res, nil
	}
	layers, err := perLayer(w, spec, plain, traced, res.Failed, poisoned, work, rec)
	if err != nil {
		return nil, err
	}
	res.Metrics = layers
	if err := writeTrace(w, opt.seed, prov, traced, rec); err != nil {
		return nil, err
	}
	return res, nil
}

// refDigest is what every trial must reproduce bit for bit.
type refDigest struct{ loss, params string }

// reference runs the job in one process on the reference path:
// distrun.RunLocal, or for the in-process workload (which already runs as
// that reference) distrun.RunLocalOn over a dist.LocalMesh, which moves every
// tensor through the binary wire codec.
func reference(w workload, spec distrun.JobSpec, dir string) (refDigest, error) {
	if w.ckpt {
		spec.CkptDir = dir
	}
	var rep *distrun.Report
	var err error
	if w.procs == 1 {
		mesh, merr := dist.NewLocalMesh(spec.World(), dist.Options{})
		if merr != nil {
			return refDigest{}, merr
		}
		defer mesh.Close()
		rep, err = distrun.RunLocalOn(spec, mesh)
	} else {
		rep, err = distrun.RunLocal(spec)
	}
	if err != nil {
		return refDigest{}, err
	}
	return refDigest{loss: lossHash(rep.MBLosses), params: paramHash(rep.FinalParams)}, nil
}

// trial is one launch of the workload's rank processes.
type trial struct {
	n        int
	launchNs int64
	ranks    []rankResult
	maxRSS   []int64 // bytes, per rank, from the OS at exit
	err      error
	stderr   string
}

// runTrial launches the rank processes of one trial and waits for all of
// them. Worker ranks start only once the coordinator's control listener
// accepts connections: dist.Join sleeps a fixed 100 ms when its dial is
// refused, which would otherwise land in setup time at random.
func runTrial(w workload, spec distrun.JobSpec, n int, profile bool, perturbSeed uint64, work string) *trial {
	t := &trial{n: n}
	spec.Profile = profile
	dir := filepath.Join(work, fmt.Sprintf("trial-%d", n))
	if w.ckpt {
		spec.CkptDir = filepath.Join(dir, "ckpt")
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(context.Background(), trialTimeout)
	defer cancel()

	ctrl := ""
	if w.procs > 1 {
		var err error
		if ctrl, err = ctrlAddr(); err != nil {
			t.err = err
			return t
		}
	}
	maxprocs := max(1, goruntime.NumCPU()/w.procs)
	procs := make([]*rankProc, w.procs)
	t.launchNs = time.Now().UnixNano()
	for r := range procs {
		cfg := rankConfig{Rank: r, Procs: w.procs, Ctrl: ctrl, Spec: spec, Trial: n}
		if perturbSeed != 0 && r == w.procs-1 {
			cfg.PerturbSeed = perturbSeed
		}
		p, err := startRank(ctx, cfg, maxprocs)
		if err != nil {
			cancel()
			t.err = err
			break
		}
		procs[r] = p
		if r == 0 && w.procs > 1 {
			if err := awaitListener(ctx, ctrl, p.done); err != nil {
				cancel()
				t.err = err
				break
			}
		}
	}
	for _, p := range procs {
		if p == nil {
			continue
		}
		<-p.done
		t.stderr += p.stderr.String()
		if p.err != nil {
			t.err = errors.Join(t.err, fmt.Errorf("rank %d: %w", p.rank, p.err))
		}
		t.ranks = append(t.ranks, p.res)
		t.maxRSS = append(t.maxRSS, p.maxRSS)
	}
	if ctx.Err() != nil && t.err == nil {
		t.err = fmt.Errorf("trial timed out after %v", trialTimeout)
	}
	return t
}

// rankProc is one running rank process.
type rankProc struct {
	rank   int
	done   chan struct{}
	stderr bytes.Buffer
	res    rankResult
	maxRSS int64
	err    error
}

func startRank(ctx context.Context, cfg rankConfig, maxprocs int) (*rankProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	p := &rankProc{rank: cfg.Rank, done: make(chan struct{})}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), rankEnv+"="+string(cfgJSON), "GOMAXPROCS="+strconv.Itoa(maxprocs))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &p.stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		defer close(p.done)
		werr := cmd.Wait()
		if cmd.ProcessState != nil {
			if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
				p.maxRSS = ru.Maxrss * 1024 // Linux reports KiB
			}
		}
		line := lastLine(stdout.Bytes())
		if err := json.Unmarshal(line, &p.res); err != nil {
			p.err = errors.Join(werr, fmt.Errorf("no result line: %w", err))
			return
		}
		switch {
		case p.res.Err != "":
			p.err = errors.New(p.res.Err)
		case werr != nil:
			p.err = werr
		}
	}()
	return p, nil
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<30)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// awaitListener dials the coordinator's control address until it accepts.
// The coordinator ignores a connection that closes without a hello.
func awaitListener(ctx context.Context, addr string, exited <-chan struct{}) error {
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return c.Close()
		}
		select {
		case <-exited:
			return errors.New("coordinator exited before listening")
		case <-ctx.Done():
			return fmt.Errorf("coordinator never listened on %s", addr)
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// ctrlAddr picks a free control address for the coordinator below the
// default Linux ephemeral port range (32768–60999). A port the kernel hands
// out itself — to a dial, or to a listener on port 0 — could otherwise be
// taken by another socket between this check and the coordinator's bind.
func ctrlAddr() (string, error) {
	var err error
	for i := 0; i < 100; i++ {
		addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(20000+rand.IntN(12000)))
		var ln net.Listener
		if ln, err = net.Listen("tcp", addr); err == nil {
			return addr, ln.Close()
		}
	}
	return "", fmt.Errorf("no free control port: %w", err)
}

// check fails a trial that errored, timed out, or whose losses or final
// parameters differ in any bit from the reference.
func (t *trial) check(ref refDigest, spec distrun.JobSpec) error {
	if t.err != nil {
		return t.err
	}
	for _, r := range t.ranks {
		if r.Poisoned {
			return fmt.Errorf("rank %d: transport poisoned", r.Rank)
		}
		if r.StartStep != 0 {
			return fmt.Errorf("rank %d resumed at step %d instead of starting fresh", r.Rank, r.StartStep)
		}
		if r.ParamHash != ref.params {
			return fmt.Errorf("rank %d: final parameters differ from the reference", r.Rank)
		}
		if r.Rank == 0 {
			if r.Steps != spec.Steps {
				return fmt.Errorf("rank 0 recorded %d steps, want %d", r.Steps, spec.Steps)
			}
			if r.LossHash != ref.loss {
				return errors.New("per-step losses differ from the reference")
			}
		}
	}
	return nil
}
