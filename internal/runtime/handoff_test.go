package runtime

import (
	"fmt"
	"io"
	"net/http"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/stage"
	"repro/internal/taskgraph"
	"repro/internal/tensor"
)

// eventLog records the logical order of transport sends and segment starts.
// No timestamps: the test asserts on order alone.
type eventLog struct {
	mu     sync.Mutex
	events []event
}

type event struct {
	send  bool // inner transport Send (else: a segment start)
	actor int  // sender, or the actor starting the segment
	peer  int  // destination of a send
}

func (l *eventLog) add(e event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

func (l *eventLog) take() []event {
	l.mu.Lock()
	defer l.mu.Unlock()
	ev := l.events
	l.events = nil
	return ev
}

// loggingTransport records the moment each send reaches the inner transport.
type loggingTransport struct {
	Transport
	log *eventLog
}

func (lt loggingTransport) Send(from, to, tag int, t *tensor.Tensor) {
	lt.log.add(event{send: true, actor: from, peer: to})
	lt.Transport.Send(from, to, tag, t)
}

// TestAsyncSendReachesTransportBeforeNextSegment pins the eager send
// hand-off: with one P, an initiated activation send must reach the
// transport before the sending actor starts its next segment. Without the
// yield after the enqueue, the sender worker only runs once the actor blocks
// on a receive. In steady-state 1F1B, stage 0 sends microbatch i+1's
// activation and runs microbatch i's backward straight after (its cotangent
// already arrived), so it would hand off none of those sends in time.
func TestAsyncSendReachesTransportBeforeNextSegment(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))

	// Tiny widths keep every kernel below the parallel-split threshold, so
	// segments run inline and never yield on their own.
	const stages, numMB, mbRows, width, steps = 2, 8, 2, 4, 6
	g := buildMLPGrad(t, stages, mbRows, width)
	split, err := stage.SplitGraph(g, stage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := taskgraph.Compile(split, schedule.OneFOneB(stages, numMB), taskgraph.Options{BatchInputs: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	log := &eventLog{}
	cl := NewClusterWithTransport(stages, loggingTransport{NewChanTransport(), log})
	exe, err := cl.Load(prog, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer exe.Close()
	for _, a := range cl.Actors {
		for _, se := range a.segs {
			id, run := a.ID, se.runInto
			se.runInto = func(outs, ins []*tensor.Tensor) error {
				log.add(event{actor: id})
				return run(outs, ins)
			}
		}
	}

	// nextRun[k] is the ordinal of the segment stage 0 runs after its k-th
	// activation send, or -1 when a receive comes first: blocking there
	// runs the sender worker anyway, so only sends followed directly by a
	// segment (the steady state) test the hand-off.
	var nextRun []int
	runs, open := 0, -1
	for _, in := range cl.Actors[0].prog {
		switch {
		case in.Kind == taskgraph.OpRun:
			if open >= 0 {
				nextRun[open] = runs
				open = -1
			}
			runs++
		case in.Kind == taskgraph.OpRecv:
			open = -1
		case in.Kind == taskgraph.OpSend && in.Peer == 1:
			nextRun = append(nextRun, -1)
			open = len(nextRun) - 1
		}
	}
	if len(nextRun) != numMB {
		t.Fatalf("stage 0 issues %d activation sends, want %d", len(nextRun), numMB)
	}

	rng := tensor.NewRNG(5)
	params := []*tensor.Tensor{rng.Normal(0.5, width, width), rng.Normal(0.5, width, width)}
	x := rng.Normal(1, numMB*mbRows, width)
	y := rng.OneHotBatch(numMB*mbRows, width)
	inputs := append([]*tensor.Tensor{x, y}, params...)

	handed, total := 0, 0
	for s := 0; s < steps; s++ {
		if _, _, err := exe.Step(inputs); err != nil {
			t.Fatal(err)
		}
		ev := log.take()
		if s == 0 {
			continue // warm-up step
		}
		// sentAt[k] is how many segments stage 0 had started when its k-th
		// activation send reached the transport.
		sentAt := make([]int, 0, numMB)
		started := 0
		for _, e := range ev {
			switch {
			case e.actor == 0 && e.send && e.peer == 1:
				sentAt = append(sentAt, started)
			case e.actor == 0 && !e.send:
				started++
			}
		}
		if len(sentAt) != numMB {
			t.Fatalf("step %d: %d activation sends reached the transport, want %d", s, len(sentAt), numMB)
		}
		for k, next := range nextRun {
			if next < 0 {
				continue
			}
			total++
			if sentAt[k] <= next {
				handed++
			}
		}
	}
	if total == 0 {
		t.Fatal("stage 0's program has no activation send followed directly by a segment")
	}
	t.Logf("%d of %d steady-state activation sends reached the transport before stage 0's next segment", handed, total)
	// Go's scheduler polls the global run queue (where the yielding actor
	// waits) ahead of the local one every 61st tick, so a few hand-offs may
	// legitimately lose the race.
	if 4*handed < 3*total {
		t.Fatalf("only %d of %d activation sends reached the transport before the sender's next segment (want >= 3/4)", handed, total)
	}
}

// TestSendHandoffIsObserved pins the hand-off observability: with the
// registry enabled, every asynchronous send records one actor/send_handoff
// observation, and /metrics carries its count and total.
func TestSendHandoffIsObserved(t *testing.T) {
	const stages, numMB, mbRows, width = 2, 4, 2, 4
	g := buildMLPGrad(t, stages, mbRows, width)
	rng := tensor.NewRNG(9)
	params := []*tensor.Tensor{rng.Normal(0.5, width, width), rng.Normal(0.5, width, width)}
	x := rng.Normal(1, numMB*mbRows, width)
	y := rng.OneHotBatch(numMB*mbRows, width)

	obs.SnapshotAndReset()
	obs.Enable()
	_, _, exe := runPipeline(t, g, schedule.OneFOneB(stages, numMB), false, 1, params, x, y)
	obs.Disable()
	defer obs.SnapshotAndReset()
	defer exe.Close()
	sends := 0
	for _, instrs := range exe.prog.Actors {
		for _, in := range instrs {
			if in.Kind == taskgraph.OpSend {
				sends++
			}
		}
	}
	h, ok := obs.Peek().ScopeByName("actor/send_handoff")
	if !ok || h.Count != int64(sends) || h.Total <= 0 {
		t.Fatalf("actor/send_handoff = %+v (found %v), want %d observations with a positive total", h, ok, sends)
	}

	ms, err := obs.StartMetricsServer("127.0.0.1:0", obs.NewClusterTimeline(obs.StragglerConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	resp, err := http.Get("http://" + ms.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("jaxpp_obs_scope_count_total{name=%q} %d", "actor/send_handoff", sends),
		fmt.Sprintf("jaxpp_obs_scope_ns_total{name=%q} %d", "actor/send_handoff", h.Total),
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
