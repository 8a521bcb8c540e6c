package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bestresponse"
	"repro/internal/dynamics"
	"repro/internal/game"
)

// Span names, one per layer boundary the benchmark times from outside.
const (
	spanExecutor  = "executor"     // one Executor.Execute call, until its channel closes
	spanCell      = "cell"         // factory start until SweepOptions.Observe fires
	spanFactory   = "gen"          // the function returned by Spec.Factory()
	spanResponder = "bestresponse" // one responder call
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// the process-wide trace epoch; Parent is 0 for a root.
type span struct {
	ID, Parent int64
	Name       string
	Start, End int64
	// Improving records a responder span's outcome (a move).
	Improving bool
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

var epoch = time.Now()

func stamp() int64 { return int64(time.Since(epoch)) }

// tracedTurn reports whether unit i of a traced run is traced. Units go
// untraced, traced, traced, untraced, and so on, so that a steady drift
// in machine speed cancels out of the tracing-overhead estimate.
func tracedTurn(i int) bool { return i%4 == 1 || i%4 == 2 }

// spanLog is the span buffer of one responder instance. LocalExecutor
// resolves one responder per worker, so each log has a single writer.
type spanLog struct {
	spans     []span
	lastState *game.State
	parent    int64
}

// tracer keeps every span of one traced unit (a sweep of the reference
// grid, or a daemon session) in memory. It wraps public seams only: the executor, the
// factory, the responder constructors and the Observe callback.
type tracer struct {
	ids atomic.Int64

	mu     sync.Mutex
	spans  []span
	logs   []*spanLog
	states map[*game.State]int64 // start state → its cell span
	// results holds each executor-delivered cell's counters.
	results []dynamics.Result
}

func newTracer() *tracer {
	return &tracer{states: make(map[*game.State]int64)}
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// responder wraps one responder instance so that every call becomes a
// span whose parent is the cell that built the state it is asked about.
func (t *tracer) responder(inner dynamics.Responder) dynamics.Responder {
	l := &spanLog{}
	t.mu.Lock()
	t.logs = append(t.logs, l)
	t.mu.Unlock()
	return func(s *game.State, u, k int, alpha float64) bestresponse.Response {
		start := stamp()
		r := inner(s, u, k, alpha)
		end := stamp()
		if s != l.lastState {
			t.mu.Lock()
			l.lastState, l.parent = s, t.states[s]
			t.mu.Unlock()
		}
		l.spans = append(l.spans, span{Parent: l.parent, Name: spanResponder, Start: start, End: end, Improving: r.Improving})
		return r
	}
}

// tracedExecutor runs the inner executor with the request's factory,
// responders and Observe callback wrapped, and records the executor,
// cell and factory spans.
type tracedExecutor struct {
	t     *tracer
	inner dynamics.Executor
}

func (e tracedExecutor) Execute(ctx context.Context, req dynamics.ExecRequest) <-chan dynamics.IndexedResult {
	t := e.t
	exec := span{ID: t.ids.Add(1), Name: spanExecutor, Start: stamp()}

	type open struct {
		id, start, factoryEnd int64
	}
	var mu sync.Mutex
	cells := make(map[dynamics.Cell]open)
	factory := req.Factory
	req.Factory = func(c dynamics.Cell, rng *rand.Rand) *game.State {
		start := stamp()
		s := factory(c, rng)
		end := stamp()
		id := t.ids.Add(1)
		mu.Lock()
		cells[c] = open{id, start, end}
		mu.Unlock()
		t.mu.Lock()
		t.states[s] = id
		t.mu.Unlock()
		return s
	}
	observe := req.Observe
	req.Observe = func(i int, d time.Duration) {
		end := stamp()
		mu.Lock()
		o := cells[req.Cells[i]]
		mu.Unlock()
		t.record(span{ID: o.id, Parent: exec.ID, Name: spanCell, Start: o.start, End: end})
		t.record(span{ID: t.ids.Add(1), Parent: o.id, Name: spanFactory, Start: o.start, End: o.factoryEnd})
		if observe != nil {
			observe(i, d)
		}
	}
	// Every dialect the workloads use builds its responders through
	// Config.NewResponder, one per worker.
	if nr := req.Base.NewResponder; nr != nil {
		req.Base.NewResponder = func() dynamics.Responder { return t.responder(nr()) }
	}

	in := e.inner.Execute(ctx, req)
	out := make(chan dynamics.IndexedResult)
	go func() {
		defer close(out)
		for ir := range in {
			t.mu.Lock()
			t.results = append(t.results, ir.Result)
			t.mu.Unlock()
			select {
			case out <- ir:
			case <-ctx.Done():
			}
		}
		exec.End = stamp()
		t.record(exec)
	}()
	return out
}

// layerTotals is what one traced unit's spans add up to.
type layerTotals struct {
	execs         []span
	respCalls     int
	respImproving int
	respBusy      time.Duration
	respUS        samples
	cellSum       time.Duration
	factorySum    time.Duration
	selfSum       time.Duration
	// gap is Σcell − (Σresponder + Σfactory + Σself): child time that
	// falls outside its parent cell's interval.
	gap time.Duration
	// rounds, evaluations and playerRounds (n·rounds) sum the delivered
	// cells' engine counters.
	rounds, evaluations, playerRounds int
}

// totals derives per-layer numbers from the spans. A cell's self time is
// its duration minus the part of its interval its children cover.
func (t *tracer) totals() layerTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	var lt layerTotals
	type cellAcc struct {
		s        span
		children []span
	}
	cells := make(map[int64]*cellAcc)
	var factories []span
	for _, s := range t.spans {
		switch s.Name {
		case spanExecutor:
			lt.execs = append(lt.execs, s)
		case spanCell:
			cells[s.ID] = &cellAcc{s: s}
		case spanFactory:
			factories = append(factories, s)
		}
	}
	var childSum time.Duration
	addChild := func(c span) {
		if p := cells[c.Parent]; p != nil {
			p.children = append(p.children, c)
		}
		childSum += c.dur()
	}
	for _, f := range factories {
		lt.factorySum += f.dur()
		addChild(f)
	}
	for _, l := range t.logs {
		for _, s := range l.spans {
			if cells[s.Parent] == nil {
				continue // a call on a cell that never completed
			}
			lt.respCalls++
			if s.Improving {
				lt.respImproving++
			}
			lt.respBusy += s.dur()
			lt.respUS = append(lt.respUS, us(s.dur()))
			addChild(s)
		}
	}
	for _, c := range cells {
		lt.cellSum += c.s.dur()
		covered := time.Duration(0)
		for _, ch := range c.children {
			lo, hi := max(ch.Start, c.s.Start), min(ch.End, c.s.End)
			if hi > lo {
				covered += time.Duration(hi - lo)
			}
		}
		lt.selfSum += c.s.dur() - covered
	}
	lt.gap = lt.cellSum - (childSum + lt.selfSum)
	for _, r := range t.results {
		lt.rounds += r.Rounds
		lt.evaluations += r.Evaluations
		if r.Final != nil {
			lt.playerRounds += r.Final.N() * r.Rounds
		}
	}
	return lt
}

// writeSpans appends every span of the given tracers to path as JSON
// lines, assigning ids to responder spans, which have no children.
func writeSpans(path string, unit string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for u, t := range tracers {
		t.mu.Lock()
		next := t.ids.Load()
		emit := func(s span) {
			if s.ID == 0 {
				next++
				s.ID = next
			}
			fmt.Fprintf(w, `{"unit":"%s-%d","id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				unit, u, s.ID, s.Parent, s.Name, s.Start, s.End)
		}
		for _, s := range t.spans {
			emit(s)
		}
		for _, l := range t.logs {
			for _, s := range l.spans {
				emit(s)
			}
		}
		t.mu.Unlock()
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
