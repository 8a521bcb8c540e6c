package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dynamics"
	"repro/internal/ncgio"
	"repro/internal/sweepd"
)

// sweepSpec returns a sweep workload's reference grid: the α × k × seeds
// grid the workload is named for.
func sweepSpec(workload string, seed int64, tiny bool) sweepd.Spec {
	var sp sweepd.Spec
	switch workload {
	case "sweep-local":
		sp = sweepd.Spec{N: 100, Alphas: []float64{1, 2, 5, 10}, Ks: []int{2, 3, 4, 5, 6}, Seeds: 5}
	case "sweep-full":
		sp = sweepd.Spec{N: 100, Alphas: []float64{1, 2, 5, 10}, Ks: []int{1000}, Seeds: 25}
	case "sweep-large":
		// k=1 puts the median cell inside the k=3 group. Over k∈{2,3,4,1000}
		// alone, half the cells take milliseconds and half take a tenth of
		// a second, so cell_ms_p50 would sit in the gap between the halves
		// and jump from run to run.
		sp = sweepd.Spec{Dialect: "large-neighborhood", Variant: "sum", Graph: "gnp", P: 0.06,
			N: 100, Alphas: []float64{1, 2, 5, 10}, Ks: []int{1, 2, 3, 4, 1000}, Seeds: 7}
	}
	if tiny {
		sp.N, sp.Seeds = 12, 2
		sp.Alphas = sp.Alphas[:2]
		if sp.Graph == "gnp" {
			sp.P = 0.3
		}
	}
	sp.BaseSeed = seed
	return sp
}

// streamCells orders seeds 0 … seeds−1 of the spec's (α, k) grid
// seed-major, so every prefix of the stream mixes the (α, k) pairs
// evenly and its first len(sp.Cells()) cells are the reference grid.
func streamCells(sp sweepd.Spec, seeds int) []dynamics.Cell {
	out := make([]dynamics.Cell, 0, seeds*len(sp.Alphas)*len(sp.Ks))
	for s := 0; s < seeds; s++ {
		for _, a := range sp.Alphas {
			for _, k := range sp.Ks {
				out = append(out, dynamics.Cell{Alpha: a, K: k, Seed: int64(s)})
			}
		}
	}
	return out
}

// streamCellTarget sizes the cell stream far above what a run computes
// today, so a much faster program still measures for the whole window.
const streamCellTarget = 10000

// sweepRun is a prepared sweep workload: everything set-up builds.
type sweepRun struct {
	spec    sweepd.Spec
	cfg     dynamics.Config
	factory dynamics.Factory
	// stream is what the untraced run computes for the window; ref, its
	// prefix, is the reference grid that the digest, the output checks
	// and the traced run use.
	stream, ref []dynamics.Cell
}

// prepareSweep is the sweep workloads' set-up: build the spec's engine
// configuration and start-state factory, generate the start state of
// every reference cell, construct one responder per worker, and warm the
// pools with a sweep of one cell per worker on a fixed, seed-independent
// input.
func prepareSweep(workload string, seed int64, tiny bool) (*sweepRun, error) {
	sp := sweepSpec(workload, seed, tiny)
	sp.Normalize()
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	r := &sweepRun{spec: sp, cfg: sp.Config(), factory: sp.Factory()}
	block := len(sp.Alphas) * len(sp.Ks)
	r.stream = streamCells(sp, max(sp.Seeds, streamCellTarget/block))
	r.ref = r.stream[:sp.Seeds*block]
	for _, c := range r.ref {
		if s := dynamics.CellState(r.factory, c, sp.BaseSeed); s.N() != sp.N {
			return nil, fmt.Errorf("factory built %d players, want %d", s.N(), sp.N)
		}
	}
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		if r.cfg.ResolveResponder() == nil {
			return nil, fmt.Errorf("spec resolves no responder")
		}
	}
	warm := r.ref[:min(workers, len(r.ref))]
	if _, err := dynamics.SweepContext(context.Background(), warm, r.cfg, r.factory, 1, dynamics.SweepOptions{}); err != nil {
		return nil, err
	}
	return r, nil
}

// setupSweep runs set-up setupRounds times and returns the last prepared
// run with the median set-up time.
func setupSweep(o options) (*sweepRun, float64, error) {
	var times samples
	var r *sweepRun
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		var err error
		if r, err = prepareSweep(o.workload, o.seed, o.tiny); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return r, times.median(), nil
}

// runSweep measures a sweep workload. Untraced, one SweepContext runs
// over the cell stream until the window closes; only the reference
// cells' results are kept, so memory does not grow with speed. Traced,
// see traceSweep.
func runSweep(o options, rep *report) ([]*tracer, error) {
	r, setup, err := setupSweep(o)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return traceSweep(o, r, rep)
	}
	workers := runtime.GOMAXPROCS(0)
	var mu sync.Mutex
	var cellMS samples
	kept := make(map[dynamics.Cell]dynamics.Result, len(r.ref))
	ctx, cancel := context.WithTimeout(context.Background(), o.seconds)
	defer cancel()
	cpu0, start := cpuTime(), time.Now()
	_, err = dynamics.SweepContext(ctx, r.stream, r.cfg, r.factory, r.spec.BaseSeed, dynamics.SweepOptions{
		Workers:        workers,
		DiscardResults: true,
		Observe: func(_ int, d time.Duration) {
			mu.Lock()
			cellMS = append(cellMS, ms(d))
			mu.Unlock()
		},
		OnResult: func(i int, cr dynamics.CellResult, _ bool) error {
			if i < len(r.ref) {
				kept[cr.Cell] = cr.Result
			}
			return nil
		},
	})
	elapsed, cpu := time.Since(start), cpuTime()-cpu0
	rss := peakRSSMB()
	if err != nil && ctx.Err() == nil {
		return nil, err
	}
	n := len(cellMS)
	rep.count(n, 0)
	rep.add(metric{Name: "cells_per_s", Value: float64(n) / elapsed.Seconds(), Unit: "1/s", N: n,
		Note: fmt.Sprintf("%d workers, %.1fs window", workers, elapsed.Seconds())})
	rep.add(metric{Name: "cell_ms_p50", Value: cellMS.median(), Unit: "ms", N: n})
	rep.add(metric{Name: "cell_ms_p90", Value: cellMS.quantile(0.9), Unit: "ms", N: n})
	rep.add(metric{Name: "cpu_ms_per_cell", Value: ms(cpu) / float64(max(n, 1)), Unit: "ms", N: n})
	rep.add(metric{Name: "setup_s", Value: setup, Unit: "s", N: setupRounds})
	rep.add(metric{Name: "peak_rss_mb", Value: rss, Unit: "MiB", N: 1})

	// Reference cells the window did not reach are computed untimed.
	ref, err := dynamics.SweepContext(context.Background(), r.ref, r.cfg, r.factory, r.spec.BaseSeed, dynamics.SweepOptions{
		Have: func(c dynamics.Cell) (dynamics.Result, bool) {
			res, ok := kept[c]
			return res, ok
		},
	})
	if err != nil {
		return nil, err
	}
	checkEquilibria(r, ref, rep)
	rep.digest, err = digestResults(ref)
	return nil, err
}

// traceSweep alternates untraced and traced sweeps of the reference grid
// until the window is used (at least one of each), derives the per-layer
// metrics from the traced sweeps' spans, and replays the layers on the
// reference grid's final states.
func traceSweep(o options, r *sweepRun, rep *report) ([]*tracer, error) {
	workers := runtime.GOMAXPROCS(0)
	var plain, traced samples
	var tracers []*tracer
	var ref []dynamics.CellResult
	mismatched := 0
	start := time.Now()
	for i := 0; len(traced) == 0 || time.Since(start) < o.seconds; i++ {
		opt := dynamics.SweepOptions{Workers: workers}
		var t *tracer
		if tracedTurn(i) {
			t = newTracer()
			opt.Executor = tracedExecutor{t: t, inner: dynamics.LocalExecutor{}}
		}
		t0 := time.Now()
		out, err := dynamics.SweepContext(context.Background(), r.ref, r.cfg, r.factory, r.spec.BaseSeed, opt)
		wall := time.Since(t0)
		if err != nil {
			return nil, err
		}
		if t == nil {
			plain = append(plain, wall.Seconds())
		} else {
			traced = append(traced, wall.Seconds())
			tracers = append(tracers, t)
		}
		rep.count(len(out), 0)
		digest, err := digestResults(out)
		if err != nil {
			return nil, err
		}
		if ref == nil {
			ref, rep.digest = out, digest
		} else if digest != rep.digest {
			mismatched++
		}
	}
	rep.check("repeat sweeps byte-identical", len(plain)+len(traced)-1, mismatched, "")
	rep.add(metric{Name: "trace.overhead_frac", Value: (traced.median() - plain.median()) / plain.median(), Unit: "fraction",
		N: len(traced), Note: fmt.Sprintf("sweep wall traced %.3fs vs untraced %.3fs (median of %d vs %d)", traced.median(), plain.median(), len(traced), len(plain))})
	addLayerMetrics(rep, tracers, workers, fmt.Sprintf("per sweep of the %d-cell reference grid", len(r.ref)))
	checkEquilibria(r, ref, rep)
	return tracers, replayLayers(o, ref, len(r.ref), rep)
}

// addLayerMetrics reports the responder, engine, factory and executor
// numbers of the traced units: counts and busy times per unit (median
// over units), call latencies pooled over all units.
func addLayerMetrics(rep *report, tracers []*tracer, workers int, per string) {
	var calls, busy, improve, rounds, evals, skip, self, gen, busyFrac, gap samples
	var respUS samples
	for _, t := range tracers {
		lt := t.totals()
		execSum := time.Duration(0)
		for _, e := range lt.execs {
			execSum += e.dur()
		}
		calls = append(calls, float64(lt.respCalls))
		busy = append(busy, ms(lt.respBusy))
		improve = append(improve, float64(lt.respImproving)/float64(max(lt.respCalls, 1)))
		rounds = append(rounds, float64(lt.rounds))
		evals = append(evals, float64(lt.evaluations))
		skip = append(skip, 1-float64(lt.evaluations)/float64(max(lt.playerRounds, 1)))
		self = append(self, ms(lt.selfSum))
		gen = append(gen, ms(lt.factorySum))
		busyFrac = append(busyFrac, float64(lt.cellSum)/(float64(execSum)*float64(workers)))
		gap = append(gap, math.Abs(float64(lt.gap))/float64(max(lt.cellSum, 1)))
		respUS = append(respUS, lt.respUS...)
	}
	n := len(tracers)
	rep.add(metric{Name: "bestresponse.calls", Value: calls.median(), Unit: "count", N: n, Note: per})
	rep.add(metric{Name: "bestresponse.busy_ms", Value: busy.median(), Unit: "ms", N: n, Note: per})
	rep.add(metric{Name: "bestresponse.us_per_call_p50", Value: respUS.median(), Unit: "us", N: len(respUS)})
	rep.add(metric{Name: "bestresponse.us_per_call_p99", Value: respUS.quantile(0.99), Unit: "us", N: len(respUS)})
	rep.add(metric{Name: "bestresponse.improve_frac", Value: improve.median(), Unit: "fraction", N: n, Note: "moves/calls"})
	rep.add(metric{Name: "dynamics.rounds", Value: rounds.median(), Unit: "count", N: n, Note: per})
	rep.add(metric{Name: "dynamics.evaluations", Value: evals.median(), Unit: "count", N: n, Note: per})
	rep.add(metric{Name: "dynamics.skip_frac", Value: skip.median(), Unit: "fraction", N: n, Note: "1 - evals/(n*rounds)"})
	rep.add(metric{Name: "dynamics.self_ms", Value: self.median(), Unit: "ms", N: n, Note: per + "; cell - responder - factory"})
	rep.add(metric{Name: "gen.busy_ms", Value: gen.median(), Unit: "ms", N: n, Note: per})
	rep.add(metric{Name: "executor.busy_frac", Value: busyFrac.median(), Unit: "fraction", N: n, Note: fmt.Sprintf("sum cell / (executor span x %d workers)", workers)})
	rep.add(metric{Name: "trace.attribution_gap_frac", Value: gap.quantile(1), Unit: "fraction", N: n,
		Note: fmt.Sprintf("|sum cell - (responder + factory + self)| / sum cell, worst unit; tolerance %g", attributionTolerance)})
	bad := 0
	for _, g := range gap {
		if g > attributionTolerance {
			bad++
		}
	}
	rep.check("spans add up to cell time", n, bad, fmt.Sprintf("(tolerance %g)", attributionTolerance))
}

// attributionTolerance bounds the share of summed cell time that child
// spans (responder, factory) may place outside their parent cell.
const attributionTolerance = 0.01

// checkEquilibria audits every converged cell with dynamics.IsLKE under
// the workload's own responder: exact Local Knowledge Equilibria for
// MAXNCG best response, a local-move audit for the large-neighborhood
// dialect.
func checkEquilibria(r *sweepRun, results []dynamics.CellResult, rep *report) {
	name := "converged cells are LKE (IsLKE)"
	if r.spec.Dialect != "" {
		name = "converged cells pass IsLKE audit"
	}
	n, bad := auditLKE(r.cfg, results)
	rep.check(name, n, bad, "")
}

// auditLKE runs dynamics.IsLKE on every converged result, on GOMAXPROCS
// goroutines with a responder each, and returns how many it checked and
// how many failed.
func auditLKE(base dynamics.Config, results []dynamics.CellResult) (n, bad int) {
	var todo []dynamics.CellResult
	for _, cr := range results {
		if cr.Result.Final != nil && cr.Result.Status == dynamics.Converged {
			todo = append(todo, cr)
		}
	}
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := base
			cfg.Responder = base.ResolveResponder()
			for i := next.Add(1) - 1; i < int64(len(todo)); i = next.Add(1) - 1 {
				cr := todo[i]
				cfg.Alpha, cfg.K = cr.Cell.Alpha, cr.Cell.K
				if !dynamics.IsLKE(cr.Result.Final, cfg) {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return len(todo), int(failed.Load())
}

// digestResults is the sha256 of the results' canonical checkpoint
// encoding, so two commits can compare outputs.
func digestResults(results []dynamics.CellResult) (string, error) {
	h := sha256.New()
	for _, cr := range results {
		line, err := ncgio.MarshalCellResult(cr)
		if err != nil {
			return "", err
		}
		h.Write(line)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
