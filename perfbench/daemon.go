package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/dynamics"
	"repro/internal/ncgio"
	"repro/internal/sweepd"
)

// sessionShape sizes the daemon-session workload: jobs closed-loop jobs,
// each a window of three consecutive α values × ks × seeds on n-player
// trees, so consecutive jobs share two thirds of their cells.
type sessionShape struct {
	jobs, n, seeds int
	ks             []int
}

func shapeFor(tiny bool) sessionShape {
	if tiny {
		return sessionShape{jobs: 4, n: 8, seeds: 2, ks: []int{2, 3}}
	}
	return sessionShape{jobs: 120, n: 20, seeds: 10, ks: []int{2, 3, 4}}
}

const (
	alphaWindow = 3
	// pollInterval is the client's status-poll period: completion is
	// observed within about this much of the job finishing, far below
	// the median job time.
	pollInterval = time.Millisecond
)

// alphas returns job j's α window. The seed picks where the α sequence
// starts, so each seed submits different specs.
func (sh sessionShape) alphas(seed int64, j int) []float64 {
	start := 0.5 + float64(uint64(seed)%97)/97
	out := make([]float64, alphaWindow)
	for i := range out {
		out[i] = math.Round((start+0.25*float64(j+i))*1e4) / 1e4
	}
	return out
}

func (sh sessionShape) spec(seed int64, j int) sweepd.Spec {
	return sweepd.Spec{N: sh.n, Alphas: sh.alphas(seed, j), Ks: sh.ks, Seeds: sh.seeds, BaseSeed: seed}
}

// daemon is one in-process sweepd daemon on loopback, assembled from the
// constructors cmd/ncg-server uses, without the cluster layers.
type daemon struct {
	mgr    *sweepd.Manager
	srv    *http.Server
	url    string
	served chan struct{}
}

// startDaemon opens the store and disk cache under dir, resumes its
// jobs, waits for every resumed runner, and starts serving. It returns
// how long Resume took until every resumed job had finished.
func startDaemon(dir string, provider sweepd.ExecutorProvider) (*daemon, time.Duration, error) {
	st, err := sweepd.OpenStore(dir)
	if err != nil {
		return nil, 0, err
	}
	cache, err := sweepd.NewDiskCache(65536, filepath.Join(dir, "cache"))
	if err != nil {
		return nil, 0, err
	}
	mgr := sweepd.NewManager(st, cache, 0)
	mgr.SetMaxJobs(4096)
	if provider != nil {
		mgr.SetExecutorProvider(provider)
	}
	handler := sweepd.NewHandlerConfig(mgr, sweepd.Config{})
	start := time.Now()
	if err := mgr.Resume(); err != nil {
		mgr.Close()
		return nil, 0, err
	}
	mgr.Wait()
	resume := time.Since(start)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close()
		return nil, 0, err
	}
	d := &daemon{mgr: mgr, srv: &http.Server{Handler: handler}, url: "http://" + ln.Addr().String(), served: make(chan struct{})}
	go func() {
		defer close(d.served)
		d.srv.Serve(ln) //nolint:errcheck // always ErrServerClosed after stop
	}()
	return d, resume, nil
}

// stop shuts the listener down, waits for the serve loop, and closes the
// manager (canceling and draining its runners).
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx) //nolint:errcheck // a stuck connection is closed by Close below
	d.srv.Close()
	<-d.served
	d.mgr.Close()
}

// client is the session's single HTTP connection, timing every request.
type client struct {
	hc       *http.Client
	requests int
	failed   int
	statusMS samples
}

func newClient() *client {
	return &client{hc: &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

// do sends one request and reads the whole body. A transport error or a
// status other than want counts as a failed request.
func (c *client) do(method, url string, body []byte, want int) ([]byte, time.Duration, error) {
	c.requests++
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		c.failed++
		return nil, 0, err
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.failed++
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if err == nil && resp.StatusCode != want {
		err = fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if err != nil {
		c.failed++
	}
	return data, d, err
}

// getJSON GETs url expecting 200 and decodes the body into v.
func (c *client) getJSON(url string, v any) (time.Duration, error) {
	data, d, err := c.do(http.MethodGet, url, nil, http.StatusOK)
	if err == nil {
		err = json.Unmarshal(data, v)
	}
	return d, err
}

// waitDone polls the job's status until it is terminal and returns the
// final snapshot and the number of polls.
func (c *client) waitDone(base, id string) (sweepd.Job, int, error) {
	for polls := 1; ; polls++ {
		var job sweepd.Job
		d, err := c.getJSON(base+"/sweeps/"+id, &job)
		if err != nil {
			return job, polls, err
		}
		c.statusMS = append(c.statusMS, ms(d))
		switch job.Status {
		case sweepd.StatusDone:
			return job, polls, nil
		case sweepd.StatusRunning:
			time.Sleep(pollInterval)
		default:
			return job, polls, fmt.Errorf("job %s ended %s: %s", id, job.Status, job.Error)
		}
	}
}

// submit POSTs a spec (202 for a new job) and returns the job id.
func (c *client) submit(base string, sp sweepd.Spec) (string, time.Duration, error) {
	body, err := json.Marshal(sp)
	if err != nil {
		return "", 0, err
	}
	data, d, err := c.do(http.MethodPost, base+"/sweeps", body, http.StatusAccepted)
	if err != nil {
		return "", d, err
	}
	var job sweepd.Job
	if err := json.Unmarshal(data, &job); err != nil {
		return "", d, err
	}
	return job.ID, d, nil
}

// provider is the benchmark's sweepd.ExecutorProvider: it runs every job
// on dynamics.LocalExecutor, as a daemon without peers does, and records
// each locally computed cell's wall time and each job's executor span.
// With a tracer it also records the cell, factory and responder spans.
type provider struct {
	t *tracer

	mu     sync.Mutex
	cellMS samples
	exec   map[string][2]time.Time // job id → executor start, end
}

func newProvider(t *tracer) *provider {
	return &provider{t: t, exec: make(map[string][2]time.Time)}
}

func (p *provider) ExecutorFor(sp sweepd.Spec, _ func(cells int)) dynamics.Executor {
	return providedExecutor{p: p, id: sp.ID()}
}

type providedExecutor struct {
	p  *provider
	id string
}

func (e providedExecutor) Execute(ctx context.Context, req dynamics.ExecRequest) <-chan dynamics.IndexedResult {
	p := e.p
	start := time.Now()
	observe := req.Observe
	req.Observe = func(i int, d time.Duration) {
		p.mu.Lock()
		p.cellMS = append(p.cellMS, ms(d))
		p.mu.Unlock()
		if observe != nil {
			observe(i, d)
		}
	}
	var inner dynamics.Executor = dynamics.LocalExecutor{}
	if p.t != nil {
		inner = tracedExecutor{t: p.t, inner: inner}
	}
	in := inner.Execute(ctx, req)
	out := make(chan dynamics.IndexedResult)
	go func() {
		defer close(out)
		for ir := range in {
			select {
			case out <- ir:
			case <-ctx.Done():
			}
		}
		p.mu.Lock()
		p.exec[e.id] = [2]time.Time{start, time.Now()}
		p.mu.Unlock()
	}()
	return out
}

// sessionResult is what one daemon session measured and returned.
type sessionResult struct {
	jobPhase   time.Duration // submit of the first job until the last summary
	cpu        time.Duration
	cells      int
	hits       []int // each job's cache hits, in job order
	resume     time.Duration
	submitMS   samples
	jobDoneMS  samples
	resultsMS  samples
	summaryMS  samples
	queueMS    samples
	computeMS  samples
	overheadMS samples
	statusMS   samples
	polls      int
	requests   int
	specs      []sweepd.Spec
	// restartMismatches counts jobs whose results changed across the
	// restart.
	restartMismatches int
	bodySums          [][sha256.Size]byte // each job's /results body hash, in job order
	// results holds the bodies themselves, read after the restart, when
	// the session was asked to keep them for the output checks.
	results [][]byte
	// peakRSS is the process's peak RSS when the last job was read, before
	// the restart: 120 concurrent resume runners make the restart's own
	// peak depend on scheduling.
	peakRSS float64
	digest  string
	cellMS  samples
}

// runSession boots a daemon in a fresh directory, runs the closed-loop
// job sequence against it, then restarts it and resumes every job.
// Output checks run after the timed parts.
func runSession(o options, idx int, t *tracer, keep bool, rep *report) (*sessionResult, error) {
	sh := shapeFor(o.tiny)
	dir := filepath.Join(o.workDir, "session-"+strconv.Itoa(idx))
	defer os.RemoveAll(dir)
	prov := newProvider(t)
	d, _, err := startDaemon(dir, prov)
	if err != nil {
		return nil, err
	}
	c := newClient()
	defer c.hc.CloseIdleConnections()
	res := &sessionResult{}
	ids := make([]string, sh.jobs)
	posted := make([]time.Time, sh.jobs)
	done := make([]time.Time, sh.jobs)
	h := sha256.New()
	cpu0, start := cpuTime(), time.Now()
	var jobErr error
	for j := 0; j < sh.jobs && jobErr == nil; j++ {
		sp := sh.spec(o.seed, j)
		res.specs = append(res.specs, sp)
		posted[j] = time.Now()
		id, sd, err := c.submit(d.url, sp)
		if err != nil {
			jobErr = err
			break
		}
		ids[j] = id
		res.submitMS = append(res.submitMS, ms(sd))
		job, polls, err := c.waitDone(d.url, id)
		done[j] = time.Now()
		res.polls += polls
		if err != nil {
			jobErr = err
			break
		}
		res.jobDoneMS = append(res.jobDoneMS, ms(done[j].Sub(posted[j])))
		res.cells += job.Total
		res.hits = append(res.hits, job.CacheHits)
		body, rd, err := c.do(http.MethodGet, d.url+"/sweeps/"+id+"/results", nil, http.StatusOK)
		if err != nil {
			jobErr = err
			break
		}
		res.resultsMS = append(res.resultsMS, ms(rd))
		res.bodySums = append(res.bodySums, sha256.Sum256(body))
		summary, sd2, err := c.do(http.MethodGet, d.url+"/sweeps/"+id+"/summary", nil, http.StatusOK)
		if err != nil {
			jobErr = err
			break
		}
		res.summaryMS = append(res.summaryMS, ms(sd2))
		h.Write(body)
		h.Write(summary)
	}
	res.jobPhase, res.cpu = time.Since(start), cpuTime()-cpu0
	res.peakRSS = peakRSSMB()
	d.stop()
	rep.count(sh.jobs, sh.jobs-len(res.jobDoneMS))
	if jobErr != nil {
		rep.count(c.requests, c.failed)
		return nil, jobErr
	}
	res.digest = hex.EncodeToString(h.Sum(nil))

	prov.mu.Lock()
	res.cellMS = prov.cellMS
	for j, id := range ids {
		span, ok := prov.exec[id]
		if !ok {
			continue
		}
		res.queueMS = append(res.queueMS, ms(span[0].Sub(posted[j])))
		res.computeMS = append(res.computeMS, ms(span[1].Sub(span[0])))
		res.overheadMS = append(res.overheadMS, ms(done[j].Sub(posted[j])-span[1].Sub(span[0])))
	}
	prov.mu.Unlock()

	// Restart over the same directory: Resume re-reads every checkpoint.
	d, res.resume, err = startDaemon(dir, nil)
	if err != nil {
		return nil, err
	}
	for j, id := range ids {
		body, _, err := c.do(http.MethodGet, d.url+"/sweeps/"+id+"/results", nil, http.StatusOK)
		if err != nil || sha256.Sum256(body) != res.bodySums[j] {
			res.restartMismatches++
		}
		if keep {
			res.results = append(res.results, body)
		}
	}
	d.stop()
	res.requests, res.statusMS = c.requests, c.statusMS
	rep.count(c.requests, c.failed)
	return res, nil
}

// setupDaemon is one daemon set-up: open the store and cache, build the
// manager and handler, resume (nothing), serve, answer /healthz, and
// run and purge a warm-up job on a fixed, seed-independent spec.
func setupDaemon(o options, idx int) (time.Duration, error) {
	dir := filepath.Join(o.workDir, "setup-"+strconv.Itoa(idx))
	defer os.RemoveAll(dir)
	start := time.Now()
	d, _, err := startDaemon(dir, newProvider(nil))
	if err != nil {
		return 0, err
	}
	defer d.stop()
	c := newClient()
	defer c.hc.CloseIdleConnections()
	if _, _, err := c.do(http.MethodGet, d.url+"/healthz", nil, http.StatusOK); err != nil {
		return 0, err
	}
	sh := shapeFor(o.tiny)
	warm := sweepd.Spec{N: sh.n, Alphas: []float64{1}, Ks: sh.ks, Seeds: sh.seeds, BaseSeed: 1}
	id, _, err := c.submit(d.url, warm)
	if err != nil {
		return 0, err
	}
	if _, _, err := c.waitDone(d.url, id); err != nil {
		return 0, err
	}
	if _, _, err := c.do(http.MethodDelete, d.url+"/sweeps/"+id+"?purge=1", nil, http.StatusOK); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// runDaemon measures the daemon-session workload: sessions back to back
// for the window (untraced and traced alternating when tracing), then
// the output checks and, when tracing, the per-layer metrics.
func runDaemon(o options, rep *report) ([]*tracer, error) {
	var setups samples
	for i := 0; i < setupRounds; i++ {
		d, err := setupDaemon(o, i)
		if err != nil {
			return nil, fmt.Errorf("daemon set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	// The first session warms the process (heap, page cache) and runs
	// measurably slower than the rest, so it is not timed. Its outputs
	// feed the output checks; every later session must repeat them.
	first, err := runSession(o, 0, nil, true, rep)
	if err != nil {
		return nil, err
	}
	var plain, traced []*sessionResult
	var tracers []*tracer
	start := time.Now()
	for i := 1; len(plain) == 0 || (o.trace && len(traced) == 0) || time.Since(start) < o.seconds; i++ {
		var t *tracer
		if o.trace && tracedTurn(i-1) {
			t = newTracer()
		}
		res, err := runSession(o, i, t, false, rep)
		if err != nil {
			return nil, err
		}
		if t == nil {
			plain = append(plain, res)
		} else {
			traced = append(traced, res)
			tracers = append(tracers, t)
		}
	}
	rep.digest = first.digest
	bad := 0
	for _, res := range append(plain, traced...) {
		if res.digest != first.digest {
			bad++
		}
	}
	rep.check("repeat sessions byte-identical", len(plain)+len(traced), bad, "")
	bad, jobs := 0, 0
	for _, res := range append([]*sessionResult{first}, append(plain, traced...)...) {
		bad += res.restartMismatches
		jobs += len(res.specs)
	}
	rep.check("results identical after restart", jobs, bad, "")

	var cellsPerS, cpuPerCell, cellMS, jobDone, results, summary, resume samples
	for _, res := range plain {
		cellsPerS = append(cellsPerS, float64(res.cells)/res.jobPhase.Seconds())
		cpuPerCell = append(cpuPerCell, ms(res.cpu)/float64(res.cells))
		cellMS = append(cellMS, res.cellMS...)
		jobDone = append(jobDone, res.jobDoneMS...)
		results = append(results, res.resultsMS...)
		summary = append(summary, res.summaryMS...)
		resume = append(resume, res.resume.Seconds())
	}
	if !o.trace {
		rep.add(metric{Name: "cells_per_s", Value: cellsPerS.median(), Unit: "1/s", N: len(cellsPerS),
			Note: fmt.Sprintf("median over sessions of %d jobs; cells served, cache hits included", shapeFor(o.tiny).jobs)})
		rep.add(metric{Name: "cell_ms_p50", Value: cellMS.median(), Unit: "ms", N: len(cellMS), Note: "locally computed cells"})
		rep.add(metric{Name: "cell_ms_p90", Value: cellMS.quantile(0.9), Unit: "ms", N: len(cellMS)})
		rep.add(metric{Name: "cpu_ms_per_cell", Value: cpuPerCell.median(), Unit: "ms", N: len(cpuPerCell), Note: "median over sessions; daemon and client share the process"})
		rep.add(metric{Name: "setup_s", Value: setups.median(), Unit: "s", N: len(setups)})
		rep.add(metric{Name: "peak_rss_mb", Value: first.peakRSS, Unit: "MiB", N: 1, Note: "set-up and the first session's jobs, before its restart"})
	}
	rep.add(metric{Name: "job_done_ms_p50", Value: jobDone.median(), Unit: "ms", N: len(jobDone), Note: fmt.Sprintf("POST until done observed; status polled every %v", pollInterval)})
	rep.add(metric{Name: "job_done_ms_p90", Value: jobDone.quantile(0.9), Unit: "ms", N: len(jobDone)})
	rep.add(metric{Name: "results_ms_p50", Value: results.median(), Unit: "ms", N: len(results)})
	rep.add(metric{Name: "results_ms_p90", Value: results.quantile(0.9), Unit: "ms", N: len(results)})
	rep.add(metric{Name: "summary_ms_p50", Value: summary.median(), Unit: "ms", N: len(summary), Note: "first summary of each job"})
	rep.add(metric{Name: "summary_ms_p90", Value: summary.quantile(0.9), Unit: "ms", N: len(summary)})
	rep.add(metric{Name: "resume_s", Value: resume.median(), Unit: "s", N: len(resume),
		Note: fmt.Sprintf("restart: Resume until every job is done again, %d checkpoint lines", first.cells)})

	decoded, err := checkSession(first, rep)
	if err != nil || !o.trace {
		return nil, err
	}
	var plainWall, tracedWall samples
	for _, res := range plain {
		plainWall = append(plainWall, res.jobPhase.Seconds())
	}
	for _, res := range traced {
		tracedWall = append(tracedWall, res.jobPhase.Seconds())
	}
	rep.add(metric{Name: "trace.overhead_frac", Value: (tracedWall.median() - plainWall.median()) / plainWall.median(), Unit: "fraction", N: len(traced),
		Note: fmt.Sprintf("session wall traced %.3fs vs untraced %.3fs (median of %d vs %d)", tracedWall.median(), plainWall.median(), len(traced), len(plain))})
	addLayerMetrics(rep, tracers, runtime.GOMAXPROCS(0), "per session")

	var queue, compute, overhead, submitMS, statusMS samples
	hits, total, polls, requests := 0, 0, 0, samples{}
	for _, res := range traced {
		queue = append(queue, res.queueMS...)
		compute = append(compute, res.computeMS...)
		overhead = append(overhead, res.overheadMS...)
		submitMS = append(submitMS, res.submitMS...)
		statusMS = append(statusMS, res.statusMS...)
		for _, h := range res.hits {
			hits += h
		}
		total += res.cells
		polls += res.polls
		requests = append(requests, float64(res.requests))
	}
	jobs = len(submitMS)
	rep.add(metric{Name: "cache.hit_frac", Value: float64(hits) / float64(max(total, 1)), Unit: "fraction", N: total})
	rep.add(metric{Name: "manager.queue_ms_p50", Value: queue.median(), Unit: "ms", N: len(queue), Note: "POST until the executor starts"})
	rep.add(metric{Name: "manager.compute_ms", Value: compute.median(), Unit: "ms", N: len(compute), Note: "executor span per job, median"})
	rep.add(metric{Name: "manager.overhead_ms_p50", Value: overhead.median(), Unit: "ms", N: len(overhead), Note: "job_done - executor span"})
	rep.add(metric{Name: "http.submit_ms_p50", Value: submitMS.median(), Unit: "ms", N: len(submitMS)})
	rep.add(metric{Name: "http.status_ms_p50", Value: statusMS.median(), Unit: "ms", N: len(statusMS)})
	rep.add(metric{Name: "http.polls_per_job", Value: float64(polls) / float64(max(jobs, 1)), Unit: "count", N: jobs})
	rep.add(metric{Name: "http.requests", Value: requests.median(), Unit: "count", N: len(requests), Note: "per session, restart checks included"})
	sh := shapeFor(o.tiny)
	return tracers, replayLayers(o, decoded, sh.seeds*alphaWindow*len(sh.ks), rep)
}

// checkSession runs the daemon-session output checks on one session:
// converged cells are LKEs, and a sample of cache-served jobs matches an
// in-process dynamics.SweepContext of the same spec byte for byte. It
// returns the session's distinct decoded results for the replays.
func checkSession(res *sessionResult, rep *report) ([]dynamics.CellResult, error) {
	seen := make(map[dynamics.Cell]bool)
	var distinct []dynamics.CellResult
	bad := 0
	lines := 0
	for _, body := range res.results {
		for _, line := range bytes.Split(bytes.TrimSuffix(body, []byte{'\n'}), []byte{'\n'}) {
			lines++
			cr, err := ncgio.UnmarshalCellResult(line)
			if err != nil {
				bad++
				continue
			}
			if !seen[cr.Cell] {
				seen[cr.Cell] = true
				distinct = append(distinct, cr)
			}
		}
	}
	rep.check("result lines decode", lines, bad, "")
	sp := res.specs[0]
	sp.Normalize()
	n, failed := auditLKE(sp.Config(), distinct)
	rep.check("converged cells are LKE (IsLKE)", n, failed, "distinct cells")

	var served []int
	for j, h := range res.hits {
		if h > 0 {
			served = append(served, j)
		}
	}
	if len(served) == 0 {
		return nil, errors.New("no job was served from the cache")
	}
	sample := []int{served[0], served[len(served)/2], served[len(served)-1]}
	bad = 0
	for _, j := range sample {
		sp := res.specs[j]
		sp.Normalize()
		out, err := dynamics.SweepContext(context.Background(), sp.Cells(), sp.Config(), sp.Factory(), sp.BaseSeed, dynamics.SweepOptions{})
		if err != nil {
			return nil, err
		}
		var want bytes.Buffer
		for _, cr := range out {
			line, err := ncgio.MarshalCellResult(cr)
			if err != nil {
				return nil, err
			}
			want.Write(line)
			want.WriteByte('\n')
		}
		if !bytes.Equal(want.Bytes(), res.results[j]) {
			bad++
		}
	}
	rep.check("cache-served jobs match in-process sweep", len(sample), bad, "")
	if len(distinct) == 0 {
		return nil, errors.New("session produced no results")
	}
	return distinct, nil
}
