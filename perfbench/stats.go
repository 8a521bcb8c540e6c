package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// samples is one timing distribution, in the unit its metric reports.
type samples []float64

// quantile returns the q-quantile by linear interpolation between the
// closest ranks; NaN when empty.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return s.sum() / float64(len(s))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// metric is one reported number: its name and unit as BENCHMARK.json
// lists them, how many samples it summarizes, and whether it is a layer
// replay rather than a span or count taken from the run itself.
type metric struct {
	Name   string
	Value  float64
	Unit   string
	N      int
	Replay bool
	Note   string
}

// report accumulates a run's metrics in print order plus the outcome of
// every attempted operation and output check.
type report struct {
	metrics   []metric
	attempted int
	failed    int
	checks    []string
	// digest identifies the workload's outputs, to compare two commits.
	digest string
}

func (r *report) add(m metric) { r.metrics = append(r.metrics, m) }

// lookup returns the named metric.
func (r *report) lookup(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// count records attempted operations and how many of them failed.
func (r *report) count(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// check records one output check: n items examined, bad of them wrong.
func (r *report) check(name string, n, bad int, detail string) {
	r.count(n, bad)
	verdict := "ok"
	if bad > 0 {
		verdict = "FAILED"
	}
	line := fmt.Sprintf("check %-34s %s (%d/%d pass)", name, verdict, n-bad, n)
	if detail != "" {
		line += " " + detail
	}
	r.checks = append(r.checks, line)
}

// print writes the human-readable table: every metric with its unit and
// sample count, replays labelled, then the checks.
func (r *report) print(w io.Writer) {
	for _, m := range r.metrics {
		tag := ""
		if m.Replay {
			tag = " [replay]"
		}
		val := "n/a"
		if !math.IsNaN(m.Value) {
			val = strconv.FormatFloat(m.Value, 'g', 6, 64)
		}
		line := fmt.Sprintf("  %-30s %14s %-9s n=%d%s", m.Name, val, m.Unit, m.N, tag)
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	for _, c := range r.checks {
		fmt.Fprintln(w, "  "+c)
	}
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-30s %14g %-9s n=%d\n", "error_rate", rate, "fraction", r.attempted)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
