package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dynamics"
	"repro/internal/ncgio"
	"repro/internal/view"
)

// Replays re-run one public layer call on a workload's own outputs (its
// final states and checkpoint lines) and time each call. They are
// labelled as replays in the output: the numbers describe the layer on
// this workload's data, not time the workload spent there.
const (
	maxReplayStates = 200 // final states fed to the view and graph replays
	maxReplayLines  = 2000
	maxReplayFiles  = 10 // checkpoint files written by the store replay
)

// replayLayers times view.Workspace.Extract, the CSR all-pairs kernels,
// the ncgio codec and the checkpoint writer on results; chunk is how
// many lines one checkpoint file of this workload holds.
func replayLayers(o options, results []dynamics.CellResult, chunk int, rep *report) error {
	states := results[:min(len(results), maxReplayStates)]
	note := fmt.Sprintf("%d final states", len(states))

	ws := view.GetWorkspace()
	defer view.PutWorkspace(ws)
	var extract, ball samples
	for _, cr := range states {
		g := cr.Result.Final.Graph()
		for u := 0; u < g.N(); u++ {
			start := time.Now()
			ws.Extract(g, u, cr.Cell.K)
			extract = append(extract, us(time.Since(start)))
			ball = append(ball, float64(ws.Size()))
		}
	}
	rep.add(metric{Name: "view.extract_us_p50", Value: extract.median(), Unit: "us", N: len(extract), Replay: true, Note: note + ", every player at the cell's k"})
	rep.add(metric{Name: "view.ball_vertices_mean", Value: ball.mean(), Unit: "count", N: len(ball), Replay: true})

	var allPairs samples
	var ecc, sums []int
	for _, cr := range states {
		c := cr.Result.Final.Graph().CSR()
		start := time.Now()
		ecc = c.AllEccentricitiesInto(ecc)
		sums = c.AllSumDistancesInto(sums)
		allPairs = append(allPairs, us(time.Since(start)))
	}
	rep.add(metric{Name: "graph.allpairs_us", Value: allPairs.median(), Unit: "us", N: len(allPairs), Replay: true, Note: note + ", eccentricities + distance sums"})

	var encode, decode samples
	var lines [][]byte
	bytes := 0
	for _, cr := range results[:min(len(results), maxReplayLines)] {
		start := time.Now()
		line, err := ncgio.MarshalCellResult(cr)
		encode = append(encode, us(time.Since(start)))
		if err != nil {
			return fmt.Errorf("replay encode: %w", err)
		}
		lines = append(lines, line)
		bytes += len(line) + 1
	}
	bad := 0
	for _, line := range lines {
		start := time.Now()
		cr, err := ncgio.UnmarshalCellResult(line)
		decode = append(decode, us(time.Since(start)))
		if err != nil || cr.Result.Final == nil {
			bad++
		}
	}
	rep.check("replayed lines decode", len(lines), bad, "")
	rep.add(metric{Name: "ncgio.encode_us_per_cell", Value: encode.median(), Unit: "us", N: len(encode), Replay: true})
	rep.add(metric{Name: "ncgio.decode_us_per_line", Value: decode.median(), Unit: "us", N: len(decode), Replay: true})
	rep.add(metric{Name: "ncgio.bytes_per_cell", Value: float64(bytes) / float64(max(len(lines), 1)), Unit: "B", N: len(lines), Replay: true})

	dir := filepath.Join(o.workDir, "store-replay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var appendTotal time.Duration
	var syncs samples
	appended := 0
	for f := 0; f < maxReplayFiles && f*chunk < len(lines); f++ {
		w, err := ncgio.NewCheckpointWriter(filepath.Join(dir, fmt.Sprintf("results-%d.jsonl", f)))
		if err != nil {
			return err
		}
		start := time.Now()
		for _, line := range lines[f*chunk : min(len(lines), (f+1)*chunk)] {
			if err := w.AppendLine(line); err != nil {
				w.Close()
				return fmt.Errorf("replay append: %w", err)
			}
			appended++
		}
		appendTotal += time.Since(start)
		start = time.Now()
		if err := w.Sync(); err != nil {
			w.Close()
			return fmt.Errorf("replay sync: %w", err)
		}
		syncs = append(syncs, ms(time.Since(start)))
		if err := w.Close(); err != nil {
			return err
		}
	}
	rep.add(metric{Name: "store.append_us_per_line", Value: us(appendTotal) / float64(max(appended, 1)), Unit: "us", N: appended, Replay: true,
		Note: fmt.Sprintf("CheckpointWriter, %d-line files, periodic fsync included", chunk)})
	rep.add(metric{Name: "store.sync_ms", Value: syncs.median(), Unit: "ms", N: len(syncs), Replay: true})
	return nil
}
