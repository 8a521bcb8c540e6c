package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTinyWorkloads runs every workload at tiny size, untraced and
// traced, and checks that the run exits 0 with every output check
// passing, prints every metric it names with its unit, and ends with the
// JSON line holding exactly the metrics BENCHMARK.json declares.
func TestTinyWorkloads(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, w := range workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(w+"/trace="+traced, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", w, "--seed", "7", "--seconds", "0.5", "--trace", traced, "--tiny"}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				text := stdout.String()
				if strings.Contains(text, "FAILED") {
					t.Errorf("an output check failed:\n%s", text)
				}
				lines := strings.Split(strings.TrimSpace(text), "\n")
				var got struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
					t.Fatalf("last line is not the JSON result: %v", err)
				}
				if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
					t.Errorf("result correct=%v attempted=%d failed=%d", got.Correct, got.Attempted, got.Failed)
				}
				printed := append(append([]metricSpec(nil), endToEnd...), daemonEndToEnd...)
				want := endToEnd
				if traced == "1" {
					printed, want = perLayer, perLayer
				}
				for _, m := range printed {
					if !hasMetricLine(lines, m) {
						t.Errorf("metric %s [%s] not printed", m.name, m.unit)
					}
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("JSON holds %d metrics, want %d", len(got.Metrics), len(want))
				}
				for _, m := range want {
					if g, ok := got.Metrics[m.name]; !ok || g.Unit != m.unit {
						t.Errorf("JSON metric %s = %+v, want unit %s", m.name, g, m.unit)
					}
				}
			})
		}
	}
}

// hasMetricLine reports whether the table has a row naming the metric
// and its unit.
func hasMetricLine(lines []string, m metricSpec) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) >= 3 && f[0] == m.name && f[2] == m.unit {
			return true
		}
	}
	return false
}

// TestBenchmarkJSON pins BENCHMARK.json to the metrics and workloads the
// program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i])
		}
	}
	same := func(kind string, declared []struct{ Name, Unit string }, reported []metricSpec) {
		if len(declared) != len(reported) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(declared), len(reported))
		}
		for i, m := range declared {
			if m.Name != reported[i].name || m.Unit != reported[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, m.Name, m.Unit, reported[i].name, reported[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
