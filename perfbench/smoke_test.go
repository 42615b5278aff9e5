package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"datalaws/internal/table"
)

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// benchmarkFile is the part of BENCHMARK.json the smoke test compares with.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// tiny is a run at a small fraction of the documented sizes, set up once.
func tiny(t *testing.T, workload string, seed int64) config {
	return config{workload: workload, seed: seed, seconds: 0.3, scale: 0.01, setups: 1, workdir: t.TempDir()}
}

// tinyRun runs cfg and parses the result line.
func tinyRun(t *testing.T, cfg config) (result, string) {
	t.Helper()
	// Small tables still seal chunks, so the table layer has work.
	old := table.DefaultChunkRows
	table.DefaultChunkRows = 1024
	defer func() { table.DefaultChunkRows = old }()
	r, err := execute(cfg)
	if err != nil {
		t.Fatalf("run %s: %v", cfg.workload, err)
	}
	var out bytes.Buffer
	r.print(&out, cfg)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out.String())
	}
	return res, out.String()
}

// sameMetrics fails unless got holds exactly the named metrics, each with
// its unit.
func sameMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }, out string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics, want %d:\n%s", len(got), len(want), out)
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("metric %s missing:\n%s", w.Name, out)
		} else if m.Unit != w.Unit {
			t.Errorf("metric %s has unit %q, want %q", w.Name, m.Unit, w.Unit)
		}
	}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	f := loadBenchmarkFile(t)
	for _, w := range f.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := tiny(t, w.Name, 3)
			r, out := tinyRun(t, cfg)
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("untraced run not correct:\n%s", out)
			}
			sameMetrics(t, r.Metrics, f.EndToEnd, out)
			for _, m := range r.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric is not positive:\n%s", out)
				}
			}

			cfg.trace = true
			r, out = tinyRun(t, cfg)
			if !r.Correct || r.Failed != 0 {
				t.Fatalf("traced run not correct:\n%s", out)
			}
			sameMetrics(t, r.Metrics, f.PerLayer, out)
		})
	}
}

func TestCorruptedAnswerIsCaught(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			cfg := tiny(t, w, 5)
			cfg.corrupt = true
			r, err := execute(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.corrupted == 0 || r.failed < r.corrupted {
				t.Fatalf("%d of %d corrupted answers passed every check:\n%s", r.corrupted-r.failed, r.corrupted, strings.Join(r.lines, "\n"))
			}
		})
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"--workload", "nope", "--workdir", t.TempDir()}, &out); code == 0 {
		t.Fatalf("unknown workload exited 0:\n%s", out.String())
	}
}
