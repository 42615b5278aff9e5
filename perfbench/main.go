// Command perfbench is the repository's end-to-end benchmark. Each run boots
// the real engine and network server on loopback, drives them with seeded
// closed-loop client sessions, checks every answer, and prints its metrics
// by name with units. The last line of standard output is one JSON object:
// the end-to-end metrics, or with --trace 1 the per-layer metrics.
//
//	bash perfbench/run.sh --workload approx-point --seed 1 --seconds 15 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"datalaws/internal/sql"
	"datalaws/internal/table"
)

// Metric names, in the order BENCHMARK.json lists them.
var endToEndNames = []string{"setup_s", "ops_per_s", "heap_mb", "query_p50_us", "query_p99_us", "bulk_p50_ms"}

var perLayerNames = []string{
	"server.wire_us", "server.bytes_per_op", "server.writes_per_op", "server.stream_bytes_per_row",
	"datalaws.stmt_exec_us", "datalaws.adhoc_exec_us", "sql.parse_us",
	"exec.range_agg_us", "exec.groupby_ms",
	"table.survivors_us", "table.survivor_frac", "table.decode_us_per_chunk",
	"process.allocs_per_op", "process.gc_cpu_frac", "bench.trace_overhead",
}

var workloadNames = []string{"approx-point", "exact-scan", "ingest-refit"}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := config{scale: 1, setups: numSetups}
	fl.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fl.Int64Var(&cfg.seed, "seed", 1, "seed of the generated data and operation streams")
	fl.Float64Var(&cfg.seconds, "seconds", 15, "length of one measured load phase")
	trace := fl.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	fl.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for the run's data directory and trace")
	fl.StringVar(&cfg.commit, "commit", "unknown", "commit stamped on the result")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace != 0
	r, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	r.print(stdout, cfg)
	return 0
}

// bench is one workload's system under test.
type bench interface {
	// setup builds the system in dir from the generated data and boots its
	// server; it is what setup_s times.
	setup(dir string) error
	// teardown stops everything setup started.
	teardown()
	// sessions dials the client sessions and prepares their statements.
	sessions() ([]session, error)
	counters() snapshotter
	// endToEnd reports the metrics of the untraced load phase.
	endToEnd(r *report, p *phase)
	// layers runs the in-process probes of the traced run and reports the
	// per-layer metrics.
	layers(r *report, p *phase, tr *tracer) error
	// afterLoad runs once the load has stopped; it may add checks.
	afterLoad(r *report) error
	// verify checks every recorded answer.
	verify(r *report)
	// corrupt falsifies recorded answers, each in a different way, and
	// returns how many.
	corrupt() int
}

func newBench(cfg *config) (bench, error) {
	switch cfg.workload {
	case "approx-point":
		return newApproxBench(cfg), nil
	case "exact-scan":
		return newScanBench(cfg), nil
	case "ingest-refit":
		return newIngestBench(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
}

// numSetups is how many times a run sets the system up; setup_s is their
// median.
const numSetups = 7

// traceSlices is how many slices the traced run's window is cut into;
// a multiple of four completes the U T T U pattern.
const traceSlices = 20

// execute runs one workload in this process and builds its report.
func execute(cfg config) (*report, error) {
	if cfg.seconds <= 0 || cfg.setups < 1 || cfg.scale <= 0 {
		return nil, errors.New("--seconds, set-ups and scale must be positive")
	}
	b, err := newBench(&cfg)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	r := newReport()
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if i > 0 {
			b.teardown()
			// The process-wide decoded-chunk cache keeps chunks of the torn
			// down tables alive until evicted; empty it so each set-up
			// starts as a fresh process would and heap_mb counts only
			// the live system.
			budget := table.CacheStats().Budget
			table.SetChunkCacheBudget(0)
			table.SetChunkCacheBudget(budget)
		}
		dir := filepath.Join(tmp, fmt.Sprintf("setup-%d", i))
		t0 := time.Now()
		if err := b.setup(dir); err != nil {
			b.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer b.teardown()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("setup_s", median(setups), "s")
	r.set("heap_mb", float64(ms.HeapAlloc)/1e6, "MB")

	sessions, err := b.sessions()
	if err != nil {
		return nil, fmt.Errorf("sessions: %w", err)
	}
	snap := b.counters().snap
	rngs := sessionRNGs(cfg.seed, len(sessions))
	d := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		plain := runPhase(sessions, rngs, d, snap, nil)
		r.attempted += len(plain.samples)
		r.failed += plain.errors()
		b.endToEnd(r, &plain)
	} else {
		// The traced run interleaves traced and untraced slices of the
		// same operation streams, in the order U T T U U T T U …, so state
		// that drifts during the run (a growing table) weighs both sides
		// alike and cancels out of the overhead.
		tr := newTracer()
		var traced, plain phase
		// GC CPU is taken over the whole window, traced and untraced
		// slices alike, between two forced collections outside the
		// slices: the runtime updates its CPU classes only when a cycle
		// ends, so per-slice differences would count whole GC-to-GC
		// intervals that do not line up with the slices.
		runtime.GC()
		gc0, total0 := gcCPU()
		for i := 0; i < traceSlices; i++ {
			on := i%4 == 1 || i%4 == 2
			t := tr
			if !on {
				t = nil
			}
			p := runPhase(sessions, rngs, d/traceSlices, snap, t)
			r.attempted += len(p.samples)
			r.failed += p.errors()
			if on {
				traced.merge(p)
			} else {
				plain.merge(p)
			}
		}
		runtime.GC()
		gc1, total1 := gcCPU()
		if total1 <= total0 {
			return nil, errors.New("traced run: the runtime reported no CPU time")
		}
		r.layer("process.gc_cpu_frac", (gc1-gc0)/(total1-total0), "ratio")
		r.layer("bench.trace_overhead", plain.opsPerSec()/traced.opsPerSec(), "ratio")
		r.detail("traced.ops_per_s", traced.opsPerSec(), "op/s", len(traced.samples))
		r.detail("untraced.ops_per_s", plain.opsPerSec(), "op/s", len(plain.samples))
		commonLayers(r, &traced)
		if err := b.layers(r, &traced, tr); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		path := filepath.Join(cfg.workdir, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		r.lines = append(r.lines, "trace "+path)
	}
	if err := b.afterLoad(r); err != nil {
		return nil, fmt.Errorf("after load: %w", err)
	}
	if cfg.corrupt {
		r.corrupted = b.corrupt()
	}
	b.verify(r)
	return r, nil
}

// commonLayers reports the per-layer metrics every workload derives from
// counters alone.
func commonLayers(r *report, p *phase) {
	ops := float64(len(p.samples))
	rows := 0
	for _, s := range p.samples {
		rows += s.rows
	}
	bytes := p.delta[cClientBytes]
	r.layer("server.bytes_per_op", bytes/ops, "bytes")
	r.layer("server.writes_per_op", p.delta[cClientWrites]/ops, "count")
	r.layer("server.stream_bytes_per_row", bytes/float64(max(rows, 1)), "bytes")
	r.layer("process.allocs_per_op", p.delta[cMallocs]/ops, "count")
}

// queryLayers reports the per-layer metrics of the workload's selective
// query class: the same operations replayed in process, through the
// prepared statement, as ad-hoc text, and through the parser alone.
func queryLayers(r *report, p *phase, tr *tracer, class int, exec func(o op) error, adhoc func(o op) error, text func(o op) string) error {
	if err := replay(tr, p, class, "datalaws.stmt_exec", exec); err != nil {
		return err
	}
	if err := replay(tr, p, class, "datalaws.adhoc_exec", adhoc); err != nil {
		return err
	}
	if err := replay(tr, p, class, "sql.parse", func(o op) error {
		_, err := sql.Parse(text(o))
		return err
	}); err != nil {
		return err
	}
	stmt := median(tr.durations("datalaws.stmt_exec"))
	r.layer("datalaws.stmt_exec_us", stmt, "us")
	r.layer("server.wire_us", median(p.durations(class))-stmt, "us")
	r.layer("datalaws.adhoc_exec_us", median(tr.durations("datalaws.adhoc_exec")), "us")
	r.layer("sql.parse_us", median(tr.durations("sql.parse")), "us")
	return nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, checks and human-readable lines.
type report struct {
	lines     []string
	e2e       map[string]metric
	layers    map[string]metric
	attempted int
	failed    int
	// corrupted is how many answers were falsified on purpose.
	corrupted int
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layers: map[string]metric{}}
}

// set records an end-to-end metric.
func (r *report) set(name string, v float64, unit string) {
	r.e2e[name] = metric{v, unit}
	r.lines = append(r.lines, fmt.Sprintf("metric %s %.6g %s", name, v, unit))
}

// layer records a per-layer metric.
func (r *report) layer(name string, v float64, unit string) {
	r.layers[name] = metric{v, unit}
	r.lines = append(r.lines, fmt.Sprintf("layer %s %.6g %s", name, v, unit))
}

// detail prints a workload-specific number that no gate reads.
func (r *report) detail(name string, v float64, unit string, n int) {
	r.lines = append(r.lines, fmt.Sprintf("detail %s %.6g %s n=%d", name, v, unit, n))
}

// latency prints the median and p99 of one class with its sample count.
func (r *report) latency(name string, us []float64, scale float64, unit string) {
	r.detail(name+"_p50_"+unit, median(us)/scale, unit, len(us))
	r.detail(name+"_p99_"+unit, quantile(us, 0.99)/scale, unit, len(us))
}

// check records one correctness check; a failed one counts in failed.
func (r *report) check(name string, ok bool, format string, args ...any) {
	r.attempted++
	status := "ok"
	if !ok {
		r.failed++
		status = "FAIL"
	}
	r.lines = append(r.lines, fmt.Sprintf("check %s %s %s", name, status, fmt.Sprintf(format, args...)))
}

// answers records the outcome of checking n recorded answers, wrong of
// which were wrong; the operations themselves are already attempted.
func (r *report) answers(name string, n, wrong int, firstBad string) {
	r.failed += wrong
	status := "ok"
	if wrong > 0 || n == 0 {
		status = "FAIL"
	}
	if n == 0 {
		r.attempted++
		r.failed++
	}
	line := fmt.Sprintf("check %s %s %d answers, %d wrong", name, status, n, wrong)
	if firstBad != "" {
		line += "; first: " + firstBad
	}
	r.lines = append(r.lines, line)
}

func (r *report) print(w io.Writer, cfg config) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%v scale=%g\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.scale)
	fmt.Fprintf(w, "stamp nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s source=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), cfg.commit, sourceHash())
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	fmt.Fprintf(w, "summary attempted=%d failed=%d failed_frac=%.6g\n", r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	names, from := endToEndNames, r.e2e
	if cfg.trace {
		names, from = perLayerNames, r.layers
	}
	out := map[string]metric{}
	for _, n := range names {
		m, ok := from[n]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// A metric the run could not measure makes the result unusable.
			r.failed++
			fmt.Fprintf(w, "missing metric %s\n", n)
			continue
		}
		out[n] = m
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, max(r.attempted, 1), r.failed, out})
	fmt.Fprintln(w, string(line))
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" when
// unavailable).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash fingerprints the Go sources under the working directory (the
// repository root), so a result identifies the code even where no commit
// is known.
func sourceHash() string {
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
