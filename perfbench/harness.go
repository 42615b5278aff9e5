package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"datalaws"
	"datalaws/internal/table"
)

// config is one benchmark run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies every data size; 1 is the documented size, the
	// smoke test runs a small fraction.
	scale float64
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// workdir holds the run's temporary data directory and trace file.
	workdir string
	commit  string
	// corrupt falsifies recorded answers before the checks run, to
	// prove that a wrong answer is caught.
	corrupt bool
}

// scaled returns n·scale, at least min.
func (c *config) scaled(n, min int) int {
	v := int(float64(n) * c.scale)
	if v < min {
		return min
	}
	return v
}

// op is one client operation, chosen before it is timed.
type op struct {
	class int
	key   int64   // group key or range start
	key2  int64   // range end
	x     float64 // model input
	text  string  // ad-hoc SQL or an INSERT batch
	n     int     // rows an INSERT carries
}

// session is one closed-loop client: next picks the next operation from the
// session's seeded stream, do runs it and blocks until the reply arrived.
type session interface {
	next(rng *rand.Rand) op
	do(o op) (rows int, err error)
}

// Operation classes. Each workload runs a subset; classNames names them
// in spans and report lines.
const (
	classPoint     = iota // prepared APPROX point query
	classAdhoc            // APPROX point query as text with literals
	classModelScan        // APPROX range aggregate, answered by a model scan
	classRange            // prepared exact range aggregate
	classGroupBy          // exact full GROUP BY
	classStream           // exact projection pulled through a cursor
	classInsert           // multi-row INSERT text
)

var classNames = []string{"approx_point", "approx_adhoc", "approx_scan", "range_agg", "groupby", "stream", "insert"}

// The operation mix follows cmd/loadgen, the repository's one statement of
// traffic, where it can: per hundred operations, 70 selective reads, 10
// scans and 20 writes. Each workload keeps the shares of the classes it has:
//
//   - approx-point does not write: per 8 operations, 7 point queries (one
//     of them ad-hoc text) and 1 model scan;
//   - ingest-refit does not scan: per 9 operations, 7 point queries and 2
//     INSERTs.
//
// exact-scan departs from it: one session runs range aggregates and the
// other full scans, which comes to about 97 : 3 by count and half the time
// each. At loadgen's 7 : 1 the 2M-row scans filled nine tenths of both
// sessions' time, and the range aggregate's p99, a few samples from a tail
// spread over 20–60 ms by waits behind the scans' workers, moved by a
// third from run to run. The ad-hoc share of approx-point's point queries
// and every exact-scan share are assumptions, not in loadgen.

// share is how many operations of a class one mix cycle holds.
type share struct{ class, n int }

// mix deals operation classes in cycles. Each cycle holds every class as
// many times as its share, in an order shuffled per cycle: the mix is
// exact over every cycle, and two sessions' heavy operations do not lock
// into step, as they do in a fixed order.
type mix struct {
	deck []int
	pos  int
}

func newMix(shares ...share) *mix {
	m := &mix{}
	for _, s := range shares {
		for i := 0; i < s.n; i++ {
			m.deck = append(m.deck, s.class)
		}
	}
	return m
}

// next returns the class of the next operation.
func (m *mix) next(rng *rand.Rand) int {
	if m.pos == 0 {
		rng.Shuffle(len(m.deck), func(i, j int) { m.deck[i], m.deck[j] = m.deck[j], m.deck[i] })
	}
	c := m.deck[m.pos]
	m.pos = (m.pos + 1) % len(m.deck)
	return c
}

// sample is one timed operation.
type sample struct {
	o    op
	req  int64 // trace id; 0 when untraced
	dur  time.Duration
	rows int
	err  bool
}

// phase is one closed-loop measurement window, or several merged.
type phase struct {
	wall    time.Duration
	samples []sample
	delta   counters // counter increase over the window
}

// runPhase drives every session in a closed loop for d, drawing operations
// from the session's own random stream, and returns what they did. With a
// tracer, each client call is recorded as a span.
func runPhase(sessions []session, rngs []*rand.Rand, d time.Duration, snap func() counters, tr *tracer) phase {
	out := make([][]sample, len(sessions))
	before := snap()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s session) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o := s.next(rngs[i])
				t0 := time.Now()
				rows, err := s.do(o)
				t1 := time.Now()
				var req int64
				if tr != nil {
					req = tr.record(0, "", "client."+classNames[o.class], t0, t1)
				}
				out[i] = append(out[i], sample{o: o, req: req, dur: t1.Sub(t0), rows: rows, err: err != nil})
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", classNames[o.class], err)
				}
			}
		}(i, s)
	}
	wg.Wait()
	p := phase{wall: time.Since(start), delta: snap().sub(before)}
	for _, ss := range out {
		p.samples = append(p.samples, ss...)
	}
	return p
}

// sessionRNGs gives each session its own random stream, derived from the
// run's seed, so the same seed replays the same operations.
func sessionRNGs(seed int64, n int) []*rand.Rand {
	rngs := make([]*rand.Rand, n)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(seed*7919 + int64(i)))
	}
	return rngs
}

// merge appends q's window to p's.
func (p *phase) merge(q phase) {
	p.wall += q.wall
	p.samples = append(p.samples, q.samples...)
	for i := range p.delta {
		p.delta[i] += q.delta[i]
	}
}

// durations returns the latencies of one class in microseconds.
func (p *phase) durations(class int) []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.o.class == class {
			out = append(out, float64(s.dur)/1e3)
		}
	}
	return out
}

// rows sums the rows returned by one class.
func (p *phase) rows(class int) int {
	n := 0
	for _, s := range p.samples {
		if s.o.class == class {
			n += s.rows
		}
	}
	return n
}

// count returns the number of operations of one class.
func (p *phase) count(class int) int {
	n := 0
	for _, s := range p.samples {
		if s.o.class == class {
			n++
		}
	}
	return n
}

func (p *phase) errors() int {
	n := 0
	for _, s := range p.samples {
		if s.err {
			n++
		}
	}
	return n
}

func (p *phase) opsPerSec() float64 { return float64(len(p.samples)) / p.wall.Seconds() }

// quantile returns the q-quantile of vals by nearest rank (vals unsorted).
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// Indexes into counters.
const (
	cClientBytes    = iota // client connections: bytes read and written
	cClientWrites          // client connections: Write calls
	cFeedBytes             // replica feed connections: bytes read and written
	cFSBytes               // bytes written through the counting wal.FS
	cFSSyncs               // File.Sync calls
	cFSSyncNanos           // time inside File.Sync
	cMallocs               // heap allocations
	cCacheHits             // decoded-chunk cache hits
	cCacheMisses           // decoded-chunk cache misses
	cCacheEvictions        // decoded-chunk cache evictions
	cAQPHits               // aqp.Cache hits
	cAQPMisses             // aqp.Cache misses
	cWALRecords            // WAL records appended
	cWALSyncs              // WAL fsyncs
	numCounters
)

// counters is a snapshot of every counter the benchmark reads; a phase
// keeps the difference of two snapshots.
type counters [numCounters]float64

func (c counters) sub(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

// snapshotter reads the counters of one system under test; any of its
// parts may be nil.
type snapshotter struct {
	ln  *countingListener
	fs  *fsStats
	eng *datalaws.Engine
}

// gcCPU reads the runtime's GC and total CPU seconds. The runtime brings
// both up to date only when a GC cycle ends, so a difference of two reads
// is exact only if a cycle ended just before each.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func (s snapshotter) snap() counters {
	var c counters
	if s.ln != nil {
		cl, feed := s.ln.stats(roleClient), s.ln.stats(roleFeed)
		c[cClientBytes] = float64(cl.read.Load() + cl.written.Load())
		c[cClientWrites] = float64(cl.writes.Load())
		c[cFeedBytes] = float64(feed.read.Load() + feed.written.Load())
	}
	if s.fs != nil {
		c[cFSBytes] = float64(s.fs.written.Load())
		c[cFSSyncs] = float64(s.fs.syncs.Load())
		c[cFSSyncNanos] = float64(s.fs.syncNanos.Load())
	}
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(allocs)
	c[cMallocs] = float64(allocs[0].Value.Uint64())
	cache := table.CacheStats()
	c[cCacheHits], c[cCacheMisses], c[cCacheEvictions] = float64(cache.Hits), float64(cache.Misses), float64(cache.Evictions)
	if s.eng != nil {
		hits, misses := s.eng.AQP.Cache.Stats()
		c[cAQPHits], c[cAQPMisses] = float64(hits), float64(misses)
		if st, ok := s.eng.WALStats(); ok {
			c[cWALRecords], c[cWALSyncs] = float64(st.Records), float64(st.Syncs)
		}
	}
	return c
}

const (
	roleClient = "client"
	roleFeed   = "feed"
)

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	req   int64
}

// span is one timed call into a layer. Spans of one operation share Req;
// a probe span's Parent names the client call it replays.
type span struct {
	Req    int64  `json:"req"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record keeps one span; req 0 opens a new operation. It returns the
// operation's id.
func (t *tracer) record(req int64, parent, name string, start, end time.Time) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if req == 0 {
		t.req++
		req = t.req
	}
	t.spans = append(t.spans, span{Req: req, Parent: parent, Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return req
}

// time runs f and records it as a child span of req.
func (t *tracer) time(req int64, parent, name string, f func() error) error {
	t0 := time.Now()
	err := f()
	t.record(req, parent, name, t0, time.Now())
	return err
}

// durations returns the durations of every span called name, in µs.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	return f.Close()
}

// probeBudget bounds each in-process replay loop of the traced run.
const probeBudget = 400 * time.Millisecond

// replay calls f on the phase's operations of class, in order, until the
// budget is spent, recording each call as a child span of the client call
// it replays.
func replay(tr *tracer, p *phase, class int, name string, f func(o op) error) error {
	deadline := time.Now().Add(probeBudget)
	for _, s := range p.samples {
		if s.o.class != class {
			continue
		}
		if err := tr.time(s.req, "client."+classNames[class], name, func() error { return f(s.o) }); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if time.Now().After(deadline) {
			break
		}
	}
	return nil
}

// repeat calls f until the budget is spent (at least once, at most n
// times), recording each call as a span named name.
func repeat(tr *tracer, n int, name string, f func(i int) error) error {
	deadline := time.Now().Add(probeBudget)
	for i := 0; i < n; i++ {
		if err := tr.time(0, "", name, func() error { return f(i) }); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if time.Now().After(deadline) {
			break
		}
	}
	return nil
}
