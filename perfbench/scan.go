package main

import (
	"context"
	"fmt"
	"math/rand"

	"datalaws"
	"datalaws/internal/expr"
	"datalaws/internal/server"
)

const (
	scanCreate = "CREATE TABLE pts (k BIGINT, g BIGINT, v DOUBLE)"
	rangeSQL   = "SELECT count(*), sum(k), sum(v) FROM pts WHERE k >= ? AND k < ?"
	groupSQL   = "SELECT g, count(*), sum(v) FROM pts GROUP BY g"
	streamSQL  = "SELECT k, v FROM pts WHERE k >= ? AND k < ?"
)

func rangeText(a, b int64) string {
	return fmt.Sprintf("SELECT count(*), sum(k), sum(v) FROM pts WHERE k >= %d AND k < %d", a, b)
}

// scanData is the exact-scan table as closed forms of the row index i:
// k = i, g = (i + gOff) mod scanGroups, v = ((i·scanMul + vOff) mod 1000) / 4.
// The seed picks only the offsets, so every seed's table has the same
// shape and compresses alike. Every v is a multiple of 1/4, so sums are
// exact in float64 and answers compare exactly.
type scanData struct {
	rows       int
	gOff, vOff int64
	prefix     []float64 // prefix[i] = Σ v over rows < i
	gCount     []int64
	gSum       []float64
}

const (
	scanGroups = 128
	scanMul    = 337
)

func (d *scanData) g(i int64) int64   { return (i + d.gOff) % scanGroups }
func (d *scanData) v(i int64) float64 { return float64((i*scanMul+d.vOff)%1000) / 4 }

func newScanData(rows int, seed int64) *scanData {
	rng := rand.New(rand.NewSource(seed))
	d := &scanData{rows: rows, gOff: rng.Int63n(scanGroups), vOff: rng.Int63n(1000)}
	d.prefix = make([]float64, rows+1)
	d.gCount = make([]int64, scanGroups)
	d.gSum = make([]float64, scanGroups)
	for i := int64(0); i < int64(rows); i++ {
		v := d.v(i)
		d.prefix[i+1] = d.prefix[i] + v
		d.gCount[d.g(i)]++
		d.gSum[d.g(i)] += v
	}
	return d
}

// rangeWant is the closed form of rangeSQL over [a, b).
func (d *scanData) rangeWant(a, b int64) (count, sumK, sumV float64) {
	n := b - a
	return float64(n), float64((a + b - 1) * n / 2), d.prefix[b] - d.prefix[a]
}

// scanBench is the exact-scan workload: a table of sealed chunks larger
// than the decoded-chunk cache, queried exactly.
type scanBench struct {
	data   *scanData
	stream int64 // rows one cursor projection pulls

	eng  *datalaws.Engine
	srv  *server.Server
	ln   *countingListener
	sess []*scanSession
}

type scanSession struct {
	b       *scanBench
	c       *server.Client
	rng     *server.Stmt
	stream  *server.Stmt
	mix     *mix
	ranges  []rangeAnswer
	groups  []map[int64][2]float64
	streams []streamAnswer
}

type rangeAnswer struct {
	a, b             int64
	count, sumK, sum float64
}

// streamAnswer is checked while the rows arrive, in whatever order the
// parallel scan delivers them: rows counts them, sumK and sumK2 (mod 2^64)
// fingerprint which keys came, bad counts rows whose v broke the closed
// form.
type streamAnswer struct {
	a, b        int64
	rows, bad   int64
	sumK, sumK2 uint64
	first       string
}

// want fingerprints the keys [a, b) the way do accumulates them.
func (a streamAnswer) want() (sumK, sumK2 uint64) {
	for k := uint64(a.a); k < uint64(a.b); k++ {
		sumK += k
		sumK2 += k * k
	}
	return sumK, sumK2
}

func newScanBench(cfg *config) *scanBench {
	rows := cfg.scaled(1<<21, 4096)
	return &scanBench{data: newScanData(rows, cfg.seed), stream: int64(cfg.scaled(100_000, 1000))}
}

// loadBatch is the number of rows per Engine.Append call while loading.
const loadBatch = 16384

func (b *scanBench) setup(string) error {
	eng := datalaws.NewEngine()
	b.eng = eng
	if _, err := eng.Exec(scanCreate); err != nil {
		return err
	}
	// A third of the decoded table: the working set outgrows the cache.
	eng.SetChunkCacheBudget(int64(b.data.rows) * 24 / 3)
	batch := make([][]expr.Value, loadBatch)
	vals := make([]expr.Value, 3*loadBatch)
	for start := 0; start < b.data.rows; start += loadBatch {
		n := min(loadBatch, b.data.rows-start)
		for j := 0; j < n; j++ {
			i := int64(start + j)
			row := vals[3*j : 3*j+3 : 3*j+3]
			row[0], row[1], row[2] = expr.Int(i), expr.Int(b.data.g(i)), expr.Float(b.data.v(i))
			batch[j] = row
		}
		if _, err := eng.Append("pts", batch[:n]); err != nil {
			return err
		}
	}
	var err error
	b.srv, b.ln, err = boot(eng, roleClient)
	return err
}

func (b *scanBench) teardown() {
	for _, s := range b.sess {
		_ = s.c.Close()
	}
	b.sess = nil
	if b.srv != nil {
		_ = b.srv.Close()
		b.srv = nil
	}
}

func (b *scanBench) sessions() ([]session, error) {
	cs, err := dial(b.srv, b.ln, 2)
	if err != nil {
		return nil, err
	}
	var out []session
	// One session runs range aggregates, the other full GROUP BYs and
	// cursor projections in turn (see share).
	mixes := []*mix{newMix(share{classRange, 1}), newMix(share{classGroupBy, 1}, share{classStream, 1})}
	for i, c := range cs {
		s := &scanSession{b: b, c: c, mix: mixes[i]}
		b.sess = append(b.sess, s)
		if s.rng, err = c.Prepare(rangeSQL); err != nil {
			return nil, err
		}
		if s.stream, err = c.Prepare(streamSQL); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (b *scanBench) counters() snapshotter { return snapshotter{ln: b.ln, eng: b.eng} }

// next deals the session's next operation: a range aggregate over 1k–16k
// rows (one or two chunks), a full GROUP BY or a cursor projection.
func (s *scanSession) next(rng *rand.Rand) op {
	n := int64(s.b.data.rows)
	switch s.mix.next(rng) {
	case classGroupBy:
		return op{class: classGroupBy}
	case classStream:
		w := min(n, s.b.stream)
		a := rng.Int63n(n - w + 1)
		return op{class: classStream, key: a, key2: a + w}
	}
	w := min(n, 1000+rng.Int63n(15385))
	a := rng.Int63n(n - w + 1)
	return op{class: classRange, key: a, key2: a + w}
}

func (s *scanSession) do(o op) (int, error) {
	switch o.class {
	case classRange:
		rows, err := s.rng.Query(o.key, o.key2)
		if err != nil {
			return 0, err
		}
		ans := rangeAnswer{a: o.key, b: o.key2}
		n := 0
		for rows.Next() {
			n++
			if err := rows.Scan(&ans.count, &ans.sumK, &ans.sum); err != nil {
				_ = rows.Close()
				return n, err
			}
		}
		if err := rows.Err(); err != nil {
			_ = rows.Close()
			return n, err
		}
		s.ranges = append(s.ranges, ans)
		return n, rows.Close()
	case classGroupBy:
		rows, err := s.c.Query(groupSQL)
		if err != nil {
			return 0, err
		}
		got := map[int64][2]float64{}
		for rows.Next() {
			var g int64
			var cnt, sum float64
			if err := rows.Scan(&g, &cnt, &sum); err != nil {
				_ = rows.Close()
				return len(got), err
			}
			got[g] = [2]float64{cnt, sum}
		}
		if err := rows.Err(); err != nil {
			_ = rows.Close()
			return len(got), err
		}
		s.groups = append(s.groups, got)
		return len(got), rows.Close()
	default:
		rows, err := s.stream.Query(o.key, o.key2)
		if err != nil {
			return 0, err
		}
		ans := streamAnswer{a: o.key, b: o.key2}
		for rows.Next() {
			var k int64
			var v float64
			if err := rows.Scan(&k, &v); err != nil {
				_ = rows.Close()
				return int(ans.rows), err
			}
			if k < o.key || k >= o.key2 || v != s.b.data.v(k) {
				if ans.bad++; ans.first == "" {
					ans.first = fmt.Sprintf("[%d,%d): got row (%d, %g)", o.key, o.key2, k, v)
				}
			}
			ans.rows++
			ans.sumK += uint64(k)
			ans.sumK2 += uint64(k) * uint64(k)
		}
		if err := rows.Err(); err != nil {
			_ = rows.Close()
			return int(ans.rows), err
		}
		s.streams = append(s.streams, ans)
		return int(ans.rows), rows.Close()
	}
}

func (b *scanBench) endToEnd(r *report, p *phase) {
	commonEndToEnd(r, p, classRange, classGroupBy)
	r.latency("exact", p.durations(classRange), 1e3, "ms")
	if gb := p.durations(classGroupBy); len(gb) > 0 {
		r.detail("scan_rows_per_s", float64(b.data.rows*len(gb))/(sum(gb)/1e6), "rows/s", len(gb))
	}
	if st := p.durations(classStream); len(st) > 0 {
		r.detail("stream_rows_per_s", float64(p.rows(classStream))/(sum(st)/1e6), "rows/s", len(st))
	}
}

func sum(vals []float64) float64 {
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s
}

func (b *scanBench) layers(r *report, p *phase, tr *tracer) error {
	ctx := context.Background()
	st, err := b.eng.Prepare(rangeSQL)
	if err != nil {
		return err
	}
	if err := queryLayers(r, p, tr, classRange,
		func(o op) error { _, err := st.Exec(ctx, o.key, o.key2); return err },
		func(o op) error { _, err := b.eng.ExecContext(ctx, rangeText(o.key, o.key2)); return err },
		func(o op) string { return rangeText(o.key, o.key2) }); err != nil {
		return err
	}
	hits, misses := p.delta[cCacheHits], p.delta[cCacheMisses]
	r.detail("table.cache_hit_ratio", hits/max(hits+misses, 1), "ratio", int(hits+misses))
	r.detail("table.evictions_per_op", p.delta[cCacheEvictions]/float64(len(p.samples)), "count", len(p.samples))
	var ranges []string
	for _, s := range p.samples {
		if s.o.class == classRange {
			ranges = append(ranges, rangeText(s.o.key, s.o.key2))
		}
	}
	return tableLayers(r, tr, b.eng, "pts", ranges, groupSQL)
}

func (b *scanBench) afterLoad(*report) error { return nil }

func (b *scanBench) verify(r *report) {
	n, wrong, first := 0, 0, ""
	fail := func(msg string) {
		wrong++
		if first == "" {
			first = msg
		}
	}
	for _, s := range b.sess {
		for _, a := range s.ranges {
			n++
			c, k, v := b.data.rangeWant(a.a, a.b)
			if a.count != c || a.sumK != k || a.sum != v {
				fail(fmt.Sprintf("[%d,%d): got (%g, %g, %g), want (%g, %g, %g)", a.a, a.b, a.count, a.sumK, a.sum, c, k, v))
			}
		}
	}
	r.answers("range_agg_answers", n, wrong, first)

	n, wrong, first = 0, 0, ""
	for _, s := range b.sess {
		for _, got := range s.groups {
			n++
			if len(got) != scanGroups {
				fail(fmt.Sprintf("%d groups, want %d", len(got), scanGroups))
				continue
			}
			for g := int64(0); g < scanGroups; g++ {
				if cs := got[g]; cs[0] != float64(b.data.gCount[g]) || cs[1] != b.data.gSum[g] {
					fail(fmt.Sprintf("group %d: got (%g, %g), want (%d, %g)", g, cs[0], cs[1], b.data.gCount[g], b.data.gSum[g]))
					break
				}
			}
		}
	}
	r.answers("groupby_answers", n, wrong, first)

	n, wrong, first = 0, 0, ""
	for _, s := range b.sess {
		for _, a := range s.streams {
			n++
			sk, sk2 := a.want()
			if a.bad > 0 {
				fail(a.first)
			} else if a.rows != a.b-a.a || a.sumK != sk || a.sumK2 != sk2 {
				fail(fmt.Sprintf("[%d,%d): %d rows with other keys, want %d", a.a, a.b, a.rows, a.b-a.a))
			}
		}
	}
	r.answers("stream_answers", n, wrong, first)
}

func (b *scanBench) corrupt() int {
	for _, s := range b.sess {
		if len(s.ranges) > 0 {
			s.ranges[0].sum += 0.25
			return 1
		}
	}
	return 0
}
