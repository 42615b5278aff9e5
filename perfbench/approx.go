package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"datalaws"
	"datalaws/internal/aqp"
	"datalaws/internal/expr"
	"datalaws/internal/modelstore"
	"datalaws/internal/server"
	"datalaws/internal/sql"
	"datalaws/internal/synth"
)

// The LOFAR-shaped schema, law and queries shared by approx-point and
// ingest-refit.
const (
	lofarCreate = "CREATE TABLE measurements (source BIGINT, nu DOUBLE, intensity DOUBLE)"
	lofarFit    = `FIT MODEL spectra ON measurements AS 'intensity ~ p * pow(nu, alpha)'
		INPUTS (nu) GROUP BY source START (p = 1, alpha = -1)`
	pointSQL = "APPROX SELECT intensity, intensity_lo, intensity_hi FROM measurements WHERE source = ? AND nu = ? WITH ERROR"
	// scanSQL aggregates a range of sources; range predicates are not
	// pushed into the grid, so it runs a model scan.
	scanSQL    = "APPROX SELECT source, count(*), avg(intensity) FROM measurements WHERE source >= ? AND source < ? GROUP BY source ORDER BY source"
	lofarGroup = "SELECT source, count(*), avg(intensity) FROM measurements GROUP BY source"
	level      = 0.95
)

// lofarNoise is the generated data's multiplicative noise, the generator's
// default.
var lofarNoise = synth.DefaultLOFAR().NoiseFrac

func adhocPointSQL(key int64, nu float64) string {
	return fmt.Sprintf("APPROX SELECT intensity, intensity_lo, intensity_hi FROM measurements WHERE source = %d AND nu = %s WITH ERROR",
		key, strconv.FormatFloat(nu, 'g', -1, 64))
}

func exactRangeSQL(a, b int64) string {
	return fmt.Sprintf("SELECT count(*), avg(intensity) FROM measurements WHERE source >= %d AND source < %d", a, b)
}

// lofarRows turns generated measurements into engine rows.
func lofarRows(d *synth.LOFARData) [][]expr.Value {
	rows := make([][]expr.Value, d.NumRows())
	for i := range rows {
		rows[i] = []expr.Value{expr.Int(d.Source[i]), expr.Float(d.Nu[i]), expr.Float(d.Intensity[i])}
	}
	return rows
}

// loadLOFAR creates the measurements table on eng, loads rows and fits
// the spectra law.
func loadLOFAR(eng *datalaws.Engine, rows [][]expr.Value) (*modelstore.CapturedModel, error) {
	if _, err := eng.Exec(lofarCreate); err != nil {
		return nil, err
	}
	if _, err := eng.Append("measurements", rows); err != nil {
		return nil, err
	}
	if _, err := eng.Exec(lofarFit); err != nil {
		return nil, err
	}
	m, ok := eng.Models.Get("spectra")
	if !ok {
		return nil, fmt.Errorf("model spectra missing after FIT")
	}
	return m, nil
}

// pointAnswer is one APPROX point answer as the client received it.
type pointAnswer struct {
	key           int64
	nu            float64
	version       int
	inflate       float64
	value, lo, hi float64
	rows          int
}

// queryPoint runs a point query (prepared when st is non-nil) and records
// the answer.
func queryPoint(c *server.Client, st *server.Stmt, o op) (pointAnswer, error) {
	a := pointAnswer{key: o.key, nu: o.x}
	var rows *server.Rows
	var err error
	if st != nil {
		rows, err = st.Query(o.key, o.x)
	} else {
		rows, err = c.Query(o.text)
	}
	if err != nil {
		return a, err
	}
	a.version, a.inflate = rows.ModelVersion, rows.SEInflation
	for rows.Next() {
		a.rows++
		if err := rows.Scan(&a.value, &a.lo, &a.hi); err != nil {
			_ = rows.Close()
			return a, err
		}
	}
	if err := rows.Err(); err != nil {
		_ = rows.Close()
		return a, err
	}
	return a, rows.Close()
}

// checkPoint compares a wire answer with aqp.PointLookup on the model
// version that produced it, with the interval widened by the staleness
// inflation the answer reports; it returns "" when they agree. The
// reported inflation must lie in [1, maxInflate], so an answer cannot pass
// by widening its interval and reporting the widening.
func checkPoint(m *modelstore.CapturedModel, a pointAnswer, maxInflate float64) string {
	if m == nil {
		return fmt.Sprintf("source %d: no model version %d", a.key, a.version)
	}
	if a.inflate < 1 || a.inflate > maxInflate {
		return fmt.Sprintf("source %d nu %g v%d: interval inflated by %g, want 1 to %g", a.key, a.nu, a.version, a.inflate, maxInflate)
	}
	v, lo, hi, err := aqp.PointLookupScaled(m, a.key, []float64{a.nu}, level, a.inflate)
	if err != nil {
		return fmt.Sprintf("source %d nu %g: %v", a.key, a.nu, err)
	}
	if a.rows != 1 || !near(a.value, v) || !near(a.lo, lo) || !near(a.hi, hi) {
		return fmt.Sprintf("source %d nu %g v%d: got %d rows (%g [%g, %g]), want (%g [%g, %g])",
			a.key, a.nu, a.version, a.rows, a.value, a.lo, a.hi, v, lo, hi)
	}
	return ""
}

// near reports whether a and b agree to 1e-9 relative.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// eligibleKeys lists the sources a query may name: fitted with finite
// intervals and, where the truth is known, following the law.
func eligibleKeys(m *modelstore.CapturedModel, truth map[int64]synth.SourceTruth) []int64 {
	var keys []int64
	for _, k := range m.Order {
		g := m.Groups[k]
		if g.OK() && g.Cov != nil && g.DF > 0 && !truth[k].Anomalous {
			keys = append(keys, k)
		}
	}
	return keys
}

// approxBench is the approx-point workload: a fitted LOFAR-shaped table
// served on loopback, queried through the model only.
type approxBench struct {
	data *synth.LOFARData
	rows [][]expr.Value
	keys []int64

	eng   *datalaws.Engine
	srv   *server.Server
	ln    *countingListener
	model *modelstore.CapturedModel
	sess  []*approxSession
}

// approxSession mixes prepared point queries, ad-hoc point texts and
// model-scan range aggregates.
type approxSession struct {
	b      *approxBench
	c      *server.Client
	point  *server.Stmt
	scan   *server.Stmt
	mix    *mix
	points []pointAnswer
	scans  []scanAnswer
}

// scanAnswer is one model-scan aggregate: per source (count, avg).
type scanAnswer struct {
	a, b int64
	rows [][3]float64
}

// scanWidth is how many sources one model-scan aggregate covers.
const scanWidth = 20

func newApproxBench(cfg *config) *approxBench {
	data := synth.GenerateLOFAR(synth.LOFARConfig{
		Sources: cfg.scaled(2000, 40), ObsPerSource: 40, NoiseFrac: lofarNoise, AnomalyFrac: 0.01, Seed: cfg.seed,
	})
	return &approxBench{data: data, rows: lofarRows(data)}
}

func (b *approxBench) setup(string) error {
	eng := datalaws.NewEngine()
	b.eng = eng
	m, err := loadLOFAR(eng, b.rows)
	if err != nil {
		return err
	}
	b.model = m
	b.keys = eligibleKeys(m, b.data.Truth)
	if len(b.keys) == 0 {
		return fmt.Errorf("no source fitted")
	}
	b.srv, b.ln, err = boot(eng, roleClient)
	return err
}

func (b *approxBench) teardown() {
	for _, s := range b.sess {
		_ = s.c.Close()
	}
	b.sess = nil
	if b.srv != nil {
		_ = b.srv.Close()
		b.srv = nil
	}
}

func (b *approxBench) sessions() ([]session, error) {
	cs, err := dial(b.srv, b.ln, 2)
	if err != nil {
		return nil, err
	}
	var out []session
	for _, c := range cs {
		s := &approxSession{b: b, c: c, mix: approxMix()}
		b.sess = append(b.sess, s)
		if s.point, err = c.Prepare(pointSQL); err != nil {
			return nil, err
		}
		if s.scan, err = c.Prepare(scanSQL); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (b *approxBench) counters() snapshotter { return snapshotter{ln: b.ln, eng: b.eng} }

// approxMix is, per 8 operations, 6 prepared point queries, 1 ad-hoc point
// text and 1 model-scan aggregate (see share).
func approxMix() *mix {
	return newMix(share{classPoint, 6}, share{classAdhoc, 1}, share{classModelScan, 1})
}

func (s *approxSession) next(rng *rand.Rand) op {
	keys := s.b.keys
	switch s.mix.next(rng) {
	case classModelScan:
		a := 1 + rng.Int63n(int64(len(s.b.data.Truth)))
		return op{class: classModelScan, key: a, key2: a + scanWidth}
	case classAdhoc:
		k, nu := keys[rng.Intn(len(keys))], synth.Bands[rng.Intn(len(synth.Bands))]
		return op{class: classAdhoc, key: k, x: nu, text: adhocPointSQL(k, nu)}
	}
	return op{class: classPoint, key: keys[rng.Intn(len(keys))], x: synth.Bands[rng.Intn(len(synth.Bands))]}
}

func (s *approxSession) do(o op) (int, error) {
	switch o.class {
	case classPoint, classAdhoc:
		st := s.point
		if o.class == classAdhoc {
			st = nil
		}
		a, err := queryPoint(s.c, st, o)
		if err != nil {
			return a.rows, err
		}
		s.points = append(s.points, a)
		return a.rows, nil
	default:
		rows, err := s.scan.Query(o.key, o.key2)
		if err != nil {
			return 0, err
		}
		ans := scanAnswer{a: o.key, b: o.key2}
		for rows.Next() {
			var src, cnt int64
			var avg float64
			if err := rows.Scan(&src, &cnt, &avg); err != nil {
				_ = rows.Close()
				return len(ans.rows), err
			}
			ans.rows = append(ans.rows, [3]float64{float64(src), float64(cnt), avg})
		}
		if err := rows.Err(); err != nil {
			_ = rows.Close()
			return len(ans.rows), err
		}
		s.scans = append(s.scans, ans)
		return len(ans.rows), rows.Close()
	}
}

func (b *approxBench) endToEnd(r *report, p *phase) {
	commonEndToEnd(r, p, classPoint, classModelScan)
	var all []float64
	for _, c := range []int{classPoint, classAdhoc, classModelScan} {
		all = append(all, p.durations(c)...)
	}
	r.latency("approx", all, 1, "us")
}

func (b *approxBench) layers(r *report, p *phase, tr *tracer) error {
	ctx := context.Background()
	st, err := b.eng.Prepare(pointSQL)
	if err != nil {
		return err
	}
	if err := queryLayers(r, p, tr, classPoint,
		func(o op) error { _, err := st.Exec(ctx, o.key, o.x); return err },
		func(o op) error { _, err := b.eng.ExecContext(ctx, adhocPointSQL(o.key, o.x)); return err },
		func(o op) string { return adhocPointSQL(o.key, o.x) }); err != nil {
		return err
	}
	var ranges []string
	for _, s := range p.samples {
		if s.o.class == classModelScan {
			ranges = append(ranges, exactRangeSQL(s.o.key, s.o.key2))
		}
	}
	if err := tableLayers(r, tr, b.eng, "measurements", ranges, lofarGroup); err != nil {
		return err
	}
	if err := aqpLayers(r, p, tr, b.eng, b.model); err != nil {
		return err
	}
	scan, err := b.eng.Prepare(scanSQL)
	if err != nil {
		return err
	}
	if err := replay(tr, p, classModelScan, "aqp.model_scan", func(o op) error {
		_, err := scan.Exec(ctx, o.key, o.key2)
		return err
	}); err != nil {
		return err
	}
	r.detail("aqp.model_scan_us", median(tr.durations("aqp.model_scan")), "us", len(tr.durations("aqp.model_scan")))
	return nil
}

// aqpLayers replays the point queries through the aqp layer alone: the
// parameter-table probe, and Bind on a plan prepared once. It also reports
// the aqp.Cache hit ratio of the traced phase and the cost of one legal-set
// build, which is what each cache miss pays.
func aqpLayers(r *report, p *phase, tr *tracer, eng *datalaws.Engine, m *modelstore.CapturedModel) error {
	if err := replay(tr, p, classPoint, "aqp.point_lookup", func(o op) error {
		_, _, _, err := aqp.PointLookup(m, o.key, []float64{o.x}, level)
		return err
	}); err != nil {
		return err
	}
	ast, err := sql.Parse(pointSQL)
	if err != nil {
		return err
	}
	prep, err := aqp.PrepareApproxSelect(eng.Catalog, eng.Models, ast.(*sql.SelectStmt), eng.AQPOptions())
	if err != nil {
		return err
	}
	if err := replay(tr, p, classPoint, "aqp.bind", func(o op) error {
		bound, err := sql.BindPrepared(ast, []expr.Value{expr.Int(o.key), expr.Float(o.x)}, 2)
		if err != nil {
			return err
		}
		_, err = prep.Bind(bound.(*sql.SelectStmt))
		return err
	}); err != nil {
		return err
	}
	t, err := eng.Catalog.Lookup("measurements")
	if err != nil {
		return err
	}
	opts := eng.AQPOptions()
	if err := repeat(tr, 20, "aqp.legal_build", func(int) error {
		_, err := aqp.BuildLegalSet(t, "source", []string{"nu"}, opts.UseBloom, opts.FPRate)
		return err
	}); err != nil {
		return err
	}
	hits := p.delta[cAQPHits]
	lookups := int(hits + p.delta[cAQPMisses])
	r.detail("aqp.point_lookup_ns", median(tr.durations("aqp.point_lookup"))*1e3, "ns", len(tr.durations("aqp.point_lookup")))
	r.detail("aqp.bind_us", median(tr.durations("aqp.bind")), "us", len(tr.durations("aqp.bind")))
	r.detail("aqp.cache_hit_ratio", hits/float64(max(lookups, 1)), "ratio", lookups)
	r.detail("aqp.legal_build_ms", median(tr.durations("aqp.legal_build"))/1e3, "ms", len(tr.durations("aqp.legal_build")))
	return nil
}

func (b *approxBench) afterLoad(r *report) error {
	// The paper's honest-bounds promise: across the observed rows of
	// sources that follow the law, the 95% interval covers near 95%.
	in, n := 0, 0
	for i, k := range b.data.Source {
		if b.data.Truth[k].Anomalous {
			continue
		}
		_, lo, hi, err := aqp.PointLookup(b.model, k, []float64{b.data.Nu[i]}, level)
		if err != nil || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			continue
		}
		n++
		if y := b.data.Intensity[i]; y >= lo && y <= hi {
			in++
		}
	}
	cov := float64(in) / float64(max(n, 1))
	r.check("interval_coverage", n > 0 && math.Abs(cov-level) <= coverageTolerance,
		"%.4f of %d observed rows inside the %.0f%% interval (tolerance ±%.2f)", cov, n, level*100, coverageTolerance)
	return nil
}

// coverageTolerance is how far the observed coverage of the 95% interval
// may sit from nominal.
const coverageTolerance = 0.03

func (b *approxBench) verify(r *report) {
	n, wrong, first := 0, 0, ""
	for _, s := range b.sess {
		for _, a := range s.points {
			n++
			// The table never grows, so the model is never stale and
			// every answer must be aqp.PointLookup's, uninflated.
			if msg := checkPoint(b.model, a, 1); msg != "" {
				wrong++
				if first == "" {
					first = msg
				}
			}
		}
	}
	r.answers("approx_point_answers", n, wrong, first)
	n, wrong, first = 0, 0, ""
	for _, s := range b.sess {
		for _, a := range s.scans {
			n++
			if msg := b.checkScan(a); msg != "" {
				wrong++
				if first == "" {
					first = msg
				}
			}
		}
	}
	r.answers("approx_scan_answers", n, wrong, first)
}

// checkScan recomputes a model-scan aggregate from the parameter table:
// every fitted source in range, once per observed band, averaged.
func (b *approxBench) checkScan(a scanAnswer) string {
	i := 0
	for k := a.a; k < a.b; k++ {
		g, ok := b.model.GroupFor(k)
		if !ok || !g.OK() {
			continue
		}
		if i >= len(a.rows) {
			return fmt.Sprintf("range [%d,%d): missing source %d", a.a, a.b, k)
		}
		sum := 0.0
		for _, nu := range synth.Bands {
			sum += b.model.Model.Eval(g.Params, []float64{nu})
		}
		want := sum / float64(len(synth.Bands))
		row := a.rows[i]
		if row[0] != float64(k) || row[1] != float64(len(synth.Bands)) || !near(row[2], want) {
			return fmt.Sprintf("range [%d,%d): got (%g, %g, %g), want (%d, %d, %g)", a.a, a.b, row[0], row[1], row[2], k, len(synth.Bands), want)
		}
		i++
	}
	if i != len(a.rows) {
		return fmt.Sprintf("range [%d,%d): %d rows, want %d", a.a, a.b, len(a.rows), i)
	}
	return ""
}

// corrupt falsifies the value of one point answer and, on another, widens
// the interval and reports a matching inflation.
func (b *approxBench) corrupt() int {
	var pts []*pointAnswer
	for _, s := range b.sess {
		for i := range s.points {
			pts = append(pts, &s.points[i])
		}
	}
	if len(pts) < 2 {
		return 0
	}
	pts[0].value *= 1.01
	return 1 + widen(b.model, pts[1], 1.5)
}

// widen rewrites a to the answer the model gives with its interval
// inflated by f, and reports f as the answer's inflation; it returns 1
// when it did.
func widen(m *modelstore.CapturedModel, a *pointAnswer, f float64) int {
	v, lo, hi, err := aqp.PointLookupScaled(m, a.key, []float64{a.nu}, level, f)
	if err != nil {
		return 0
	}
	a.value, a.lo, a.hi, a.inflate = v, lo, hi, f
	return 1
}
