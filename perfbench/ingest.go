package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"datalaws"
	"datalaws/internal/expr"
	"datalaws/internal/modelstore"
	"datalaws/internal/refit"
	"datalaws/internal/server"
	"datalaws/internal/sql"
	"datalaws/internal/synth"
	"datalaws/internal/wal"
)

const (
	// insertRows is the size of one INSERT batch.
	insertRows = 64
	// shiftAfter is the session's batch from which every shiftEvery-th
	// source's spectral index is shifted by alphaShift, so drift refits
	// fire. Shifting a minority keeps the refitted law's median R² above
	// the selection policy's floor; shifting every source would leave no
	// trusted model until the new law dominates the table.
	shiftAfter = 100
	shiftEvery = 10
	alphaShift = 0.4
	// rowBytes is the user payload of one row: BIGINT + two DOUBLEs.
	rowBytes = 24
	// growthRefit is the table growth since the fit that triggers a refit.
	growthRefit = 0.1
	// ingestSources sizes the seed table at every scale: a much smaller
	// table grows past the staleness limit before a refit can finish.
	ingestSources = 300
)

// versionLog records when each model version was first seen in a store,
// following the store's changefeed so no version is skipped.
type versionLog struct {
	mu     sync.Mutex
	seen   map[int]time.Time
	models map[int]*modelstore.CapturedModel
}

func newVersionLog() *versionLog {
	return &versionLog{seen: map[int]time.Time{}, models: map[int]*modelstore.CapturedModel{}}
}

// follow records the store's versions of model until stop closes.
func (l *versionLog) follow(store *modelstore.Store, model string, stop <-chan struct{}) {
	if m, ok := store.Get(model); ok {
		l.add(m, time.Now())
	}
	cur := store.FeedPos()
	for {
		wake := store.Watch()
		changes, next, _ := store.ChangesSince(cur, 0)
		now := time.Now()
		for _, c := range changes {
			if c.Name == model && c.Model != nil {
				l.add(c.Model, now)
			}
		}
		cur = next
		select {
		case <-wake:
		case <-stop:
			return
		}
	}
}

func (l *versionLog) add(m *modelstore.CapturedModel, at time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.seen[m.Version]; !ok {
		l.seen[m.Version] = at
		l.models[m.Version] = m
	}
}

func (l *versionLog) model(v int) *modelstore.CapturedModel {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.models[v]
}

// lagsMs returns, for every version seen in both logs after the first,
// how long the follower took to see it.
func lagsMs(primary, replica *versionLog) []float64 {
	primary.mu.Lock()
	defer primary.mu.Unlock()
	replica.mu.Lock()
	defer replica.mu.Unlock()
	first := math.MaxInt
	for v := range primary.seen {
		first = min(first, v)
	}
	var out []float64
	for v, t := range primary.seen {
		if rt, ok := replica.seen[v]; ok && v > first {
			out = append(out, float64(rt.Sub(t))/1e6)
		}
	}
	return out
}

// ingestBench is the ingest-refit workload: a durable primary with
// auto-refit and a model-only replica following it over loopback, while
// two sessions insert rows and run APPROX point queries.
type ingestBench struct {
	seed  int64
	data  *synth.LOFARData
	rows  [][]expr.Value
	keys  []int64
	nsrc  int64
	dir   string
	fs    *fsStats
	eng   *datalaws.Engine
	srv   *server.Server
	ln    *countingListener
	rep   *server.Replicator
	reng  *datalaws.Engine
	stop  chan struct{}
	wg    sync.WaitGroup
	pvers *versionLog
	rvers *versionLog

	evMu   sync.Mutex
	events []refit.Event

	sess   []*ingestSession
	closed bool
}

func newIngestBench(cfg *config) *ingestBench {
	data := synth.GenerateLOFAR(synth.LOFARConfig{
		Sources: ingestSources, ObsPerSource: 40, NoiseFrac: lofarNoise, Seed: cfg.seed,
	})
	return &ingestBench{seed: cfg.seed, data: data, rows: lofarRows(data), nsrc: int64(len(data.Truth))}
}

func (b *ingestBench) setup(dir string) error {
	b.dir, b.fs, b.closed = dir, &fsStats{}, false
	b.events = nil
	eng, err := datalaws.Open(dir, wal.Config{FS: countingFS{FS: wal.OSFS{}, s: b.fs}})
	if err != nil {
		return err
	}
	b.eng = eng
	m, err := loadLOFAR(eng, b.rows)
	if err != nil {
		return err
	}
	b.keys = eligibleKeys(m, b.data.Truth)
	if len(b.keys) == 0 {
		return fmt.Errorf("no source fitted")
	}
	// One fit worker leaves a core to the two sessions; a refit on every
	// core makes their latencies depend on when refits land, which varies
	// from run to run.
	eng.Models.SetFitParallelism(1)
	eng.EnableAutoRefit(refit.Options{Drift: b.drift(), OnEvent: func(ev refit.Event) {
		b.evMu.Lock()
		b.events = append(b.events, ev)
		b.evMu.Unlock()
	}})
	if b.srv, b.ln, err = boot(eng, roleFeed); err != nil {
		return err
	}
	b.reng, b.rep = server.OpenReplica(b.srv.Addr(), nil)
	b.rep.Start()
	if err := b.awaitReplica(10 * time.Second); err != nil {
		return err
	}
	b.ln.setRole(roleClient)
	b.stop = make(chan struct{})
	b.pvers, b.rvers = newVersionLog(), newVersionLog()
	b.wg.Add(2)
	go func() { defer b.wg.Done(); b.pvers.follow(b.eng.Models, "spectra", b.stop) }()
	go func() { defer b.wg.Done(); b.rvers.follow(b.reng.Models, "spectra", b.stop) }()
	return nil
}

// drift is the refitter's thresholds. The default growth trigger (50%) lies
// beyond the default selection policy's staleness limit (20%): between the
// two, APPROX queries find no trusted model and are refused. Refitting at
// 10% growth keeps a trusted model in place under sustained ingest.
func (b *ingestBench) drift() modelstore.DriftConfig {
	d := modelstore.DefaultDriftConfig()
	d.MaxGrowthFrac = growthRefit
	return d
}

// awaitReplica waits until the replica holds the primary's current model
// version.
func (b *ingestBench) awaitReplica(d time.Duration) error {
	deadline := time.Now().Add(d)
	for {
		pm, _ := b.eng.Models.Get("spectra")
		rm, ok := b.reng.Models.Get("spectra")
		if ok && pm != nil && rm.Version == pm.Version {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica did not reach model version %d within %s", pm.Version, d)
		}
		time.Sleep(time.Millisecond)
	}
}

// shutdown stops the load's counterparts and closes the primary, flushing
// its log.
func (b *ingestBench) shutdown() error {
	if b.closed {
		return nil
	}
	b.closed = true
	// The sessions stay listed: their answers are checked after shutdown.
	for _, s := range b.sess {
		_ = s.c.Close()
	}
	if b.stop != nil {
		close(b.stop)
		b.wg.Wait()
		b.stop = nil
	}
	if b.srv != nil {
		_ = b.srv.Close()
		b.srv = nil
	}
	if b.rep != nil {
		b.rep.Stop()
		b.rep = nil
	}
	if b.eng != nil {
		return b.eng.Close()
	}
	return nil
}

func (b *ingestBench) teardown() {
	_ = b.shutdown()
}

func (b *ingestBench) sessions() ([]session, error) {
	cs, err := dial(b.srv, b.ln, 2)
	if err != nil {
		return nil, err
	}
	// A replica redial after this point is feed traffic, not a client.
	b.ln.setRole(roleFeed)
	var out []session
	for _, c := range cs {
		s := &ingestSession{b: b, c: c, mix: newMix(share{classPoint, 7}, share{classInsert, 2})}
		b.sess = append(b.sess, s)
		if s.st, err = c.Prepare(pointSQL); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (b *ingestBench) counters() snapshotter { return snapshotter{ln: b.ln, fs: b.fs, eng: b.eng} }

// ingestSession deals, per 9 operations, 7 prepared APPROX point queries
// and 2 multi-row INSERT texts (see share). Every INSERT makes the next
// query of each session rebuild its plan's domains and legal set. Both
// sessions run the same mix, which keeps the share of queries that rebuild
// the same in every run; a free-running writer beside a free-running
// reader made the reader's rate, and so ops_per_s, hinge on the writer's.
type ingestSession struct {
	b       *ingestBench
	c       *server.Client
	st      *server.Stmt
	mix     *mix
	batches int
	acked   int
	answers []pointAnswer
}

// lofarBatch generates insertRows new measurements of d's sources; shifted
// moves the law of every shiftEvery-th source.
func lofarBatch(rng *rand.Rand, d *synth.LOFARData, shifted bool) [][]expr.Value {
	rows := make([][]expr.Value, insertRows)
	for i := range rows {
		src := 1 + rng.Int63n(int64(len(d.Truth)))
		nu := synth.Bands[rng.Intn(len(synth.Bands))]
		t := d.Truth[src]
		alpha := t.Alpha
		if shifted && src%shiftEvery == 0 {
			alpha += alphaShift
		}
		y := t.P * math.Pow(nu, alpha) * (1 + lofarNoise*rng.NormFloat64())
		rows[i] = []expr.Value{expr.Int(src), expr.Float(nu), expr.Float(y)}
	}
	return rows
}

func insertText(rows [][]expr.Value) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO measurements VALUES ")
	for i, r := range rows {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %s, %s)", r[0].I, strconv.FormatFloat(r[1].F, 'g', -1, 64), strconv.FormatFloat(r[2].F, 'g', -1, 64))
	}
	return sb.String()
}

func (s *ingestSession) next(rng *rand.Rand) op {
	if s.mix.next(rng) == classInsert {
		s.batches++
		return op{class: classInsert, text: insertText(lofarBatch(rng, s.b.data, s.batches > shiftAfter)), n: insertRows}
	}
	keys := s.b.keys
	return op{class: classPoint, key: keys[rng.Intn(len(keys))], x: synth.Bands[rng.Intn(len(synth.Bands))]}
}

func (s *ingestSession) do(o op) (int, error) {
	if o.class == classInsert {
		if _, err := s.c.Exec(o.text); err != nil {
			return 0, err
		}
		s.acked += o.n
		return o.n, nil
	}
	a, err := queryPoint(s.c, s.st, o)
	if err != nil {
		return a.rows, err
	}
	s.answers = append(s.answers, a)
	return a.rows, nil
}

func (b *ingestBench) endToEnd(r *report, p *phase) {
	commonEndToEnd(r, p, classPoint, classInsert)
	r.latency("approx", p.durations(classPoint), 1, "us")
	r.latency("ingest", p.durations(classInsert), 1e3, "ms")
	acked := p.rows(classInsert)
	r.detail("ingest_rows_per_s", float64(acked)/p.wall.Seconds(), "rows/s", p.count(classInsert))
	r.detail("write_amp", p.delta[cFSBytes]/float64(max(acked*rowBytes, 1)), "ratio", acked)
	lags := lagsMs(b.pvers, b.rvers)
	r.detail("replica_lag_ms", median(lags), "ms", len(lags))
}

func (b *ingestBench) layers(r *report, p *phase, tr *tracer) error {
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
	rng := rand.New(rand.NewSource(b.seed))
	var ranges []string
	for i := 0; i < 200; i++ {
		a := 1 + rng.Int63n(b.nsrc)
		ranges = append(ranges, exactRangeSQL(a, a+scanWidth))
	}
	if err := tableLayers(r, tr, b.eng, "measurements", ranges, lofarGroup); err != nil {
		return err
	}
	m, ok := b.eng.Models.Get("spectra")
	if !ok {
		return fmt.Errorf("model spectra missing")
	}
	if err := aqpLayers(r, p, tr, b.eng, m); err != nil {
		return err
	}
	if err := replay(tr, p, classInsert, "sql.parse_insert", func(o op) error {
		_, err := sql.Parse(o.text)
		return err
	}); err != nil {
		return err
	}
	r.detail("sql.insert_parse_us", median(tr.durations("sql.parse_insert")), "us", len(tr.durations("sql.parse_insert")))
	if err := b.writeLayers(r, p, tr, m); err != nil {
		return err
	}

	c := p.delta
	acked := p.rows(classInsert)
	r.detail("wal.records_per_fsync", c[cWALRecords]/max(c[cWALSyncs], 1), "ratio", int(c[cWALSyncs]))
	r.detail("wal.fsync_us", c[cFSSyncNanos]/1e3/max(c[cFSSyncs], 1), "us", int(c[cFSSyncs]))
	r.detail("wal.bytes_per_row", c[cFSBytes]/float64(max(acked, 1)), "bytes", acked)
	applied, resyncs := b.rep.Stats()
	r.detail("server.feed_bytes_per_delta", c[cFeedBytes]/float64(max(applied, 1)), "bytes", int(applied))
	r.detail("server.replica_resyncs", float64(resyncs), "count", int(applied))
	b.evMu.Lock()
	var took []float64
	for _, ev := range b.events {
		if ev.Err == nil {
			took = append(took, float64(ev.Took)/1e6)
		}
	}
	refits := len(b.events)
	b.evMu.Unlock()
	r.detail("refit.refits", float64(refits), "count", refits)
	r.detail("refit.event_took_ms", median(took), "ms", len(took))

	// What the workload's growth trigger hides: the share of point
	// queries refused with the refitter's default trigger, INSERT batches
	// arriving at the traced slices' rate.
	every := time.Duration(float64(p.wall) / float64(max(p.count(classInsert), 1)))
	refused, n, err := refusedFrac(b.seed, modelstore.DefaultDriftConfig(), every)
	if err != nil {
		return fmt.Errorf("default trigger: %w", err)
	}
	r.detail("refit.default_trigger_refused_frac", float64(refused)/float64(max(n, 1)), "ratio", n)
	return nil
}

// Size of the refusal probe: INSERT batches, and point queries after each.
const (
	probeBatches = 200
	probeQueries = 4
)

// refusedFrac replays the workload's write-and-read cycle in process on a
// fresh in-memory engine: the seed table generated and fitted, auto-refit
// with drift and one fit worker, then probeBatches INSERT batches (shifted
// from the shiftAfter-th), one per every, each followed by probeQueries
// prepared point queries. The pacing matters: unpaced, the loop outruns
// every refit. It returns how many queries were refused for want of a
// trusted model, of how many.
func refusedFrac(seed int64, drift modelstore.DriftConfig, every time.Duration) (refused, n int, err error) {
	data := synth.GenerateLOFAR(synth.LOFARConfig{Sources: ingestSources, ObsPerSource: 40, NoiseFrac: lofarNoise, Seed: seed})
	eng := datalaws.NewEngine()
	defer eng.Close()
	m, err := loadLOFAR(eng, lofarRows(data))
	if err != nil {
		return 0, 0, err
	}
	keys := eligibleKeys(m, data.Truth)
	if len(keys) == 0 {
		return 0, 0, errors.New("no source fitted")
	}
	eng.Models.SetFitParallelism(1)
	eng.EnableAutoRefit(refit.Options{Drift: drift})
	st, err := eng.Prepare(pointSQL)
	if err != nil {
		return 0, 0, err
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed + 2))
	start := time.Now()
	for i := 0; i < probeBatches; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * every)))
		if _, err := eng.Append("measurements", lofarBatch(rng, data, i >= shiftAfter)); err != nil {
			return 0, 0, err
		}
		for j := 0; j < probeQueries; j++ {
			n++
			_, err := st.Exec(ctx, keys[rng.Intn(len(keys))], synth.Bands[rng.Intn(len(synth.Bands))])
			if errors.Is(err, datalaws.ErrNoModel) {
				refused++
			} else if err != nil {
				return 0, 0, err
			}
		}
	}
	return refused, n, nil
}

// writeLayers times the write path's layers on scratch state beside the
// primary: Engine.Append and wal.Log.Append of INSERT batches on a fresh
// durable engine and log, DriftDetector.Observe of the same batches, and
// Store.Refit of the grown table.
func (b *ingestBench) writeLayers(r *report, p *phase, tr *tracer, m *modelstore.CapturedModel) error {
	rng := rand.New(rand.NewSource(b.seed + 1))
	var batches [][][]expr.Value
	for i := 0; i < 200; i++ {
		batches = append(batches, lofarBatch(rng, b.data, i%2 == 1))
	}
	scratch, err := datalaws.Open(filepath.Join(b.dir, "scratch-engine"), wal.Config{})
	if err != nil {
		return err
	}
	defer scratch.Close()
	if _, err := scratch.Exec(lofarCreate); err != nil {
		return err
	}
	if err := repeat(tr, len(batches), "datalaws.append", func(i int) error {
		_, err := scratch.Append("measurements", batches[i])
		return err
	}); err != nil {
		return err
	}
	log, err := wal.Open(filepath.Join(b.dir, "scratch-log"), 0, wal.Config{}, func(*wal.Record) error { return nil })
	if err != nil {
		return err
	}
	defer log.Close()
	if err := repeat(tr, len(batches), "wal.append", func(i int) error {
		return log.Append(&wal.Record{Type: wal.TypeAppend, Table: "measurements", Rows: batches[i]})
	}); err != nil {
		return err
	}
	t, err := b.eng.Catalog.Lookup("measurements")
	if err != nil {
		return err
	}
	det := modelstore.NewDriftDetector(modelstore.DefaultDriftConfig())
	if err := repeat(tr, len(batches), "modelstore.drift_observe", func(i int) error {
		det.Observe(m, t.Schema(), batches[i])
		return nil
	}); err != nil {
		return err
	}
	if err := repeat(tr, 3, "modelstore.refit", func(int) error {
		_, err := b.eng.Models.Refit("spectra", t)
		return err
	}); err != nil {
		return err
	}
	r.detail("datalaws.append_ms", median(tr.durations("datalaws.append"))/1e3, "ms", len(tr.durations("datalaws.append")))
	r.detail("wal.append_us", median(tr.durations("wal.append")), "us", len(tr.durations("wal.append")))
	r.detail("modelstore.drift_observe_us", median(tr.durations("modelstore.drift_observe")), "us", len(tr.durations("modelstore.drift_observe")))
	r.detail("modelstore.refit_ms", median(tr.durations("modelstore.refit"))/1e3, "ms", len(tr.durations("modelstore.refit")))
	return nil
}

func (b *ingestBench) afterLoad(r *report) error {
	// The replica must converge on the primary's last model version.
	err := b.awaitReplica(10 * time.Second)
	pm, _ := b.eng.Models.Get("spectra")
	rm, _ := b.reng.Models.Get("spectra")
	rv := 0
	if rm != nil {
		rv = rm.Version
	}
	r.check("replica_model_version", err == nil, "primary v%d, replica v%d", pm.Version, rv)
	acked := 0
	for _, s := range b.sess {
		acked += s.acked
	}
	if err := b.shutdown(); err != nil {
		return fmt.Errorf("close primary: %w", err)
	}

	// Recovery: reopen the run's data directory from disk.
	t0 := time.Now()
	rec, err := datalaws.Open(b.dir, wal.Config{})
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	recovery := time.Since(t0)
	defer rec.Close()
	r.detail("recovery_s", recovery.Seconds(), "s", 1)
	res, err := rec.Exec("SELECT count(*) FROM measurements")
	if err != nil {
		return err
	}
	got, err := res.Rows[0][0].AsFloat()
	if err != nil {
		return err
	}
	want := len(b.rows) + acked
	r.check("recovered_rows", int(got) == want, "count(*) %d after recovery, want %d seeded + %d acked", int(got), len(b.rows), acked)
	return nil
}

func (b *ingestBench) verify(r *report) {
	n, wrong, first := 0, 0, ""
	for _, s := range b.sess {
		for _, a := range s.answers {
			n++
			if msg := checkPoint(b.pvers.model(a.version), a, b.maxInflate()); msg != "" {
				wrong++
				if first == "" {
					first = msg
				}
			}
		}
	}
	r.answers("approx_point_answers", n, wrong, first)
}

// maxInflate is the widest staleness inflation an answer may report: the
// selection policy refuses a model once its table has grown by more than
// MaxStalenessFrac, and the inflation is 1 + that growth.
func (b *ingestBench) maxInflate() float64 {
	return 1 + b.eng.AQPOptions().Policy.MaxStalenessFrac
}

// corrupt falsifies the upper bound of one point answer and, on another,
// widens the interval past what the staleness policy allows and reports a
// matching inflation.
func (b *ingestBench) corrupt() int {
	var pts []*pointAnswer
	for _, s := range b.sess {
		for i := range s.answers {
			pts = append(pts, &s.answers[i])
		}
	}
	if len(pts) < 2 {
		return 0
	}
	pts[0].hi *= 1.01
	m := b.pvers.model(pts[1].version)
	if m == nil {
		return 1
	}
	return 1 + widen(m, pts[1], b.maxInflate()+0.1)
}
