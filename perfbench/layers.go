package main

import (
	"fmt"
	"net"
	"time"

	"datalaws"
	"datalaws/internal/exec"
	"datalaws/internal/server"
	"datalaws/internal/sql"
	"datalaws/internal/table"
)

// discardLogf silences server diagnostics.
func discardLogf(string, ...any) {}

// boot serves eng on a loopback port through a counting listener.
func boot(eng *datalaws.Engine, role string) (*server.Server, *countingListener, error) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	ln := newCountingListener(raw, role)
	srv := server.New(eng, &server.Config{Logf: discardLogf})
	if err := srv.ServeListener(ln); err != nil {
		return nil, nil, err
	}
	return srv, ln, nil
}

// dial opens n client sessions and waits until the server accepted them,
// so they are filed under the listener's current role.
func dial(srv *server.Server, ln *countingListener, n int) ([]*server.Client, error) {
	want := ln.Accepted() + n
	var out []*server.Client
	for i := 0; i < n; i++ {
		c, err := server.Dial(srv.Addr())
		if err != nil {
			closeAll(out)
			return nil, err
		}
		c.FetchRows = fetchRows
		out = append(out, c)
	}
	for deadline := time.Now().Add(5 * time.Second); ln.Accepted() < want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			closeAll(out)
			return nil, fmt.Errorf("server accepted %d of %d sessions", ln.Accepted(), want)
		}
	}
	return out, nil
}

// fetchRows is the cursor batch size every client session requests.
const fetchRows = 1024

func closeAll(cs []*server.Client) {
	for _, c := range cs {
		_ = c.Close()
	}
}

// drain runs a parsed exact SELECT through the executor alone.
func drain(cat *table.Catalog, st *sql.SelectStmt) error {
	op, err := exec.BuildSelectOpts(cat, st, nil, exec.Options{})
	if err != nil {
		return err
	}
	if err := op.Open(); err != nil {
		op.Close()
		return err
	}
	defer op.Close()
	for {
		row, err := op.Next()
		if err != nil || row == nil {
			return err
		}
	}
}

func parseSelect(q string) (*sql.SelectStmt, error) {
	st, err := sql.Parse(q)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("not a SELECT: %s", q)
	}
	return sel, nil
}

// tableLayers reports the executor and table metrics of the traced run:
// exact range aggregates and a full GROUP BY through the executor alone,
// zone-map pruning of the same ranges, and the decode cost of sealed chunks.
func tableLayers(r *report, tr *tracer, eng *datalaws.Engine, tableName string, ranges []string, groupBy string) error {
	t, err := eng.Catalog.Lookup(tableName)
	if err != nil {
		return err
	}
	var stmts []*sql.SelectStmt
	for _, q := range ranges {
		st, err := parseSelect(q)
		if err != nil {
			return err
		}
		stmts = append(stmts, st)
	}
	if len(stmts) == 0 {
		return fmt.Errorf("no range queries to replay")
	}
	if err := repeat(tr, len(stmts), "exec.range_agg", func(i int) error { return drain(eng.Catalog, stmts[i]) }); err != nil {
		return err
	}
	gb, err := parseSelect(groupBy)
	if err != nil {
		return err
	}
	if err := repeat(tr, 100, "exec.groupby", func(int) error { return drain(eng.Catalog, gb) }); err != nil {
		return err
	}
	view := t.Chunks()
	var frac []float64
	if err := repeat(tr, len(stmts), "table.survivors", func(i int) error {
		keep := view.Survivors(stmts[i].Where, tableName)
		frac = append(frac, float64(len(keep))/float64(view.NumChunks()))
		return nil
	}); err != nil {
		return err
	}
	// With the cache budget at zero every sealed-chunk read decodes.
	budget := table.CacheStats().Budget
	table.SetChunkCacheBudget(0)
	err = repeat(tr, view.NumSealed(), "table.decode_chunk", func(i int) error {
		_, err := view.Columns(i)
		return err
	})
	table.SetChunkCacheBudget(budget)
	if err != nil {
		return err
	}
	r.layer("exec.range_agg_us", median(tr.durations("exec.range_agg")), "us")
	r.layer("exec.groupby_ms", median(tr.durations("exec.groupby"))/1e3, "ms")
	r.layer("table.survivors_us", median(tr.durations("table.survivors")), "us")
	mean := 0.0
	for _, f := range frac {
		mean += f
	}
	r.layer("table.survivor_frac", mean/float64(len(frac)), "ratio")
	r.layer("table.decode_us_per_chunk", median(tr.durations("table.decode_chunk")), "us")
	return nil
}

// commonEndToEnd reports the gated end-to-end metrics of the untraced
// phase: query is the workload's selective query class, bulk its heavy one.
// It also prints every class's latency.
func commonEndToEnd(r *report, p *phase, query, bulk int) {
	r.set("ops_per_s", p.opsPerSec(), "op/s")
	q := p.durations(query)
	r.set("query_p50_us", median(q), "us")
	r.set("query_p99_us", quantile(q, 0.99), "us")
	r.set("bulk_p50_ms", median(p.durations(bulk))/1e3, "ms")
	for c, name := range classNames {
		if d := p.durations(c); len(d) > 0 {
			r.latency(name, d, 1, "us")
		}
	}
}
