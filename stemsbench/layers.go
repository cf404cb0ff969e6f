package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/eddy"
	"repro/internal/policy"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/stem"
	"repro/internal/tuple"
)

// stemsd's defaults for the engine knobs the direct calls use: benefit-cost
// routing with seed 1, unsharded SteMs, clock compression 0.001, the
// default batch size and the columnar fast path (-row-batches off). Scan
// pacing (1µs) comes from the catalog the tables were registered in.
const (
	defaultPolicy      = "benefitcost"
	defaultCompression = 0.001
)

func newRouter(b *sql.Bound) (*eddy.Router, error) {
	pol, err := policy.ByName(defaultPolicy, 1)
	if err != nil {
		return nil, err
	}
	return eddy.NewRouter(b.Q, eddy.Options{Policy: pol, Shards: 1})
}

func newEngine(rt *eddy.Router) *eddy.Concurrent {
	eng := eddy.NewConcurrent(rt, clock.NewReal(defaultCompression))
	eng.BatchSize = eddy.DefaultBatchSize
	eng.Columnar = true
	return eng
}

// timed runs f inside a span named name under parent and returns its wall
// time in microseconds.
func timed(parent span, name string, f func()) float64 {
	t0 := time.Now()
	f()
	t1 := time.Now()
	parent.record(name, t0, t1)
	return float64(t1.Sub(t0)) / float64(time.Microsecond)
}

// checkStuck fails the direct run what when it left n tuples stuck, and
// returns n.
func (r *runner) checkStuck(n uint64, what string) uint64 {
	if n > 0 {
		r.fail("eddy-stuck", fmt.Sprintf("%s left %d tuples stuck", what, n))
	}
	return n
}

// layers calls the public functions of the layers below the server on the
// workload's own statements and data, each call inside a span, checks what
// the engine returns against the oracle, and returns the per-layer metrics.
func (r *runner) layers(cat *server.Catalog) (map[string]metric, error) {
	ctx := context.Background()
	tr := r.tr
	snap := cat.Snapshot()
	stmts := append(append([]*stmt{}, r.w.prepared...), r.w.subscribe)
	if len(r.w.adhoc) > 0 {
		stmts = append(stmts, r.w.adhoc[:3]...)
	}

	// sql: parse, canonicalize and bind the prepared statements, the
	// standing query and three of the ad-hoc SELECTs.
	var parse, canon, bind []float64
	for rep := 0; rep < 100; rep++ {
		for _, s := range stmts {
			root := tr.root("bench.sql")
			var parsed sql.Statement
			var err error
			parse = append(parse, timed(root, "sql.parse", func() { parsed, err = sql.ParseStatement(s.sql) }))
			if err != nil {
				return nil, fmt.Errorf("parse %q: %w", s.sql, err)
			}
			st := parsed.(*sql.Stmt)
			canon = append(canon, timed(root, "sql.canonical", func() { st.Canonical() }))
			bind = append(bind, timed(root, "sql.bind", func() { _, err = sql.Bind(st, snap) }))
			root.end()
			if err != nil {
				return nil, fmt.Errorf("bind %q: %w", s.sql, err)
			}
		}
	}

	// eddy and stem: build a router and run the engine to completion on each
	// statement the readers execute, checking the result.
	var routers, runs []float64
	var agg stem.Stats
	var stuck uint64
	for _, s := range r.w.prepared {
		began := time.Now()
		for n := 0; n < 5 && (n < 2 || time.Since(began) < 1500*time.Millisecond); n++ {
			root := tr.root("bench.engine")
			var rt *eddy.Router
			var err error
			routers = append(routers, timed(root, "eddy.new_router", func() { rt, err = newRouter(s.exp.bound) }))
			if err != nil {
				return nil, err
			}
			eng := newEngine(rt)
			var outs []eddy.Output
			runs = append(runs, timed(root, "eddy.run", func() { outs, err = eng.RunContext(ctx) })/1000)
			if err != nil {
				return nil, err
			}
			chk := root.child("bench.check")
			var got tally
			var buf []byte
			for _, o := range outs {
				buf = appendRowLine(buf[:0], s.exp.bound.Output, o.T.Comp)
				got.base.add(buf)
			}
			chk.end()
			st := root.child("stem.stats")
			for _, sm := range rt.SteMs() {
				s := sm.Stats()
				agg.Builds += s.Builds
				agg.DupBuilds += s.DupBuilds
				agg.Probes += s.Probes
				agg.ProbeBounces += s.ProbeBounces
				agg.SpilledBuilds += s.SpilledBuilds
			}
			st.end()
			root.end()
			r.attempted.Add(1)
			if got.base != s.exp.base {
				r.fail("engine-vs-oracle", fmt.Sprintf("eddy run of %q returned %d rows, oracle expects %d (digests %x, %x)",
					s.sql, got.base.n, s.exp.base.n, got.base.sum, s.exp.base.sum))
			}
			stuck += r.checkStuck(rt.Stuck(), "eddy run of "+s.sql)
		}
	}

	// eddy delta rounds: a resident engine on the standing query, fed one
	// fresh fact row per round as the server's subscription loop does.
	sub := r.w.subscribe.exp
	rt, err := newRouter(sub.bound)
	if err != nil {
		return nil, err
	}
	eng := newEngine(rt)
	if _, err := eng.RunContext(ctx); err != nil {
		return nil, err
	}
	// The router's stuck count accumulates over the delta rounds.
	prevStuck := rt.Stuck()
	stuck += r.checkStuck(prevStuck, "standing query's initial run")
	fresh := len(r.inserts)
	var deltas []float64
	for j := 0; j < 50; j++ {
		row := r.w.newFact(fresh)
		fresh++
		var want, got digest
		var buf []byte
		sub.plan.each([]tuple.Row{row}, func(combo []tuple.Row) {
			buf = appendRowLine(buf[:0], sub.bound.Output, combo)
			want.add(buf)
		})
		root := tr.root("bench.delta_round")
		eng.Reset()
		var outs []eddy.Output
		deltas = append(deltas, timed(root, "eddy.run_delta", func() {
			outs, err = eng.RunDelta(ctx, []*tuple.Tuple{tuple.NewSingleton(len(sub.bound.Q.Tables), sub.factPos, row)})
		}))
		root.end()
		if err != nil {
			return nil, err
		}
		for _, o := range outs {
			buf = appendRowLine(buf[:0], sub.bound.Output, o.T.Comp)
			got.add(buf)
		}
		r.attempted.Add(1)
		if got != want {
			r.fail("delta-round-vs-oracle", fmt.Sprintf("delta round returned %d rows (digest %x), oracle expects %d (digest %x)",
				got.n, got.sum, want.n, want.sum))
		}
		n := rt.Stuck()
		stuck += r.checkStuck(n-prevStuck, fmt.Sprintf("delta round %d", j))
		prevStuck = n
	}

	// stem: one shared build over the fact table, keyed on its join columns
	// in the standing query.
	src, _ := snap.Source(r.w.fact)
	keyCols := stem.JoinCols(sub.bound.Q, sub.factPos)
	var shared []float64
	for j := 0; j < 3; j++ {
		root := tr.root("bench.shared_build")
		shared = append(shared, timed(root, "stem.build_shared", func() {
			_, err = stem.BuildShared(stem.SharedConfig{KeyCols: keyCols}, src.Data.Rows)
		})/1000)
		root.end()
		if err != nil {
			return nil, err
		}
	}

	// catalog: single-row appends at the workload's table size.
	var appends []float64
	for j := 0; j < 30; j++ {
		row := r.w.newFact(fresh)
		fresh++
		root := tr.root("bench.append")
		appends = append(appends, timed(root, "catalog.append", func() { _, err = cat.Append(r.w.fact, []tuple.Row{row}) }))
		root.end()
		if err != nil {
			return nil, err
		}
	}

	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	return map[string]metric{
		"sql.parse_us":          {percentile(parse, 50), "us"},
		"sql.canonical_us":      {percentile(canon, 50), "us"},
		"sql.bind_us":           {percentile(bind, 50), "us"},
		"catalog.append_us":     {percentile(appends, 50), "us"},
		"eddy.new_router_us":    {percentile(routers, 50), "us"},
		"eddy.run_ms":           {percentile(runs, 50), "ms"},
		"eddy.run_delta_us":     {percentile(deltas, 50), "us"},
		"eddy.stuck":            {float64(stuck), "count"},
		"stem.probes_per_query": {ratio(agg.Probes, uint64(len(runs))), "count"},
		"stem.bounce_ratio":     {ratio(agg.ProbeBounces, agg.Probes), "ratio"},
		"stem.dup_build_ratio":  {ratio(agg.DupBuilds, agg.Builds), "ratio"},
		"stem.shared_build_ms":  {percentile(shared, 50), "ms"},
		"stem.spilled_rows":     {float64(agg.SpilledBuilds), "count"},
	}, nil
}
