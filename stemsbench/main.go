// Command stemsbench is the repository's end-to-end benchmark of stemsd. It
// generates a workload's tables from a seed, starts the real stemsd binary as
// a child process with default flags (plus -shared-stems where the workload
// says so), drives the workload over HTTP with at most two connections,
// checks every result against the brute-force oracle, and prints the
// metrics as the last line of standard output:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"query_p50_ms":{"value":1.2,"unit":"ms"},...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 every
// other operation is traced, the layers below the server are called
// directly on the workload's statements and data, and the metrics are the
// per-layer ones. Spans and per-layer self times are written under
// <work>/traces. Run it through run.sh, which builds both binaries:
//
//	bash stemsbench/run.sh --workload join_large --seed 3 --seconds 15 --trace 0
//
// README.md in this directory explains the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/tuple"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	stemsd   string // path to the stemsd binary
	work     string // directory for generated data, traces and records
	commit   string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "serve_small, join_large, ingest_standing or mixed_shared")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the tables, inserts and request mix are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "measured seconds, split among the workload's phases")
	flag.IntVar(&traceFlag, "trace", 0, "1 traces the run and reports per-layer metrics instead of end-to-end ones")
	flag.StringVar(&cfg.stemsd, "stemsd", "", "path to the stemsd binary")
	flag.StringVar(&cfg.work, "work", ".bench_build", "directory for generated tables, traces and result records")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit the binaries were built from, for the provenance record")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if cfg.stemsd == "" || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "stemsbench: -stemsd and a positive -seconds are required")
		os.Exit(2)
	}
	rep, err := run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stemsbench: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.Encode(map[string]any{"provenance": rep.provenance})
	enc.Encode(rep.result)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type report struct {
	result     result
	provenance map[string]any
}

// samples collects named measurement series from concurrent goroutines.
type samples struct {
	mu sync.Mutex
	m  map[string][]float64
}

func (s *samples) add(name string, v float64) {
	s.mu.Lock()
	if s.m == nil {
		s.m = map[string][]float64{}
	}
	s.m[name] = append(s.m[name], v)
	s.mu.Unlock()
}

func (s *samples) get(name string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[name]
}

// percentile is the nearest-rank percentile of vs (0 for no samples).
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// maxLagMS is the generator's allowance: a run whose open-loop sends are,
// at the 99th percentile, later than this behind schedule is invalid.
const maxLagMS = 100

// setups is how many times a run sets the server up; setup_s is the median.
const setups = 7

// runner is one benchmark run's state.
type runner struct {
	cfg     config
	w       *workload
	log     io.Writer
	dataDir string
	inserts []tuple.Row
	// sched[i] is insert i's scheduled send time. The writer sets it before
	// publishing i through sent, so any goroutine that has loaded sent > i
	// may read it.
	sched       []time.Time
	sent, acked atomic.Int64
	srv         *stemsd
	sub         *subscription
	subRows     int // rows read on subscriptions that ended during the run
	deltaRows   int // delta rows read
	subInserts  int // inserts sent while a subscription was open
	tr          *tracer
	s           samples
	attempted   atomic.Int64
	failed      atomic.Int64
	okQueries   atomic.Int64
	readTime    time.Duration // summed length of phases with readers
	streamStmt  *stmt         // the reader statement with the most rows; server.stream_ms times it
	subExp      *expected
	conns       int
}

// fail records one failed operation and prints it with the check that
// caught it (the first 20 of a run in full).
func (r *runner) fail(check, detail string) {
	if n := r.failed.Add(1); n <= 20 {
		fmt.Fprintf(r.log, "stemsbench: FAIL [%s] %s\n", check, detail)
	}
}

// newRunner generates the workload's tables into a fresh directory under
// cfg.work and computes every expected result. It returns the runner and
// the catalog the oracle bound against (the tables as stemsd loads them).
func newRunner(cfg config, log io.Writer) (*runner, *server.Catalog, error) {
	w, err := buildWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	// Connections are capped at nproc, but a phase needs two.
	r := &runner{cfg: cfg, w: w, log: log, conns: max(runtime.NumCPU(), 2)}
	if cfg.trace {
		r.tr = newTracer()
	}
	r.dataDir = filepath.Join(cfg.work, fmt.Sprintf("data-%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(r.dataDir, 0o755); err != nil {
		return nil, nil, err
	}
	if err := w.writeCSVs(r.dataDir); err != nil {
		r.close()
		return nil, nil, err
	}
	cat := server.NewCatalog(time.Microsecond, r.dataDir)
	for _, t := range w.tables {
		if _, err := cat.RegisterCSV(t.name, t.name+".csv", nil); err != nil {
			r.close()
			return nil, nil, err
		}
	}
	n := w.plannedInserts(cfg.seconds)
	r.inserts = make([]tuple.Row, n)
	for i := range r.inserts {
		r.inserts[i] = w.newFact(i)
	}
	r.sched = make([]time.Time, n)
	snap := cat.Snapshot()
	for _, s := range w.stmts() {
		if s.exp, err = expect(s.sql, w.fact, snap, r.inserts); err != nil {
			r.close()
			return nil, nil, err
		}
	}
	r.subExp = w.subscribe.exp
	for _, p := range w.prepared {
		if r.streamStmt == nil || p.exp.base.n > r.streamStmt.exp.base.n {
			r.streamStmt = p
		}
	}
	return r, cat, nil
}

// close stops the server if one is still up and removes the generated
// tables.
func (r *runner) close() {
	r.closeSubscription()
	if r.srv != nil {
		r.srv.kill()
		r.srv = nil
	}
	os.RemoveAll(r.dataDir)
}

// run is one benchmark run: set-up, the workload's phases, and (traced)
// the direct layer calls.
func run(cfg config, log io.Writer) (*report, error) {
	r, cat, err := newRunner(cfg, log)
	if err != nil {
		return nil, err
	}
	defer r.close()
	for i := 0; i < setups; i++ {
		if err := r.setUp(i == setups-1); err != nil {
			return nil, err
		}
	}
	before, err := r.srv.metrics()
	if err != nil {
		return nil, err
	}
	// The per-insert costs are taken over the phases that run readers
	// beside the writer, the traffic they exist to measure; they are 0 on
	// workloads without such a phase.
	var mixed metricsDelta
	for i, p := range r.w.phases {
		m0, err := r.srv.metrics()
		if err != nil {
			return nil, err
		}
		if err := r.runPhase(i, p); err != nil {
			return nil, err
		}
		m1, err := r.srv.metrics()
		if err != nil {
			return nil, err
		}
		if p.rate > 0 && p.readers > 0 {
			mixed.add(m0, m1)
		}
	}
	after, err := r.settledMetrics()
	if err != nil {
		return nil, err
	}
	peak, err := r.srv.rssMB("VmHWM")
	if err != nil {
		return nil, err
	}
	r.s.add("peak_rss", peak)
	err = r.srv.stop()
	r.srv = nil
	if err != nil {
		return nil, err
	}

	rep := &report{provenance: r.provenance()}
	lagP99 := percentile(r.s.get("lag"), 99)
	valid := lagP99 <= maxLagMS
	if !valid {
		fmt.Fprintf(log, "stemsbench: run invalid: generator lag p99 %.1f ms exceeds %d ms\n", lagP99, maxLagMS)
	}
	var m map[string]metric
	if cfg.trace {
		lm, err := r.layers(cat)
		if err != nil {
			return nil, err
		}
		m = r.perLayer(before, after, mixed, lm)
		if err := r.writeTrace(rep.provenance); err != nil {
			return nil, err
		}
	} else {
		m = r.endToEnd()
	}
	rep.result = result{
		Correct:   valid && r.failed.Load() == 0,
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   m,
	}
	return rep, r.writeRecord(rep)
}

// setUp starts stemsd, registers every table, prepares every statement and,
// when the first phase holds the standing query, opens it through its
// snapshot. A kept set-up stays up for the run; the others are stopped.
func (r *runner) setUp(keep bool) error {
	start := time.Now()
	r.subRows = 0 // only the kept set-up's subscription streams on the measured server
	srv, err := startStemsd(r.cfg.stemsd, r.dataDir, r.w.stemsdFlags(), r.conns)
	if err != nil {
		return err
	}
	ctx := context.Background()
	for _, t := range r.w.tables {
		t0 := time.Now()
		out, err := srv.statement(ctx, fmt.Sprintf("REGISTER TABLE %s FROM '%s.csv'", t.name, t.name))
		r.attempted.Add(1)
		if err != nil {
			srv.kill()
			return fmt.Errorf("register %s: %w", t.name, err)
		}
		if rows, _ := out["rows"].(float64); int(rows) != len(t.rows) {
			r.fail("register-rows", fmt.Sprintf("%s registered %v rows, generated %d", t.name, out["rows"], len(t.rows)))
		}
		r.s.add("register", ms(time.Since(t0)))
	}
	for _, p := range r.w.prepared {
		r.attempted.Add(1)
		if _, err := srv.statement(ctx, fmt.Sprintf("PREPARE %s AS %s", p.name, p.sql)); err != nil {
			srv.kill()
			return fmt.Errorf("prepare %s: %w", p.name, err)
		}
	}
	r.srv = srv
	if r.w.phases[0].sub {
		if err := r.openSubscription(); err != nil {
			return err
		}
	}
	r.s.add("setup", time.Since(start).Seconds())
	if keep {
		return nil
	}
	r.closeSubscription()
	r.srv = nil
	return srv.stop()
}

func (r *runner) openSubscription() error {
	t0 := time.Now()
	sub, t, err := r.srv.subscribe(r.w.subscribe.sql, r.subExp)
	r.attempted.Add(1)
	if err != nil {
		return fmt.Errorf("subscribe: %w", err)
	}
	r.s.add("snapshot", ms(time.Since(t0)))
	n := int(r.acked.Load())
	if check, detail := checkResult(r.subExp, &t, n, n); check != "" {
		r.fail("snapshot-"+check, detail)
	}
	r.sub = sub
	r.subRows += t.base.n + sumHits(t.hits)
	return nil
}

func (r *runner) closeSubscription() {
	if r.sub != nil {
		r.sub.close()
		r.sub = nil
	}
}

// settledMetrics scrapes /metrics once the server has finished accounting
// for every closed subscription.
func (r *runner) settledMetrics() (map[string]float64, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		m, err := r.srv.metrics()
		if err != nil || m["stemsd_subscribers_active"] == 0 || time.Now().After(deadline) {
			return m, err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// runPhase runs one phase: its readers and writer for the phase's share of
// the run, with the standing query open throughout when the phase holds it.
func (r *runner) runPhase(idx int, p phase) error {
	if p.sub && r.sub == nil {
		if err := r.openSubscription(); err != nil {
			return err
		}
	}
	firstInsert := int(r.sent.Load())
	hits := make([]int, len(r.inserts))
	var deltaRows atomic.Int64
	var deltaWG sync.WaitGroup
	if p.sub {
		deltaWG.Add(1)
		go func() {
			defer deltaWG.Done()
			r.readDeltas(r.sub, firstInsert, hits, &deltaRows)
		}()
	}

	dur := p.duration(r.cfg.seconds)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for id := 0; id < p.readers; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.reader(idx*16+id, deadline)
		}()
	}
	if p.rate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.writer(start, p, dur)
		}()
	}
	wg.Wait()
	if p.readers > 0 {
		r.readTime += time.Since(start)
	}
	if !p.sub {
		return nil
	}

	// Every acknowledged insert's delta rows must arrive; give them time.
	acked := int(r.acked.Load())
	want := int64(0)
	for i := firstInsert; i < acked; i++ {
		want += int64(r.subExp.count[i])
	}
	for wait := time.Now().Add(10 * time.Second); deltaRows.Load() < want && time.Now().Before(wait); {
		time.Sleep(time.Millisecond)
	}
	r.closeSubscription()
	deltaWG.Wait()
	r.subRows += int(deltaRows.Load())
	r.deltaRows += int(deltaRows.Load())
	r.subInserts += int(r.sent.Load()) - firstInsert
	for i := firstInsert; i < int(r.sent.Load()); i++ {
		if r.subExp.count[i] == 0 {
			continue
		}
		r.attempted.Add(1)
		if hits[i] != r.subExp.count[i] {
			r.fail("delta-exactly-once", fmt.Sprintf("insert %d produced %d delta rows, oracle expects %d", i, hits[i], r.subExp.count[i]))
		}
	}
	return nil
}

// reader is one closed-loop client: it sends the workload's next request as
// soon as the previous one has been answered and checked.
func (r *runner) reader(id int, deadline time.Time) {
	rng := rand.New(rand.NewSource(r.cfg.seed*1000 + int64(id)))
	ctx := context.Background()
	for n := 0; time.Now().Before(deadline); n++ {
		req := r.w.next(rng, n)
		// A traced run traces every other request, so traced and untraced
		// round trips interleave and their medians compare like with like.
		traced := r.tr != nil && n%2 == 1
		var root span
		if traced {
			root = r.tr.root("bench.query")
		}
		acked := int(r.acked.Load())
		sendAt := time.Now()
		res, err := r.srv.query(ctx, req.send, req.stmt.exp)
		sent := int(r.sent.Load())
		r.attempted.Add(1)
		if err != nil {
			root.end()
			r.fail("query-response", fmt.Sprintf("%s: %v", req.send, err))
			continue
		}
		if traced {
			q := root.record("server.query", sendAt, sendAt.Add(res.rt))
			q.record("server.stream", sendAt.Add(res.firstRow), sendAt.Add(res.rt))
		}
		chk := root.child("bench.check")
		check, detail := checkResult(req.stmt.exp, &res.tally, acked, sent)
		chk.end()
		root.end()
		if check != "" {
			r.fail(check, req.send+": "+detail)
			continue
		}
		r.okQueries.Add(1)
		rt := ms(res.rt)
		if traced {
			r.s.add("query_traced", rt)
			continue
		}
		r.s.add("query", rt)
		if res.firstRow >= 0 { // empty results have no first row
			r.s.add("first_row", ms(res.firstRow))
		}
		r.s.add("queue", res.trailer.QueueMS)
		r.s.add("exec", res.trailer.ElapsedMS)
		r.s.add("outside", rt-res.trailer.QueueMS-res.trailer.ElapsedMS)
		r.s.add("routing", res.trailer.RoutingSteps)
		r.s.add("builds", res.trailer.StemBuilds)
		if req.stmt == r.streamStmt {
			r.s.add("stream", ms(res.rt-res.firstRow))
		}
	}
}

// writer is the open-loop client: it sends single-row inserts on a fixed
// schedule whether or not earlier ones have been answered, and times each
// from its scheduled send time, so a stall shows in every insert it delays.
func (r *runner) writer(start time.Time, p phase, dur time.Duration) {
	ctx := context.Background()
	interval := time.Duration(float64(time.Second) / p.rate)
	for k := 0; ; k++ {
		at := start.Add(time.Duration(k) * interval)
		i := int(r.sent.Load())
		if !at.Before(start.Add(dur)) || i >= len(r.inserts) {
			return
		}
		time.Sleep(time.Until(at))
		r.sched[i] = at
		sendAt := time.Now()
		r.s.add("lag", ms(sendAt.Sub(at)))
		r.sent.Store(int64(i + 1))
		err := r.srv.insert(ctx, r.w.fact, i, r.inserts[i])
		ackAt := time.Now()
		r.attempted.Add(1)
		if r.tr != nil && i%2 == 1 {
			root := r.tr.rootAt("bench.insert", at)
			root.record("server.insert", sendAt, ackAt)
			root.endAt(ackAt)
		}
		r.acked.Store(int64(i + 1))
		if err != nil {
			r.fail("insert-response", fmt.Sprintf("insert %d: %v", i, err))
			continue
		}
		r.s.add("insert", ms(ackAt.Sub(at)))
	}
}

// deltaInsert returns the insert a delta row comes from, on a subscription
// whose snapshot already held inserts below firstInsert, when inserts below
// sent have been sent. Otherwise it returns the name of the check the row
// fails and a description.
func deltaInsert(e *expected, line []byte, firstInsert, sent int) (i int, check, detail string) {
	i, ok := e.contrib[string(line)]
	switch {
	case !ok:
		return -1, "delta-unknown-row", fmt.Sprintf("delta row %s matches no insert", line)
	case i < firstInsert:
		return i, "delta-of-snapshot-insert", fmt.Sprintf("delta row of insert %d, which the snapshot already held", i)
	case i >= sent:
		return i, "delta-before-insert", fmt.Sprintf("delta row of insert %d arrived before it was sent", i)
	}
	return i, "", ""
}

// readDeltas reads the open subscription's delta rows until it is closed,
// matching each to the insert it comes from.
func (r *runner) readDeltas(sub *subscription, firstInsert int, hits []int, rows *atomic.Int64) {
	for {
		line, err := sub.lines.next()
		if err != nil {
			return // closed at the end of the phase
		}
		now := time.Now()
		switch {
		case bytes.HasPrefix(line, rowPrefix):
			i, check, detail := deltaInsert(r.subExp, line, firstInsert, int(r.sent.Load()))
			if check != "" {
				r.attempted.Add(1)
				r.fail(check, detail)
				continue
			}
			hits[i]++
			if hits[i] == 1 {
				r.s.add("delta", ms(now.Sub(r.sched[i])))
				if r.tr != nil {
					root := r.tr.rootAt("bench.delta", r.sched[i])
					root.record("sub.delta", r.sched[i], now)
					root.endAt(now)
				}
			}
			rows.Add(1)
		default:
			r.attempted.Add(1)
			r.fail("subscription-ended", fmt.Sprintf("subscription line %s", line))
			return
		}
	}
}

// endToEnd computes the gated metrics a user of stemsd sees.
func (r *runner) endToEnd() map[string]metric {
	q := r.s.get("query")
	return map[string]metric{
		"query_p50_ms":     {percentile(q, 50), "ms"},
		"query_tail_ms":    {percentile(q, r.w.tails.query), "ms"},
		"first_row_p90_ms": {percentile(r.s.get("first_row"), 90), "ms"},
		"query_qps":        {float64(r.okQueries.Load()) / r.readTime.Seconds(), "1/s"},
		"insert_p50_ms":    {percentile(r.s.get("insert"), 50), "ms"},
		"delta_p50_ms":     {percentile(r.s.get("delta"), 50), "ms"},
		"setup_s":          {percentile(r.s.get("setup"), 50), "s"},
	}
}

// metricsDelta sums /metrics counter deltas over some of a run's phases.
type metricsDelta map[string]float64

func (d *metricsDelta) add(before, after map[string]float64) {
	if *d == nil {
		*d = metricsDelta{}
	}
	for k, v := range after {
		(*d)[k] += v - before[k]
	}
}

// perLayer computes the per-layer metrics: the server's from trailers and
// /metrics deltas (mixed: over the phases the per-insert costs are taken
// from), the lower layers' from direct calls (lm).
func (r *runner) perLayer(before, after map[string]float64, mixed metricsDelta, lm map[string]metric) map[string]metric {
	d := func(name string) float64 { return after[name] - before[name] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	mean := func(vs []float64) float64 {
		s := 0.0
		for _, v := range vs {
			s += v
		}
		return ratio(s, float64(len(vs)))
	}
	hits, misses := d("stemsd_plan_cache_hits_total"), d("stemsd_plan_cache_misses_total")
	inserts := mixed["stemsd_inserts_total"]
	untraced, traced := percentile(r.s.get("query"), 50), percentile(r.s.get("query_traced"), 50)
	m := map[string]metric{
		"server.queue_ms":                      {percentile(r.s.get("queue"), 50), "ms"},
		"server.exec_ms":                       {percentile(r.s.get("exec"), 50), "ms"},
		"server.outside_exec_ms":               {percentile(r.s.get("outside"), 50), "ms"},
		"server.stream_ms":                     {percentile(r.s.get("stream"), 50), "ms"},
		"server.rows_per_query":                {ratio(d("stemsd_rows_streamed_total")-float64(r.subRows), float64(r.okQueries.Load())), "rows"},
		"server.routing_steps_per_query":       {mean(r.s.get("routing")), "count"},
		"server.stem_builds_per_query":         {mean(r.s.get("builds")), "count"},
		"server.plan_cache_hit_ratio":          {ratio(hits, hits+misses), "ratio"},
		"server.plan_invalidations_per_insert": {ratio(mixed["stemsd_plan_cache_invalidations_total"], inserts), "ratio"},
		"server.shared_builds_per_insert":      {ratio(mixed["stemsd_shared_stem_builds_total"], inserts), "ratio"},
		"catalog.register_ms":                  {percentile(r.s.get("register"), 50), "ms"},
		"sub.snapshot_ms":                      {percentile(r.s.get("snapshot"), 50), "ms"},
		"sub.delta_rows_per_insert":            {ratio(float64(r.deltaRows), float64(r.subInserts)), "ratio"},
		"bench.gen_lag_ms":                     {percentile(r.s.get("lag"), 99), "ms"},
		"bench.trace_overhead_frac":            {ratio(traced, untraced) - 1, "ratio"},
		// Measured end to end, but too unsteady from run to run to gate.
		"first_row_p50_ms": {percentile(r.s.get("first_row"), 50), "ms"},
		"insert_tail_ms":   {percentile(r.s.get("insert"), r.w.tails.insert), "ms"},
		"delta_tail_ms":    {percentile(r.s.get("delta"), r.w.tails.delta), "ms"},
		"server_rss_mb":    {percentile(r.s.get("peak_rss"), 50), "MB"},
	}
	for k, v := range lm {
		m[k] = v
	}
	return m
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// provenance records what produced the numbers.
func (r *runner) provenance() map[string]any {
	t := r.w.tails
	return map[string]any{
		"commit":       r.cfg.commit,
		"go":           runtime.Version(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"cpu":          cpuModel(),
		"stemsd_flags": append([]string{"-addr", "127.0.0.1:<free port>", "-data-dir", "<generated tables>"}, r.w.stemsdFlags()...),
		"workload":     r.w.name,
		"seed":         r.cfg.seed,
		"seconds":      r.cfg.seconds,
		"trace":        r.cfg.trace,
		"connections":  r.conns,
		"tail_percentiles": map[string]float64{
			"query": t.query, "insert": t.insert, "delta": t.delta,
		},
		"samples": map[string]int{
			"query": len(r.s.get("query")), "insert": len(r.s.get("insert")), "delta": len(r.s.get("delta")),
		},
	}
}

// writeRecord stores the run's provenance and result under <work>/results.
func (r *runner) writeRecord(rep *report) error {
	dir := filepath.Join(r.cfg.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw := map[string][]float64{}
	for _, k := range []string{"query", "first_row", "insert", "delta", "lag", "setup", "peak_rss"} {
		raw[k] = r.s.get(k)
	}
	b, err := json.MarshalIndent(map[string]any{"provenance": rep.provenance, "result": rep.result, "samples": raw}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v.json", r.w.name, r.cfg.seed, r.cfg.trace)
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
