// exec.go executes one statement for one request: parse, bind against a
// catalog snapshot, run it through a core.Exec (fresh, or pooled by the plan
// cache), and stream results back as NDJSON while they are produced. An
// Exec — policy, router, engine — serves one query at a time; only the
// catalog's source tables and shared SteM states are shared across
// queries, and those are immutable once built.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/pprof"
	"strconv"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/eddy"
	"repro/internal/policy"
	"repro/internal/sql"
	"repro/internal/trace"
	"repro/internal/tuple"
	"repro/internal/value"
)

// execStats summarizes one query's execution for the trailer, metrics, and
// the completed-queries ring.
type execStats struct {
	Rows      int
	Routed    uint64
	Builds    uint64
	Probes    uint64
	Elapsed   time.Duration
	QueueWait time.Duration
	CacheHit  bool
	Shared    bool
	Spilled   bool
	// Trace carries the run's collector snapshot; the policy state is
	// included only when the request asked for an explain.
	Trace trace.Record
}

// userError marks failures caused by the request (parse, bind, bad knobs),
// reported as 400 rather than 500.
type userError struct{ err error }

func (e userError) Error() string { return e.err.Error() }
func (e userError) Unwrap() error { return e.err }

const hexDigits = "0123456789abcdef"

// appendRowJSON appends one NDJSON result line — {"row":{...}}\n — keyed by
// the projected column labels. Hand-rolled: per-row encoding is the serving
// hot path, and the map + reflection route of encoding/json costs dozens of
// allocations per row.
func appendRowJSON(buf []byte, t *tuple.Tuple, out []sql.OutputCol) []byte {
	buf = append(buf, `{"row":{`...)
	for i, oc := range out {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONString(buf, oc.Name)
		buf = append(buf, ':')
		v := t.Value(oc.Table, oc.Col)
		switch v.K {
		case value.Int:
			buf = strconv.AppendInt(buf, v.I, 10)
		case value.Str:
			buf = appendJSONString(buf, v.S)
		default:
			buf = append(buf, "null"...)
		}
	}
	return append(buf, '}', '}', '\n')
}

// appendJSONString appends s as a JSON string literal, escaping quotes,
// backslashes, and control characters (the only bytes JSON forbids raw).
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		switch ch := s[i]; {
		case ch == '"' || ch == '\\':
			buf = append(buf, '\\', ch)
		case ch < 0x20:
			buf = append(buf, '\\', 'u', '0', '0', hexDigits[ch>>4], hexDigits[ch&0xf])
		default:
			buf = append(buf, ch)
		}
	}
	return append(buf, '"')
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if req.SQL == "" {
		writeJSONError(w, http.StatusBadRequest, errors.New(`missing "sql" field`))
		return
	}
	st, err := sql.ParseStatement(req.SQL)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}
	if req.Subscribe {
		// Only a SELECT (direct or via EXECUTE) can stand.
		switch st.(type) {
		case *sql.Stmt, *sql.ExecuteStmt:
		default:
			writeJSONError(w, http.StatusBadRequest, errors.New("subscribe requires a SELECT"))
			return
		}
	}
	switch st := st.(type) {
	case *sql.RegisterStmt:
		// Registrations pass the same drain barrier and admission gate as
		// queries: CSV loads are real memory/CPU work, so they must not
		// exceed MaxInFlight and must not outlive a Shutdown drain.
		if !s.beginQuery() {
			s.met.reject()
			writeJSONError(w, http.StatusServiceUnavailable, errDraining)
			return
		}
		defer s.queries.Done()
		if err := s.admit(r.Context()); err != nil {
			s.met.reject()
			code := http.StatusTooManyRequests
			if !errors.Is(err, errBusy) {
				code = http.StatusServiceUnavailable
			}
			writeJSONError(w, code, err)
			return
		}
		defer s.release()
		rows, err := s.cat.Apply(st)
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, err)
			return
		}
		s.met.register()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"registered": st.Name, "rows": rows})
	case *sql.InsertStmt:
		s.applyInsert(w, r, st.Table, st.RowValues())
	case *sql.PrepareStmt:
		s.handlePrepare(w, st)
	case *sql.ExecuteStmt:
		p, ok := s.lookupPrepared(st.Name)
		if !ok {
			writeJSONError(w, http.StatusBadRequest, fmt.Errorf("no prepared statement %q (PREPARE it first)", st.Name))
			return
		}
		s.runQuery(w, r, req, p.stmt, p.canon)
	case *sql.Stmt:
		// Ad-hoc SELECTs auto-prepare anonymously: the canonical text is the
		// plan-cache key, so a repeated query reuses its plan without an
		// explicit PREPARE.
		s.runQuery(w, r, req, st, st.Canonical())
	}
}

// handlePrepare validates and registers a named statement. PREPARE is
// metadata-only — no admission slot, no execution — but it still respects
// the drain barrier, and it binds once against the current catalog so the
// client hears about unknown tables or columns at prepare time rather than
// on the first EXECUTE.
func (s *Server) handlePrepare(w http.ResponseWriter, st *sql.PrepareStmt) {
	if s.draining.Load() {
		writeJSONError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	if _, err := sql.Bind(st.Select, s.cat.Snapshot()); err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}
	p := &preparedStmt{name: st.Name, stmt: st.Select, canon: st.Select.Canonical(), created: time.Now()}
	if err := s.addPrepared(p); err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"prepared": p.name, "sql": p.canon})
}

// runQuery admits, executes, and streams one SELECT. canon is the
// statement's canonical text, which keys the plan cache.
func (s *Server) runQuery(w http.ResponseWriter, r *http.Request, req QueryRequest, st *sql.Stmt, canon string) {
	if req.Subscribe {
		s.runSubscription(w, r, req, st, canon)
		return
	}
	if len(req.Window) > 0 {
		writeJSONError(w, http.StatusBadRequest, errors.New(`"window" requires "subscribe": true (a bounded query's results would depend on scan interleaving)`))
		return
	}
	// Register with the drain barrier first: Shutdown flips draining before
	// waiting, so a query that slips past the flag is still waited for.
	if !s.beginQuery() {
		s.met.reject()
		writeJSONError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	defer s.queries.Done()

	// Cancellation chain: client disconnect (request context) → drain
	// (base context) → session close → per-query deadline. Any of them
	// cancels qctx, which aborts the admission queue wait or stops the
	// eddy mid-route. The chain is built and the session attached BEFORE
	// admission, so the deadline bounds queue time too and a session
	// DELETE cancels its queued (not just executing) queries.
	qctx, cancel := context.WithCancelCause(r.Context())
	defer cancel(nil)
	stopBase := context.AfterFunc(s.baseCtx, func() { cancel(context.Cause(s.baseCtx)) })
	defer stopBase()

	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	var cancelT context.CancelFunc
	qctx, cancelT = context.WithTimeoutCause(qctx, deadline,
		fmt.Errorf("query deadline %v exceeded", deadline))
	defer cancelT()

	qid := s.qid.Add(1)
	if req.Session != "" {
		ss := s.attachQuery(req.Session, qid, cancel)
		if ss == nil {
			writeJSONError(w, http.StatusConflict, fmt.Errorf("session %q is closed", req.Session))
			return
		}
		defer s.detachQuery(ss, qid)
	}

	admitStart := time.Now()
	if err := s.admit(qctx); err != nil {
		s.met.reject()
		if lg := s.cfg.Logger; lg != nil {
			lg.Warn("query rejected", slog.Uint64("query_id", qid),
				slog.String("error", err.Error()), slog.String("sql", canon))
		}
		code := http.StatusTooManyRequests
		if !errors.Is(err, errBusy) {
			code = http.StatusServiceUnavailable // canceled while queued
			if errors.Is(qctx.Err(), context.DeadlineExceeded) {
				code = http.StatusGatewayTimeout
			}
		}
		writeJSONError(w, code, err)
		return
	}
	defer s.release()
	queueWait := time.Since(admitStart)
	startWall := time.Now()
	if lg := s.cfg.Logger; lg != nil {
		lg.Debug("query admitted", slog.Uint64("query_id", qid),
			slog.Float64("queue_ms", float64(queueWait)/float64(time.Millisecond)),
			slog.String("session", req.Session), slog.String("sql", canon))
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	started := false
	buf := make([]byte, 0, 256)
	sink := func(t *tuple.Tuple, out []sql.OutputCol) error {
		buf = appendRowJSON(buf[:0], t, out)
		if _, err := w.Write(buf); err != nil {
			return err
		}
		started = true
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}

	var stats execStats
	var err error
	if s.cfg.PprofLabels {
		// pprof labels are inherited by every goroutine the engine spawns,
		// so CPU profile samples attribute to the query that burned them.
		pprof.Do(qctx, pprof.Labels("query_id", strconv.FormatUint(qid, 10)), func(ctx context.Context) {
			stats, err = s.execute(ctx, req, st, canon, sink)
		})
	} else {
		stats, err = s.execute(qctx, req, st, canon, sink)
	}
	stats.QueueWait = queueWait
	if err != nil {
		cause := err
		qs := statusError
		if qctx.Err() != nil {
			qs = statusCanceled
			if c := context.Cause(qctx); c != nil {
				cause = c
			}
		}
		s.finishObserved(qid, req, canon, qs, cause, &stats, startWall)
		if started {
			// Mid-stream: the status line is long gone; report in-band.
			enc.Encode(map[string]string{"error": cause.Error()})
			return
		}
		code := http.StatusInternalServerError
		switch {
		case errors.As(err, &userError{}):
			code = http.StatusBadRequest
		case qs == statusCanceled && errors.Is(qctx.Err(), context.DeadlineExceeded):
			code = http.StatusGatewayTimeout
		case qs == statusCanceled:
			code = http.StatusServiceUnavailable
		}
		writeJSONError(w, code, cause)
		return
	}
	s.finishObserved(qid, req, canon, statusOK, nil, &stats, startWall)
	fmt.Fprintf(w, `{"done":true,"id":%d,"rows":%d,"elapsed_ms":%g,"queue_ms":%g,"routing_steps":%d,"stem_builds":%d,"index_probes":%d}`+"\n",
		qid, stats.Rows, float64(stats.Elapsed)/float64(time.Millisecond),
		float64(queueWait)/float64(time.Millisecond), stats.Routed, stats.Builds, stats.Probes)
	if req.Explain {
		enc.Encode(map[string]any{"trace": stats.Trace})
	}
	if flusher != nil {
		flusher.Flush()
	}
}

// finishObserved folds one finished execution into the metrics, the
// completed-queries ring, and the structured log. It is called exactly once
// per execution, success or failure.
func (s *Server) finishObserved(qid uint64, req QueryRequest, canon string, qs queryStatus, cause error, stats *execStats, startWall time.Time) {
	s.met.finishQuery(qs, stats.Rows, stats.Elapsed, stats.QueueWait, stats.Routed, stats.Builds, stats.Probes)
	lg := s.cfg.Logger
	if s.completed == nil && lg == nil {
		return
	}
	engine := req.Engine
	if engine == "" {
		engine = "concurrent"
	}
	polName := req.Policy
	if polName == "" {
		polName = s.cfg.Policy
	}
	rec := queryRecord{
		ID:           qid,
		Session:      req.Session,
		SQL:          canon,
		Engine:       engine,
		Policy:       polName,
		Status:       string(qs),
		Rows:         stats.Rows,
		QueueMS:      float64(stats.QueueWait) / float64(time.Millisecond),
		ElapsedMS:    float64(stats.Elapsed) / float64(time.Millisecond),
		RoutingSteps: stats.Routed,
		StemBuilds:   stats.Builds,
		IndexProbes:  stats.Probes,
		PlanCacheHit: stats.CacheHit,
		SharedStems:  stats.Shared,
		Spilled:      stats.Spilled,
		Start:        startWall,
		Modules:      stats.Trace.Modules,
	}
	if cause != nil {
		rec.Error = cause.Error()
	}
	if s.completed != nil {
		s.completed.add(rec)
	}
	if lg != nil {
		logFinished(lg, &rec, s.cfg.SlowQuery)
	}
}

// beginQuery registers the query with the drain barrier; it reports false
// when the server is draining and the query must not start.
func (s *Server) beginQuery() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining.Load() {
		return false
	}
	s.queries.Add(1)
	return true
}

// execute binds and runs one SELECT, feeding result rows to sink (see run).
// Engine-level statistics are returned even on a canceled run.
//
// Concurrent-engine queries without a memory budget run through the plan
// cache (executeCached): the bound statement is reused across executions
// with the same canonical text and knobs, and core.Exec shells are pooled.
// Sim-engine and governed queries take the fresh-build path — a spill
// governor is per-query disk state no shell may share.
func (s *Server) execute(ctx context.Context, req QueryRequest, st *sql.Stmt, canon string, sink func(*tuple.Tuple, []sql.OutputCol) error) (execStats, error) {
	var stats execStats
	start := time.Now()
	key, err := s.planKey(req, canon)
	if err != nil {
		return stats, err
	}
	// Per-query memory limit: every admitted query runs under its own byte
	// governor (real disk spill + replay), so MaxInFlight × budget bounds
	// the server's total SteM footprint. Client requests tighten the server
	// limit, never exceed it — and never enable disk spill on a server
	// whose operator left it off (client-controlled disk I/O must be an
	// operator opt-in).
	if req.MemBudgetBytes < 0 {
		return stats, userError{fmt.Errorf("mem_budget_bytes must be >= 0, got %d", req.MemBudgetBytes)}
	}
	budget := int64(0)
	if s.cfg.MemBudgetBytes > 0 {
		budget = req.MemBudgetBytes
		if budget == 0 || budget > s.cfg.MemBudgetBytes {
			budget = s.cfg.MemBudgetBytes
		}
	}

	if s.plans != nil && budget == 0 && req.Engine != "sim" {
		return s.executeCached(ctx, req, st, key, sink, start)
	}

	snap := s.cat.Snapshot()
	bound, err := sql.Bind(st, snap)
	if err != nil {
		return stats, userError{err}
	}
	spec := s.spec(bound, key, req.Engine)
	spec.SpillBudget = budget
	spec.SpillDir = s.cfg.SpillDir
	// Catalog-owned shared SteMs: governed queries stay all-private (a
	// spill governor is per-query state, and attached tables need none),
	// so attachment is gated on running without a memory budget. The
	// released-only-after-return defer is safe because both engines leave
	// zero goroutines behind when their run returns.
	if budget == 0 {
		shared, err := s.shared.planAttach(st, bound.Q, snap, key.shards)
		if err != nil {
			return stats, err
		}
		defer shared.release()
		spec.Shared = shared.statesOrNil()
		stats.Shared = shared != nil
	}
	x, err := core.New(spec)
	if err != nil {
		return stats, newExecError(err)
	}
	// Close removes every spill segment on any exit, including a session
	// DELETE or deadline canceling the run mid-join.
	defer x.Close()
	if gov := x.Governor(); gov != nil {
		defer s.trackGovernor(gov)()
	}
	err = s.run(ctx, req, x, bound, sink, &stats, start)
	return stats, err
}

// planKey resolves a request's knobs against the server defaults and
// validates its engine; the key both indexes the plan cache and seeds every
// execution spec.
func (s *Server) planKey(req QueryRequest, canon string) (planKey, error) {
	k := planKey{canon: canon, policy: req.Policy, seed: req.Seed, shards: req.Shards, batch: req.Batch}
	if k.policy == "" {
		k.policy = s.cfg.Policy
	}
	if k.seed == 0 {
		k.seed = s.cfg.Seed
	}
	if k.shards == 0 {
		k.shards = s.cfg.Shards
	}
	if k.batch == 0 {
		k.batch = s.cfg.BatchSize
	}
	switch req.Engine {
	case "", "concurrent", "sim":
		return k, nil
	}
	return k, userError{fmt.Errorf("unknown engine %q (want concurrent or sim)", req.Engine)}
}

// spec is the execution spec every server query starts from: the resolved
// knobs over the server-wide engine settings, with the trace collector on
// (GET /queries records carry module stats).
func (s *Server) spec(bound *sql.Bound, k planKey, engine string) core.Spec {
	spec := core.Spec{
		Q:           bound.Q,
		Options:     eddy.Options{Shards: k.shards},
		Policy:      k.policy,
		Seed:        k.seed,
		Engine:      core.Concurrent,
		BatchSize:   k.batch,
		Columnar:    !s.cfg.RowBatches,
		Compression: s.cfg.TimeCompression,
		Trace:       true,
	}
	if engine == "sim" {
		spec.Engine = core.Sim
	}
	return spec
}

// newExecError classifies a core.New failure: spill storage is the
// server's fault, anything else (an unknown policy, an unroutable query)
// the request's.
func newExecError(err error) error {
	if errors.Is(err, core.ErrSpill) {
		return err
	}
	return userError{err}
}

// run executes one round of x and streams its results to sink: rows flow as
// the eddy emits them unless the statement has ORDER BY or LIMIT (both are
// applied above the eddy, so those queries buffer and arrange first).
// Engine-level statistics land in stats even on a failed run; the policy's
// learned state is snapshotted into the trace only when the request asked
// for an explain.
func (s *Server) run(ctx context.Context, req QueryRequest, x *core.Exec, bound *sql.Bound, sink func(*tuple.Tuple, []sql.OutputCol) error, stats *execStats, start time.Time) error {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	streaming := len(bound.OrderBy) == 0 && bound.Limit < 0
	var sinkErr error
	emit := func(t *tuple.Tuple) {
		if sinkErr != nil {
			return
		}
		if err := sink(t, bound.Output); err != nil {
			sinkErr = err
			cancel(fmt.Errorf("client write failed: %w", err))
			return
		}
		stats.Rows++
	}
	if streaming {
		x.SetOutput(func(t *tuple.Tuple, at clock.Time) { emit(t) })
		defer x.SetOutput(nil)
	}
	outs, runErr := x.Run(ctx)

	c := x.Counters()
	stats.Routed, stats.Probes, stats.Builds = c.Routed, c.Probes, c.Builds
	stats.Spilled = c.SpilledBytes > 0
	stats.Elapsed = time.Since(start)
	var tracePol policy.Policy
	if req.Explain {
		tracePol = x.Policy()
	}
	stats.Trace = x.Trace().Record(tracePol)
	if runErr != nil {
		return runErr
	}
	if sinkErr != nil {
		return sinkErr
	}
	if !streaming {
		ts := make([]*tuple.Tuple, len(outs))
		for i, o := range outs {
			ts[i] = o.T
		}
		for _, t := range bound.Arrange(ts) {
			emit(t)
		}
	}
	return sinkErr
}

// executeCached runs one SELECT through the plan cache: the bound statement
// is shared across executions keyed by canonical text + knobs + catalog
// version, and executions (core.Exec shells) are pooled per entry. The
// routing policy stays with its shell across executions — the cache key
// pins its name and seed, so reuse only ever continues the same learner,
// and what it learned on earlier executions of the statement carries over
// (a warm plan routes better than a cold one). Every execution returns its
// shell to the pool: core.Exec resets a clean shell in place and rebuilds a
// failed one before its next run (internal/eddy/reset_test.go pins the
// in-place reset).
func (s *Server) executeCached(ctx context.Context, req QueryRequest, st *sql.Stmt, key planKey, sink func(*tuple.Tuple, []sql.OutputCol) error, start time.Time) (execStats, error) {
	var stats execStats
	snap, version := s.cat.SnapshotVersioned()
	entry, hit := s.plans.acquire(key, version)
	if !hit {
		bound, err := sql.Bind(st, snap)
		if err != nil {
			return stats, userError{err}
		}
		entry = s.plans.insert(key, version, bound)
	}
	defer entry.unref()
	bound := entry.bound

	// Shared-SteM attachments are per-execution (the sync.Pool may drop a
	// shell at any time, so a shell can never own a refcount): attach here,
	// release after the run has fully unwound. A pooled shell is reusable
	// only if it was built against exactly these states — a rebuild after
	// REGISTER or an eviction changes the pointers and the shell is
	// discarded in favor of a fresh build.
	shared, err := s.shared.planAttach(st, bound.Q, snap, key.shards)
	if err != nil {
		return stats, err
	}
	defer shared.release()

	shell := entry.getShell()
	if shell != nil && !shellSharedMatches(shell.shared, shared) {
		shell = nil
	}
	if shell == nil {
		spec := s.spec(bound, key, "")
		spec.Shared = shared.statesOrNil()
		x, err := core.New(spec)
		if err != nil {
			return stats, newExecError(err)
		}
		shell = &engineShell{x: x, shared: spec.Shared}
	}
	// The deferred put runs after the arrange/emit in run, so the shell is
	// never reusable while its outputs are still being read.
	defer entry.putShell(shell)
	stats.CacheHit = hit
	stats.Shared = shared != nil
	err = s.run(ctx, req, shell.x, bound, sink, &stats, start)
	return stats, err
}
