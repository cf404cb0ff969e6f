// subscribe.go serves standing queries: a POST /query with "subscribe":true
// binds a SELECT once, runs it to quiescence over the tables' current rows,
// and then — instead of winding the engine down — keeps the router, the
// engine shell, and every SteM dictionary resident on the open response.
// Each INSERT into a subscribed table wakes the loop, which feeds the new
// rows through the same eddy as singleton tuples and streams only the new
// join results: the delta.
//
// Delta exactness rests on the SteM timestamp constraint: a probe matches
// only strictly-older builds, so each join result is produced exactly once,
// by its last-arriving component — the union of the snapshot and every
// delta equals a batch run over the final table state, with no result
// duplicated and none missed (TestSubscribeDeltaExact).
//
// Lifecycle: the subscription records each FROM table's catalog generation
// at bind. Appends keep the generation and grow the rows — a delta round.
// A REGISTER replacing the table bumps the generation — the new table has
// no delta relationship to the old one, so the subscription ends cleanly
// with reason "table replaced". Client disconnect, session DELETE, an
// explicit deadline, and server drain all unwind through the same
// cancellation chain bounded queries use; drain additionally closes a
// dedicated channel so subscriptions (which never finish on their own)
// stop immediately instead of holding the drain for its full timeout.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/sql"
	"repro/internal/tuple"
)

// subTable tracks one subscribed catalog table: the FROM positions it feeds
// (several for a self-join), the generation the subscription bound, and how
// many of its rows have been fed through the eddy.
type subTable struct {
	source    string
	positions []int
	gen       uint64
	seen      int
}

// runSubscription executes one standing query on the open response stream.
func (s *Server) runSubscription(w http.ResponseWriter, r *http.Request, req QueryRequest, st *sql.Stmt, canon string) {
	if !s.beginQuery() {
		s.met.reject()
		writeJSONError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	defer s.queries.Done()

	key, err := s.planKey(req, canon)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}
	switch {
	case req.Explain:
		writeJSONError(w, http.StatusBadRequest, errors.New("explain is not supported on subscriptions"))
		return
	case req.MemBudgetBytes != 0:
		writeJSONError(w, http.StatusBadRequest, errors.New("subscriptions run ungoverned; mem_budget_bytes is not supported"))
		return
	}

	// Cancellation chain: client disconnect → drain cancel → session close
	// → explicit deadline. Unlike bounded queries, no default deadline is
	// applied — a standing query's life is the client's to bound.
	qctx, cancel := context.WithCancelCause(r.Context())
	defer cancel(nil)
	stopBase := context.AfterFunc(s.baseCtx, func() { cancel(context.Cause(s.baseCtx)) })
	defer stopBase()
	if req.DeadlineMS > 0 {
		var cancelT context.CancelFunc
		qctx, cancelT = context.WithTimeoutCause(qctx, time.Duration(req.DeadlineMS)*time.Millisecond,
			fmt.Errorf("subscription deadline %dms exceeded", req.DeadlineMS))
		defer cancelT()
	}

	qid := s.qid.Add(1)
	if req.Session != "" {
		ss := s.attachQuery(req.Session, qid, cancel)
		if ss == nil {
			writeJSONError(w, http.StatusConflict, fmt.Errorf("session %q is closed", req.Session))
			return
		}
		defer s.detachQuery(ss, qid)
	}

	// A subscription holds its execution slot for its whole life:
	// MaxInFlight bounds queries and live subscribers together, so a
	// subscriber storm cannot oversubscribe the engine.
	admitStart := time.Now()
	if err := s.admit(qctx); err != nil {
		s.met.reject()
		code := http.StatusTooManyRequests
		if !errors.Is(err, errBusy) {
			code = http.StatusServiceUnavailable
		}
		writeJSONError(w, code, err)
		return
	}
	defer s.release()
	queueWait := time.Since(admitStart)
	startWall := time.Now()

	// Bind against a snapshot taken atomically with the generations: a
	// mutation after this point is either in the snapshot or wakes the loop.
	snap, gens := s.cat.SnapshotSubscribe()
	bound, err := sql.Bind(st, snap)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}
	if len(bound.OrderBy) > 0 || bound.Limit >= 0 {
		writeJSONError(w, http.StatusBadRequest, errors.New("subscriptions stream indefinitely; ORDER BY and LIMIT are not supported"))
		return
	}
	// One subTable per distinct source, covering every FROM position it
	// feeds. Index AMs are rejected: an index answers probes from the frozen
	// copy of the table it was built over, which would silently miss
	// inserted rows.
	var tabs []*subTable
	byName := make(map[string]*subTable)
	for i, ref := range st.From {
		src, _ := snap.Source(ref.Source)
		if len(src.Indexes) > 0 {
			writeJSONError(w, http.StatusBadRequest,
				fmt.Errorf("table %q has index access methods; subscriptions require scan-only tables", ref.Source))
			return
		}
		tb := byName[ref.Source]
		if tb == nil {
			tb = &subTable{source: ref.Source, gen: gens[ref.Source], seen: len(src.Data.Rows)}
			byName[ref.Source] = tb
			tabs = append(tabs, tb)
		}
		tb.positions = append(tb.positions, i)
	}

	spec := s.spec(bound, key, req.Engine)
	spec.Trace = false
	if len(req.Window) > 0 {
		// Window keys name tables as the query sees them (aliases included),
		// mapping onto FROM positions.
		wins := make([]int, len(bound.Q.Tables))
		byPos := make(map[string]int, len(bound.Q.Tables))
		for i, tb := range bound.Q.Tables {
			byPos[tb.Name] = i
		}
		for name, n := range req.Window {
			i, ok := byPos[name]
			if !ok {
				writeJSONError(w, http.StatusBadRequest, fmt.Errorf("window table %q is not in the FROM clause", name))
				return
			}
			if n <= 0 {
				writeJSONError(w, http.StatusBadRequest, fmt.Errorf("window for table %q must be positive, got %d", name, n))
				return
			}
			wins[i] = n
		}
		spec.Options.WindowFor = func(t int) int { return wins[t] }
	}
	x, err := core.New(spec)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}

	s.subs.Add(1)
	defer s.subs.Add(-1)
	if lg := s.cfg.Logger; lg != nil {
		lg.Debug("subscription opened", slog.Uint64("query_id", qid),
			slog.String("session", req.Session), slog.String("sql", canon))
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	started := false
	buf := make([]byte, 0, 256)
	var stats execStats
	stats.QueueWait = queueWait
	var sinkErr error
	emit := func(t *tuple.Tuple, at clock.Time) {
		if sinkErr != nil {
			return
		}
		buf = appendRowJSON(buf[:0], t, bound.Output)
		if _, err := w.Write(buf); err != nil {
			sinkErr = err
			cancel(fmt.Errorf("client write failed: %w", err))
			return
		}
		started = true
		stats.Rows++
	}
	flush := func() {
		if flusher != nil && sinkErr == nil {
			flusher.Flush()
		}
	}
	// finish reports the subscription's end exactly once: into the metrics
	// and the completed ring via finishObserved, and to the client as a
	// final NDJSON line carrying the reason.
	finish := func(qs queryStatus, cause error, reason string) {
		stats.Elapsed = time.Since(startWall)
		s.finishObserved(qid, req, canon, qs, cause, &stats, startWall)
		if sinkErr != nil {
			return // the connection is gone; nothing to report to
		}
		if cause != nil {
			enc.Encode(map[string]string{"error": cause.Error()})
			return
		}
		fmt.Fprintf(w, `{"done":true,"id":%d,"rows":%d,"reason":%q}`+"\n", qid, stats.Rows, reason)
		flush()
	}

	// Round 0: the snapshot.
	x.SetOutput(emit)
	_, runErr := x.Run(qctx)
	if runErr != nil {
		cause, qs := subscriptionFailure(qctx, runErr, sinkErr)
		if started || sinkErr != nil {
			finish(qs, cause, "")
		} else {
			stats.Elapsed = time.Since(startWall)
			s.finishObserved(qid, req, canon, qs, cause, &stats, startWall)
			writeJSONError(w, http.StatusInternalServerError, cause)
		}
		return
	}
	fmt.Fprintf(w, `{"snapshot":true,"id":%d,"rows":%d}`+"\n", qid, stats.Rows)
	started = true
	flush()

	// The standing loop: wake on catalog changes, feed new rows, go back to
	// sleep. The Changed channel is taken BEFORE the state is read, so a
	// mutation between read and select closes the already-held channel and
	// the loop re-reads — no change can be missed.
	for {
		changed := s.cat.Changed()
		var ts []*tuple.Tuple
		for _, tb := range tabs {
			src, gen, ok := s.cat.SourceGen(tb.source)
			if !ok || gen != tb.gen {
				finish(statusOK, nil, fmt.Sprintf("table %q replaced", tb.source))
				return
			}
			rows := src.Data.Rows
			for _, row := range rows[tb.seen:] {
				for _, pos := range tb.positions {
					ts = append(ts, tuple.NewSingleton(len(bound.Q.Tables), pos, row))
				}
			}
			tb.seen = len(rows)
		}
		if len(ts) > 0 {
			// Delta round: injected singletons take fresh timestamps from
			// the router's persistent counter, so they join against every
			// strictly-older build and nothing else.
			_, runErr = x.RunDelta(qctx, ts)
			if runErr != nil {
				cause, qs := subscriptionFailure(qctx, runErr, sinkErr)
				finish(qs, cause, "")
				return
			}
			flush()
			continue // appends may have landed during the round
		}
		select {
		case <-qctx.Done():
			finish(statusCanceled, context.Cause(qctx), "")
			return
		case <-s.drainCh:
			finish(statusOK, nil, "draining")
			return
		case <-changed:
		}
	}
}

// subscriptionFailure classifies a failed round for the metrics and picks
// the cause the client should hear: the context cause when the run was
// canceled (deadline, disconnect, drain, session close), the engine error
// otherwise.
func subscriptionFailure(qctx context.Context, runErr, sinkErr error) (error, queryStatus) {
	if qctx.Err() != nil {
		cause := context.Cause(qctx)
		if cause == nil {
			cause = runErr
		}
		return cause, statusCanceled
	}
	if sinkErr != nil {
		return sinkErr, statusCanceled
	}
	return runErr, statusError
}
