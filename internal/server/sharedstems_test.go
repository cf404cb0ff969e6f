// sharedstems_test.go is the adversarial harness for catalog-owned shared
// SteMs: server-level result equivalence against a private-state server,
// a -race lifecycle storm mixing concurrent attach/detach with REGISTER
// invalidation and session cancellation mid-probe, and capacity eviction.
package server

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// metricValue extracts one un-labeled metric's value from an exposition body.
func metricValue(t *testing.T, met, name string) uint64 {
	t.Helper()
	for _, line := range strings.Split(met, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			var n uint64
			fmt.Sscanf(rest, "%d", &n)
			return n
		}
	}
	t.Fatalf("metrics missing %q", name)
	return 0
}

// TestServerSharedStemsAgree is the server-level half of the tentpole's
// equivalence claim: 8 concurrent queries on a shared-SteM server must
// return exactly the rows a private-state server returns, while building
// each shared table's state exactly once.
func TestServerSharedStemsAgree(t *testing.T) {
	_, pts, pclient := newTestServer(t, memCatalog(t, time.Microsecond), Config{})
	want := rowMultiset(postQuery(t, pclient, pts.URL, map[string]any{"sql": threeWayJoin}).rows)
	if len(want) == 0 {
		t.Fatal("private-state oracle produced no rows")
	}

	srv, ts, client := newTestServer(t, memCatalog(t, time.Microsecond), Config{
		MaxInFlight: 8,
		SharedStems: true,
	})
	const concurrent = 8
	var wg sync.WaitGroup
	for g := 0; g < concurrent; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res := postQuery(t, client, ts.URL, map[string]any{"sql": threeWayJoin})
			if res.status != http.StatusOK || res.errLine != "" {
				t.Errorf("query %d: status=%d err=%q", g, res.status, res.errLine)
				return
			}
			if got := rowMultiset(res.rows); !sameMultiset(want, got) {
				t.Errorf("query %d diverges from private-state server: %d distinct rows, want %d", g, len(got), len(want))
			}
		}(g)
	}
	wg.Wait()

	// memCatalog's s (2 rows) is the driver; r and u attach, so exactly two
	// builds serve all 8 queries (2 attachments each).
	met := metricsBody(t, client, ts.URL)
	if builds := metricValue(t, met, "stemsd_shared_stem_builds_total"); builds != 2 {
		t.Errorf("shared builds = %d, want exactly 2 (one per attached table): %s", builds, srv.shared.debugString())
	}
	attached := metricValue(t, met, "stemsd_shared_stem_attached_total")
	if attached != 2*concurrent {
		t.Errorf("attachments = %d, want %d", attached, 2*concurrent)
	}
	if detached := metricValue(t, met, "stemsd_shared_stem_detaches_total"); detached != attached {
		t.Errorf("detaches = %d, want %d (idle server must hold no references)", detached, attached)
	}
	if resident := metricValue(t, met, "stemsd_shared_stem_resident_bytes"); resident == 0 {
		t.Error("resident-bytes gauge is 0 with two live shared states")
	}
	for k, refs := range srv.shared.refSnapshot() {
		if refs != 0 {
			t.Errorf("entry %v still holds %d references after all queries finished", k, refs)
		}
	}

	// The sim engine attaches through the same planner and must agree too.
	res := postQuery(t, client, ts.URL, map[string]any{"sql": threeWayJoin, "engine": "sim"})
	if res.status != http.StatusOK {
		t.Fatalf("sim engine: status=%d err=%q", res.status, res.errLine)
	}
	if got := rowMultiset(res.rows); !sameMultiset(want, got) {
		t.Errorf("sim engine diverges on shared state: %d distinct rows, want %d", len(got), len(want))
	}
}

// TestSharedStemsStormLifecycle is the refcount/lifecycle storm (run under
// -race in CI): 8 workers hammer a join whose big side is shared AND spilled
// to disk, while one goroutine re-REGISTERs that table (pointer change →
// lazy staleness → rebuild, with old state torn down only after its last
// reference drops) and another cancels session-scoped queries mid-probe.
// Afterward: zero leaked goroutines, zero leaked spill directories, every
// refcount at zero, and attach/detach counters balanced.
func TestSharedStemsStormLifecycle(t *testing.T) {
	baseline := runtime.NumGoroutine()
	dir := t.TempDir()
	spillDir := t.TempDir()
	var rcsv, scsv strings.Builder
	rcsv.WriteString("key,a\n")
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&rcsv, "%d,%d\n", i, i%20)
	}
	scsv.WriteString("x,y\n")
	for j := 0; j < 20; j++ {
		fmt.Fprintf(&scsv, "%d,%d\n", j, j*7)
	}
	for name, content := range map[string]string{"r.csv": rcsv.String(), "s.csv": scsv.String()} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	const q = "SELECT r.key, s.y FROM r, s WHERE r.a = s.x"

	// Oracle: a private-state server over the same CSVs.
	ocat := NewCatalog(time.Microsecond, "")
	for _, n := range []string{"r", "s"} {
		if _, err := ocat.RegisterLocalCSV(n, filepath.Join(dir, n+".csv"), nil); err != nil {
			t.Fatal(err)
		}
	}
	osrv, ots, oclient := newTestServer(t, ocat, Config{})
	want := rowMultiset(postQuery(t, oclient, ots.URL, map[string]any{"sql": q}).rows)
	if len(want) != 400 {
		t.Fatalf("oracle produced %d distinct rows, want 400", len(want))
	}

	cat := NewCatalog(time.Microsecond, dir)
	for _, n := range []string{"r", "s"} {
		if _, err := cat.RegisterLocalCSV(n, filepath.Join(dir, n+".csv"), nil); err != nil {
			t.Fatal(err)
		}
	}
	// The 2KB budget forces r's shared build to hold most rows in sealed
	// spill segments, so concurrent probes exercise the disk path and
	// teardown must remove segment directories.
	srv, ts, client := newTestServer(t, cat, Config{
		MaxInFlight:          8,
		QueueDepth:           256,
		SharedStems:          true,
		SharedStemSpillBytes: 2048,
		SpillDir:             spillDir,
	})

	stop := make(chan struct{})
	var churn sync.WaitGroup

	// Catalog churner: re-REGISTER r with identical content. Every pass
	// replaces the *source.Table, so the shared entry goes stale and the
	// next attach rebuilds while in-flight probes finish on the old state.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			res := postQuery(t, client, ts.URL, map[string]any{"sql": "REGISTER TABLE r FROM 'r.csv'"})
			if res.status != http.StatusOK && res.status != http.StatusTooManyRequests {
				t.Errorf("mid-storm REGISTER: status=%d err=%q", res.status, res.errLine)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Session canceller: cancel a query mid-probe; its release must still
	// run exactly once (the refcount balance below catches double or missed
	// releases), and completed-first runs must match the oracle.
	churn.Add(1)
	go func() {
		defer churn.Done()
		var inner sync.WaitGroup
		defer inner.Wait()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			session := fmt.Sprintf("cancel-%d", i)
			inner.Add(1)
			go func() {
				defer inner.Done()
				res := postQuery(t, client, ts.URL, map[string]any{"sql": q, "session": session})
				if res.status == http.StatusOK && res.errLine == "" && res.trailer != nil {
					if got := rowMultiset(res.rows); !sameMultiset(want, got) {
						t.Errorf("canceled-session run completed with wrong rows: %d distinct, want %d", len(got), len(want))
					}
				}
			}()
			time.Sleep(time.Millisecond)
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/session/"+session, nil)
			if resp, err := client.Do(req); err == nil {
				resp.Body.Close()
			}
			inner.Wait()
		}
	}()

	var workers sync.WaitGroup
	for w := 0; w < 8; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for i := 0; i < 25; i++ {
				res := postQuery(t, client, ts.URL, map[string]any{"sql": q})
				if res.status != http.StatusOK {
					t.Errorf("worker %d run %d: status=%d err=%q", w, i, res.status, res.errLine)
					return
				}
				if got := rowMultiset(res.rows); !sameMultiset(want, got) {
					t.Errorf("worker %d run %d: rows diverge from private-state server (%d distinct, want %d)",
						w, i, len(got), len(want))
					return
				}
			}
		}(w)
	}
	workers.Wait()
	close(stop)
	churn.Wait()

	builds, attaches, detaches, _ := srv.shared.counts()
	if builds < 2 {
		t.Errorf("builds = %d, want ≥ 2 (REGISTER churn must have forced rebuilds)", builds)
	}
	if attaches != detaches {
		t.Errorf("attaches = %d but detaches = %d; a reference leaked or double-released", attaches, detaches)
	}
	for k, refs := range srv.shared.refSnapshot() {
		if refs != 0 {
			t.Errorf("entry %v still holds %d references after the storm", k, refs)
		}
	}

	srv.Shutdown(time.Second)
	osrv.Shutdown(time.Second)
	ts.Close()
	ots.Close()
	client.CloseIdleConnections()
	oclient.CloseIdleConnections()

	// Shutdown closed every shared state, which removes its spill segments;
	// anything left under the spill dir is a leaked file descriptor's corpse.
	leftovers, err := filepath.Glob(filepath.Join(spillDir, "stems-shared-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Errorf("leaked shared spill directories after shutdown: %v", leftovers)
	}
	waitForGoroutines(t, baseline)
}

// TestSharedStemsEviction pins the capacity path: a 1-byte cap means every
// entry is over budget, so attaching a second table's state evicts the
// first's as soon as it is idle — but never while referenced.
func TestSharedStemsEviction(t *testing.T) {
	srv, ts, client := newTestServer(t, memCatalog(t, time.Microsecond), Config{
		SharedStems:     true,
		SharedStemBytes: 1,
	})
	q1 := "SELECT r.key FROM r, s WHERE r.a = s.x"
	q2 := "SELECT u.q FROM s, u WHERE s.y = u.p"
	if res := postQuery(t, client, ts.URL, map[string]any{"sql": q1}); res.status != http.StatusOK {
		t.Fatalf("q1: status=%d err=%q", res.status, res.errLine)
	}
	if res := postQuery(t, client, ts.URL, map[string]any{"sql": q2}); res.status != http.StatusOK {
		t.Fatalf("q2: status=%d err=%q", res.status, res.errLine)
	}
	_, _, _, evictions := srv.shared.counts()
	if evictions == 0 {
		t.Errorf("evictions = 0, want > 0 under a 1-byte cap: %s", srv.shared.debugString())
	}
	if n := srv.shared.entryCount(); n > 1 {
		t.Errorf("entryCount = %d, want ≤ 1 under a 1-byte cap", n)
	}
	// Eviction must not have hurt correctness: q1 again rebuilds and agrees.
	res := postQuery(t, client, ts.URL, map[string]any{"sql": q1})
	if res.status != http.StatusOK {
		t.Fatalf("q1 after eviction: status=%d err=%q", res.status, res.errLine)
	}
	if len(res.rows) != 3 {
		t.Errorf("q1 after eviction returned %d rows, want 3", len(res.rows))
	}
	srv.Shutdown(time.Second)
}

// TestSharedSpillReadFailureIsAnError truncates the sealed segments of a
// shared, spilled SteM under the server's spill dir and checks that the
// failed reads reach the client as an error — on the plan-cache path
// (EXECUTE) and on the fresh-build path (an ad-hoc sim-engine SELECT) —
// instead of a 200 with rows missing. The failed state is retired on
// release, so the next query rebuilds it and gets every row again.
func TestSharedSpillReadFailureIsAnError(t *testing.T) {
	dir := t.TempDir()
	spillDir := t.TempDir()
	var rcsv, scsv strings.Builder
	rcsv.WriteString("key,a\n")
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&rcsv, "%d,%d\n", i, i%20)
	}
	scsv.WriteString("x,y\n")
	for j := 0; j < 20; j++ {
		fmt.Fprintf(&scsv, "%d,%d\n", j, j*7)
	}
	cat := NewCatalog(time.Microsecond, dir)
	for name, content := range map[string]string{"r": rcsv.String(), "s": scsv.String()} {
		path := filepath.Join(dir, name+".csv")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := cat.RegisterLocalCSV(name, path, nil); err != nil {
			t.Fatal(err)
		}
	}
	// s (20 rows) drives; r's shared build keeps most rows in sealed spill
	// segments under the 2KB budget, so every query reads them.
	_, ts, client := newTestServer(t, cat, Config{
		SharedStems:          true,
		SharedStemSpillBytes: 2048,
		SpillDir:             spillDir,
	})
	const q = "SELECT r.key, s.y FROM r, s WHERE r.a = s.x"
	if res := postQuery(t, client, ts.URL, map[string]any{"sql": "PREPARE hot AS " + q}); res.status != http.StatusOK {
		t.Fatalf("PREPARE: status=%d err=%q", res.status, res.errLine)
	}
	complete := func(what string, body map[string]any) {
		t.Helper()
		res := postQuery(t, client, ts.URL, body)
		if res.status != http.StatusOK || res.errLine != "" || len(res.rows) != 400 {
			t.Fatalf("%s: status=%d rows=%d err=%q, want 200 with 400 rows", what, res.status, len(res.rows), res.errLine)
		}
	}
	for _, body := range []map[string]any{
		{"sql": "EXECUTE hot"},
		{"sql": q, "engine": "sim"},
	} {
		complete(fmt.Sprint(body, " before the fault"), body)
		segs, err := filepath.Glob(filepath.Join(spillDir, "stems-shared-*", "*.seg"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no shared spill segments under %s (err %v)", spillDir, err)
		}
		for _, seg := range segs {
			if err := os.Truncate(seg, 0); err != nil {
				t.Fatal(err)
			}
		}
		res := postQuery(t, client, ts.URL, body)
		if res.status == http.StatusOK && res.errLine == "" {
			t.Errorf("%v: 200 with %d of 400 rows after a failed spill read, want an error", body, len(res.rows))
		}
		complete(fmt.Sprint(body, " after the fault"), body)
	}
}
