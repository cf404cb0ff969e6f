package eddy

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/flow"
	"repro/internal/oracle"
	"repro/internal/pred"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/source"
)

// waitGoroutines polls until the goroutine count returns to the baseline —
// the zero-leak contract of RunContext's shutdown path.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("leaked goroutines: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunContextCancelMidQuery cancels a slow run mid-route and verifies
// the engine returns promptly with a wrapped context error and unwinds
// every goroutine it started.
func TestRunContextCancelMidQuery(t *testing.T) {
	baseline := runtime.NumGoroutine()
	q := bigTwoTableQuery(t)
	r, err := NewRouter(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Uncompressed clock: the 400 millisecond-paced scan rows take ~400ms
	// of real time, so a 5ms deadline always fires while tuples are in
	// flight (the small twoTableQuery can finish under 5ms and flake).
	eng := NewConcurrent(r, clock.NewReal(1))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = eng.RunContext(ctx)
	if err == nil {
		t.Fatal("want cancellation error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error does not wrap context.DeadlineExceeded: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
	waitGoroutines(t, baseline)
}

// TestRunLeavesNoGoroutines verifies a normally completed run also unwinds
// everything — including the event-channel drainer, which earlier versions
// leaked once per run.
func TestRunLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		q := twoTableQuery(t)
		r, err := NewRouter(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewConcurrent(r, clock.NewReal(0.00002)).Run(); err != nil {
			t.Fatal(err)
		}
	}
	waitGoroutines(t, baseline)
}

// TestRunContextPreCanceled: a context canceled before Run starts still
// returns an error and leaks nothing.
func TestRunContextPreCanceled(t *testing.T) {
	baseline := runtime.NumGoroutine()
	q := twoTableQuery(t)
	r, err := NewRouter(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewConcurrent(r, clock.NewReal(1)).RunContext(ctx); err == nil {
		t.Fatal("want cancellation error")
	}
	waitGoroutines(t, baseline)
}

// panicModule fails on its nth batch, before touching the module it wraps.
type panicModule struct {
	flow.BatchModule
	n     int32
	calls atomic.Int32
}

func (m *panicModule) ProcessBatch(b *flow.Batch, now clock.Time) ([]flow.Emission, clock.Duration) {
	if m.calls.Add(1) == m.n {
		panic("injected module fault")
	}
	return m.BatchModule.ProcessBatch(b, now)
}

// panicRouting is a Router whose module list carries one panicModule.
type panicRouting struct {
	*Router
	mods []flow.Module
}

func (p panicRouting) Modules() []flow.Module { return p.mods }

// TestModulePanicIsContained runs a query whose SteM panics on its second
// batch beside a healthy query on the same data: the failing run returns
// the panic as its error instead of killing the process, the healthy run
// still matches the oracle, and neither leaks a goroutine.
func TestModulePanicIsContained(t *testing.T) {
	baseline := runtime.NumGoroutine()
	q := bigTwoTableQuery(t)
	bad, err := NewRouter(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mods := append([]flow.Module(nil), bad.Modules()...)
	sm := bad.SteMModule(1)
	mods[sm] = &panicModule{BatchModule: flow.Lift(mods[sm]), n: 2}
	good, err := NewRouter(q, Options{})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var badErr, goodErr error
	var goodOuts []Output
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, badErr = NewConcurrent(panicRouting{bad, mods}, clock.NewReal(0.00002)).Run()
	}()
	go func() {
		defer wg.Done()
		goodOuts, goodErr = NewConcurrent(good, clock.NewReal(0.00002)).Run()
	}()
	wg.Wait()

	if badErr == nil || !strings.Contains(badErr.Error(), "injected module fault") {
		t.Errorf("panicking run: err = %v, want the contained panic", badErr)
	}
	if goodErr != nil {
		t.Fatal(goodErr)
	}
	got := make(oracle.Result)
	for _, o := range goodOuts {
		got[o.T.ResultKey()]++
	}
	if missing, extra := oracle.Diff(oracle.Compute(q), got); len(missing) > 0 || len(extra) > 0 {
		t.Errorf("healthy run beside the panic: missing=%v extra=%v", missing, extra)
	}
	waitGoroutines(t, baseline)
}

// bigTwoTableQuery joins a 400-row table against a 50-row one — enough
// simulation events (thousands) that the simulator's every-256-events
// context poll is guaranteed to run.
func bigTwoTableQuery(t *testing.T) *query.Q {
	t.Helper()
	rRows := make([][]int64, 400)
	for i := range rRows {
		rRows[i] = []int64{int64(i), int64(i % 50)}
	}
	sRows := make([][]int64, 50)
	for i := range sRows {
		sRows[i] = []int64{int64(i), int64(i) * 10}
	}
	rT := schema.MustTable("R", schema.IntCol("key"), schema.IntCol("a"))
	sT := schema.MustTable("S", schema.IntCol("x"), schema.IntCol("y"))
	return query.MustNew(
		[]*schema.Table{rT, sT},
		[]pred.P{pred.EquiJoin(0, 1, 1, 0)},
		[]query.AMDecl{
			scanAM(0, source.MustTable(rT, rowsOf(rRows)), clock.Millisecond),
			scanAM(1, source.MustTable(sT, rowsOf(sRows)), clock.Millisecond),
		},
	)
}

// TestSimCtxCancel verifies the simulator's polling cancellation without
// touching its default (nil-Ctx, bit-identical) behavior.
func TestSimCtxCancel(t *testing.T) {
	r, err := NewRouter(bigTwoTableQuery(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSim(r)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.Run(); err != nil {
		t.Fatalf("nil-Ctx run must be unaffected: %v", err)
	}

	r2, err := NewRouter(bigTwoTableQuery(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sim2 := NewSim(r2)
	sim2.Ctx = ctx
	if _, err := sim2.Run(); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sim run: err = %v, want context.Canceled", err)
	}
}
