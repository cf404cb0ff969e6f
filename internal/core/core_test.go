package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/eddy"
	"repro/internal/oracle"
	"repro/internal/pred"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/source"
	"repro/internal/stem"
	"repro/internal/tuple"
	"repro/internal/value"
)

var (
	rT = schema.MustTable("R", schema.IntCol("k"), schema.IntCol("a"))
	sT = schema.MustTable("S", schema.IntCol("x"), schema.IntCol("y"))
)

// rows returns n two-column rows {i, 10i} for i in [from, from+n).
func rows(from, n int) []tuple.Row {
	out := make([]tuple.Row, n)
	for i := range out {
		v := int64(from + i)
		out[i] = tuple.Row{value.NewInt(v), value.NewInt(10 * v)}
	}
	return out
}

// join builds R ⋈ S on R.k = S.x over the given rows, both tables scanned.
// With indexOnlyS, S is reachable only through an index AM, which a spec
// can then disable (a dead source) to leave R's tuples with no legal route.
func join(t *testing.T, rRows, sRows []tuple.Row, indexOnlyS bool) *query.Q {
	t.Helper()
	scan := source.ScanSpec{InterArrival: clock.Millisecond}
	sAM := query.AMDecl{Table: 1, Kind: query.Scan, Data: source.MustTable(sT, sRows), ScanSpec: scan}
	if indexOnlyS {
		sAM = query.AMDecl{Table: 1, Kind: query.Index, Data: sAM.Data,
			IndexSpec: source.IndexSpec{KeyCols: []int{0}, Latency: clock.Millisecond}}
	}
	return query.MustNew([]*schema.Table{rT, sT},
		[]pred.P{pred.EquiJoin(0, 0, 1, 0)},
		[]query.AMDecl{{Table: 0, Kind: query.Scan, Data: source.MustTable(rT, rRows), ScanSpec: scan}, sAM})
}

// fixture is the 2×2 join with two results.
func fixture(t *testing.T) *query.Q { return join(t, rows(1, 2), rows(1, 2), false) }

func resultOf(outs []eddy.Output) oracle.Result {
	got := make(oracle.Result)
	for _, o := range outs {
		got[o.T.ResultKey()]++
	}
	return got
}

func sameResult(t *testing.T, want, got oracle.Result) {
	t.Helper()
	if m, e := oracle.Diff(want, got); len(m) > 0 || len(e) > 0 {
		t.Errorf("missing=%v extra=%v", m, e)
	}
}

func mustNew(t *testing.T, spec Spec) *Exec {
	t.Helper()
	if spec.Compression == 0 {
		spec.Compression = 0.0001
	}
	x, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { x.Close() })
	return x
}

// sharedS builds S's rows as sealed shared state whose every row lives in a
// spill segment, then truncates the segments so the first probe read fails.
func sharedS(t *testing.T, q *query.Q) *stem.SharedState {
	t.Helper()
	dir := t.TempDir()
	ss, err := stem.BuildShared(stem.SharedConfig{KeyCols: stem.JoinCols(q, 1), BudgetBytes: 1, SpillDir: dir},
		q.AMs[1].Data.Rows)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ss.Close() })
	segs, _ := filepath.Glob(filepath.Join(dir, "stems-shared-*", "*.seg"))
	if len(segs) == 0 {
		t.Fatal("shared build spilled nothing")
	}
	for _, seg := range segs {
		if err := os.Truncate(seg, 0); err != nil {
			t.Fatal(err)
		}
	}
	return ss
}

// breakSpill removes the spill governor's run directory, so every spill
// write of the coming run fails.
func breakSpill(t *testing.T, x *Exec) {
	t.Helper()
	if err := os.RemoveAll(x.Governor().SpillDir()); err != nil {
		t.Fatal(err)
	}
}

func canceled() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

var engines = []struct {
	name string
	eng  Engine
}{{"sim", Sim}, {"concurrent", Concurrent}}

// TestExecPostRunChecks fires the post-run checks in combination and
// asserts the first one in the documented order wins: run error, stuck
// tuples, governor error, shared-state error.
func TestExecPostRunChecks(t *testing.T) {
	dead := eddy.Options{DisabledAMs: map[int]bool{1: true}}
	cases := []struct {
		name string
		// spec builds the Exec's spec; prep breaks things after New.
		spec func(t *testing.T) Spec
		prep func(t *testing.T, x *Exec)
		ctx  context.Context
		want func(err error) bool
	}{
		{
			name: "run error before stuck",
			spec: func(t *testing.T) Spec {
				return Spec{Q: join(t, rows(0, 400), rows(0, 40), true), Options: dead}
			},
			ctx:  canceled(),
			want: func(err error) bool { return errors.Is(err, context.Canceled) },
		},
		{
			// stemsql runs through Exec, so this is the check it gained.
			name: "stuck before governor",
			spec: func(t *testing.T) Spec {
				return Spec{Q: join(t, rows(0, 4), rows(0, 4), true), Options: dead,
					SpillBudget: 1, SpillDir: t.TempDir()}
			},
			prep: breakSpill,
			want: func(err error) bool { return strings.Contains(err.Error(), "no legal route") },
		},
		{
			name: "governor before shared",
			spec: func(t *testing.T) Spec {
				q := join(t, rows(0, 4), rows(0, 4), false)
				return Spec{Q: q, SpillBudget: 1, SpillDir: t.TempDir(),
					Shared: []*stem.SharedState{nil, sharedS(t, q)}}
			},
			prep: breakSpill,
			want: func(err error) bool {
				return errors.Is(err, ErrSpill) && strings.Contains(err.Error(), "fell back")
			},
		},
		{
			name: "shared",
			spec: func(t *testing.T) Spec {
				q := join(t, rows(0, 4), rows(0, 4), false)
				return Spec{Q: q, Shared: []*stem.SharedState{nil, sharedS(t, q)}}
			},
			want: func(err error) bool {
				return errors.Is(err, ErrSpill) && strings.Contains(err.Error(), `shared state for "S"`)
			},
		},
	}
	for _, e := range engines {
		for _, tc := range cases {
			t.Run(e.name+"/"+tc.name, func(t *testing.T) {
				spec := tc.spec(t)
				spec.Engine = e.eng
				x := mustNew(t, spec)
				if tc.prep != nil {
					tc.prep(t, x)
				}
				ctx := tc.ctx
				if ctx == nil {
					ctx = context.Background()
				}
				_, err := x.Run(ctx)
				if err == nil || !tc.want(err) {
					t.Fatalf("err = %v", err)
				}
				if !x.dirty {
					t.Error("failed run left the Exec clean")
				}
			})
		}
	}
}

// TestExecReset runs an Exec repeatedly: a clean run resets in place (same
// router, learned policy kept), a failed run rebuilds, and every round
// returns the oracle result with counters of its own.
func TestExecReset(t *testing.T) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			q := join(t, rows(0, 300), rows(0, 300), false)
			want := oracle.Compute(q)
			x := mustNew(t, Spec{Q: q, Engine: e.eng, Trace: true})
			outs, err := x.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, want, resultOf(outs))
			first := x.Counters()
			r, pol := x.r, x.Policy()

			outs, err = x.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, want, resultOf(outs))
			if x.r != r || x.Policy() != pol {
				t.Error("clean run was rebuilt, want reset in place")
			}
			if c := x.Counters(); c.Builds != first.Builds {
				t.Errorf("builds after reset = %d, want %d", c.Builds, first.Builds)
			}
			if got := x.Trace().Results(); got != uint64(len(want)) {
				t.Errorf("trace results after reset = %d, want %d", got, len(want))
			}

			if _, err := x.Run(canceled()); err == nil {
				t.Fatal("canceled run returned no error")
			}
			outs, err = x.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, want, resultOf(outs))
			if x.r == r {
				t.Error("dirty run was reset in place, want rebuild")
			}
		})
	}
}

// TestExecCloseRemovesSpill checks that Close removes the owned governor's
// spill segments, and that a Reset under a spill budget starts a fresh
// governor.
func TestExecCloseRemovesSpill(t *testing.T) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			dir := t.TempDir()
			q := join(t, rows(0, 50), rows(0, 50), false)
			x := mustNew(t, Spec{Q: q, Engine: e.eng, SpillBudget: 1, SpillDir: dir})
			for i := 0; i < 2; i++ {
				outs, err := x.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, oracle.Compute(q), resultOf(outs))
				if x.Counters().SpilledBuilds == 0 {
					t.Fatal("nothing spilled under a 1-byte budget")
				}
			}
			if left, _ := os.ReadDir(dir); len(left) != 1 {
				t.Fatalf("%d spill run directories before Close, want 1", len(left))
			}
			if err := x.Close(); err != nil {
				t.Fatal(err)
			}
			if left, _ := os.ReadDir(dir); len(left) != 0 {
				t.Errorf("Close left %d entries in the spill dir", len(left))
			}
		})
	}
}

// TestExecRunDeltaMatchesBatch runs half of R, then feeds the other half as
// delta rounds; the union of the rounds equals the batch oracle.
func TestExecRunDeltaMatchesBatch(t *testing.T) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			x := mustNew(t, Spec{Q: join(t, rows(0, 20), rows(0, 40), false), Engine: e.eng})
			if _, err := x.RunDelta(context.Background(), nil); err == nil {
				t.Error("RunDelta before any round succeeded")
			}
			outs, err := x.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			got := resultOf(outs)
			for _, rw := range rows(20, 20) {
				d, err := x.RunDelta(context.Background(), []*tuple.Tuple{tuple.NewSingleton(2, 0, rw)})
				if err != nil {
					t.Fatal(err)
				}
				for k, n := range resultOf(d) {
					got[k] += n
				}
			}
			sameResult(t, oracle.Compute(join(t, rows(0, 40), rows(0, 40), false)), got)
		})
	}
}

func TestExecuteSimulated(t *testing.T) {
	q := fixture(t)
	outs, err := mustNew(t, Spec{Q: q}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, oracle.Compute(q), resultOf(outs))
}

func TestExecuteThreaded(t *testing.T) {
	outs, err := mustNew(t, Spec{Q: fixture(t), Engine: Concurrent}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("got %d results, want 2", len(outs))
	}
}

func TestExecuteDeadline(t *testing.T) {
	x := mustNew(t, Spec{Q: fixture(t), Deadline: clock.Time(clock.Microsecond)}) // before any scan row
	outs, err := x.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 0 {
		t.Errorf("deadline run produced %d results", len(outs))
	}
}
