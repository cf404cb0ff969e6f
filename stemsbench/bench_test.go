package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/source"
	"repro/internal/sql"
	"repro/internal/tuple"
)

// stemsdBin is the stemsd binary the tests drive, built once by TestMain.
var stemsdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "stemsbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	stemsdBin = filepath.Join(dir, "stemsd")
	build := exec.Command("go", "build", "-o", stemsdBin, "../cmd/stemsd")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "build stemsd:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// contract is the part of BENCHMARK.json the self-test checks runs against.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestShortRuns runs every workload briefly, untraced and traced, and
// checks that each run is correct and reports every metric BENCHMARK.json
// names, with its unit.
func TestShortRuns(t *testing.T) {
	c := readContract(t)
	for _, wl := range c.Workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl.Name, trace), func(t *testing.T) {
				cfg := config{workload: wl.Name, seed: 11, seconds: 1.5, trace: trace,
					stemsd: stemsdBin, work: t.TempDir(), commit: "test"}
				rep, err := run(cfg, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				res := rep.result
				if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := c.EndToEnd
				if trace {
					want = c.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("reported %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if trace {
					if _, err := os.Stat(filepath.Join(cfg.work, "traces", wl.Name+"-seed11.json")); err != nil {
						t.Errorf("traced run wrote no trace: %v", err)
					}
				}
			})
		}
	}
}

// TestCheckerFlagsWrongResult proves the result checker is not vacuous: a
// real stemsd result passes against the oracle's expectation and fails
// against a deliberately wrong one, the insert-visibility checks catch
// rows from unsent inserts and missing rows of acknowledged ones, and the
// delta check catches delta rows of inserts the snapshot already held.
func TestCheckerFlagsWrongResult(t *testing.T) {
	cfg := config{workload: "serve_small", seed: 5, seconds: 1, stemsd: stemsdBin, work: t.TempDir()}
	r, cat, err := newRunner(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if err := r.setUp(true); err != nil {
		t.Fatal(err)
	}
	s := r.w.prepared[1]
	res, err := r.srv.query(context.Background(), "EXECUTE "+s.name, s.exp)
	if err != nil {
		t.Fatal(err)
	}
	if check, detail := checkResult(s.exp, &res.tally, 0, 0); check != "" {
		t.Fatalf("correct result flagged by %s: %s", check, detail)
	}

	// The wrong expectation is the oracle's answer over an orders table
	// missing its last row.
	snap := cat.Snapshot()
	orders := snap["orders"]
	short, err := source.NewTable(orders.Data.Schema, orders.Data.Rows[:len(orders.Data.Rows)-1])
	if err != nil {
		t.Fatal(err)
	}
	orders.Data = short
	wrongCat := sql.MapCatalog{}
	for k, v := range snap {
		wrongCat[k] = v
	}
	wrongCat["orders"] = orders
	wrong, err := expect(s.sql, r.w.fact, wrongCat, r.inserts)
	if err != nil {
		t.Fatal(err)
	}
	if check, _ := checkResult(wrong, &res.tally, 0, 0); check != "rows-vs-oracle" {
		t.Fatalf("wrong expectation not flagged by rows-vs-oracle (got %q)", check)
	}

	// A row of insert 0 in a result is wrong before the insert is sent and
	// allowed once it is; an acknowledged insert's rows must be present.
	var line []byte
	s.exp.plan.each(r.inserts[:1], func(combo []tuple.Row) {
		line = appendRowLine(nil, s.exp.bound.Output, combo)
	})
	withInsert := res.tally
	withInsert.addRow(s.exp, line)
	if check, _ := checkResult(s.exp, &withInsert, 0, 0); check != "insert-not-yet-sent" {
		t.Errorf("row of an unsent insert not flagged (got %q)", check)
	}
	if check, _ := checkResult(s.exp, &withInsert, 0, 1); check != "" {
		t.Errorf("row of a sent insert flagged by %s", check)
	}
	if check, _ := checkResult(s.exp, &res.tally, 1, 1); check != "acked-insert-missing" {
		t.Errorf("missing rows of an acknowledged insert not flagged (got %q)", check)
	}

	// On a subscription, insert 0's row is a delta only if the snapshot did
	// not hold it (firstInsert 0) and the insert was sent.
	for _, c := range []struct {
		line              []byte
		firstInsert, sent int
		want              string
	}{
		{line, 0, 1, ""},
		{line, 1, 1, "delta-of-snapshot-insert"},
		{line, 0, 0, "delta-before-insert"},
		{[]byte(`{"row":{"orders.id":-1}}`), 0, 1, "delta-unknown-row"},
	} {
		if _, check, _ := deltaInsert(s.exp, c.line, c.firstInsert, c.sent); check != c.want {
			t.Errorf("delta row %s (firstInsert %d, sent %d): got check %q, want %q", c.line, c.firstInsert, c.sent, check, c.want)
		}
	}
}
