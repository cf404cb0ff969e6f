package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/tuple"
	"repro/internal/value"
)

// table is one generated CSV table. Every column holds either integers or
// alphanumeric strings, so csvload infers the same kinds the generator used.
type table struct {
	name string
	cols []string
	rows []tuple.Row
}

// request is one reader request: the text sent to stemsd and the SELECT whose
// result it returns.
type request struct {
	send string // EXECUTE name, or the ad-hoc SELECT itself
	stmt *stmt
}

// phase is one stretch of a run. A phase uses at most two connections:
// readers, a writer and a subscription together.
type phase struct {
	share   float64 // fraction of --seconds
	readers int     // closed-loop reader clients
	rate    float64 // open-loop inserts per second into the fact table; 0 = no writer
	sub     bool    // hold the standing query open for the phase
}

// tails are the percentiles reported as *_tail_ms: the highest of p50, p75,
// p85, p90, p95, p98 and p99 with at least ten samples beyond it in a
// 25-second run, except that serve_small's query tail is p95: its p99
// spread 0.26 across seeds, too unsteady to gate.
type tails struct{ query, insert, delta float64 }

// workload is one traffic mix against one generated schema.
type workload struct {
	name        string
	tables      []*table
	fact        string                // the table inserts go to
	newFact     func(i int) tuple.Row // the i-th inserted fact row (fresh key)
	prepared    []*stmt               // PREPAREd at set-up, in order
	adhoc       []*stmt               // ad-hoc SELECTs readers may send
	subscribe   *stmt                 // the standing query
	next        func(r *rand.Rand, n int) request
	phases      []phase
	sharedStems bool
	tails       tails
}

// stmt is one SELECT the workload sends, with its expected results (filled
// by prepareExpected).
type stmt struct {
	name string // prepared name; empty for ad-hoc
	sql  string
	exp  *expected
}

func newStmt(name, sql string) *stmt { return &stmt{name: name, sql: sql} }

func mkRow(vs ...any) tuple.Row {
	row := make(tuple.Row, len(vs))
	for i, v := range vs {
		switch v := v.(type) {
		case int:
			row[i] = value.NewInt(int64(v))
		case string:
			row[i] = value.NewStr(v)
		default:
			panic(fmt.Sprintf("unsupported generated value %T", v))
		}
	}
	return row
}

// freshKeyBase starts the key range of inserted fact rows, above every
// generated key, so each insert is a new row (identical rows would be
// absorbed by set semantics and produce no delta).
const freshKeyBase = 10_000_000

// buildWorkload generates the named workload's tables and statements from
// the seed.
func buildWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "serve_small":
		return serveSmall(rng, seed), nil
	case "join_large":
		return star(name, rng, seed, 20_000), nil
	case "ingest_standing", "mixed_shared":
		return star(name, rng, seed, 100_000), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want serve_small, join_large, ingest_standing or mixed_shared)", name)
}

var cities = []string{"london", "zurich", "austin", "tokyo", "lima", "oslo"}

// balanced returns n values in [0,k), each appearing n/k or n/k+1 times, in
// seeded random order. Foreign keys and filtered columns are generated this
// way so that join fan-outs and filter selectivities are the same for every
// seed; the seed changes values and row order, not result sizes.
func balanced(rng *rand.Rand, n, k int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i % k
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// serveSmall is shaped like examples/serving: people, orders and items with
// tens of rows, so per-request overhead dominates engine work.
func serveSmall(rng *rand.Rand, seed int64) *workload {
	const nPeople, nOrders, nItems = 40, 80, 30
	people := &table{name: "people", cols: []string{"id", "name", "city"}}
	city := balanced(rng, nPeople, len(cities))
	for i := 1; i <= nPeople; i++ {
		people.rows = append(people.rows, mkRow(i, fmt.Sprintf("p%d", i), cities[city[i-1]]))
	}
	items := &table{name: "items", cols: []string{"id", "label", "price"}}
	for i := 1; i <= nItems; i++ {
		items.rows = append(items.rows, mkRow(i, fmt.Sprintf("item%d", i), 5+rng.Intn(95)))
	}
	orders := &table{name: "orders", cols: []string{"id", "person", "item", "total"}}
	person, item, total := balanced(rng, nOrders, nPeople), balanced(rng, nOrders, nItems), balanced(rng, nOrders, nOrders)
	for i := 0; i < nOrders; i++ {
		orders.rows = append(orders.rows, mkRow(101+i, 1+person[i], 1+item[i], 12*total[i]+rng.Intn(12)))
	}
	two := newStmt("two", "SELECT orders.id, people.name, orders.total FROM people, orders WHERE people.id = orders.person")
	three := newStmt("three", "SELECT orders.id, people.name, items.label, orders.total FROM people, orders, items WHERE people.id = orders.person AND orders.item = items.id")
	london := newStmt("city", "SELECT orders.id, people.name, items.label FROM people, orders, items WHERE people.id = orders.person AND orders.item = items.id AND people.city = 'london'")
	// Ad-hoc SELECTs vary a literal over more distinct values than the plan
	// cache's default 128 entries, so misses and evictions are steady.
	const literals = 512
	adhoc := make([]*stmt, literals)
	for i := range adhoc {
		adhoc[i] = newStmt("", fmt.Sprintf("SELECT orders.id, people.name, orders.total FROM people, orders WHERE people.id = orders.person AND orders.total > %d", 2*i))
	}
	prepared := []*stmt{two, three, london}
	w := &workload{
		name:   "serve_small",
		tables: []*table{people, orders, items},
		fact:   "orders",
		newFact: func(i int) tuple.Row {
			r := rand.New(rand.NewSource(seed*7919 + int64(i)))
			return mkRow(freshKeyBase+i, 1+r.Intn(nPeople), 1+r.Intn(nItems), r.Intn(1000))
		},
		prepared:  prepared,
		adhoc:     adhoc,
		subscribe: three,
		next: func(r *rand.Rand, n int) request {
			if r.Intn(5) == 0 {
				s := adhoc[r.Intn(len(adhoc))]
				return request{send: s.sql, stmt: s}
			}
			s := prepared[r.Intn(len(prepared))]
			return request{send: "EXECUTE " + s.name, stmt: s}
		},
		phases: []phase{
			{share: 0.5, readers: 2},
			{share: 0.5, rate: 100, sub: true},
		},
		tails: tails{query: 95, insert: 99, delta: 99},
	}
	return w
}

// star is the star schema of the large workloads: a fact table with foreign
// keys into a 2k-row and a 1k-row dimension.
func star(name string, rng *rand.Rand, seed int64, nFact int) *workload {
	const nD1, nD2, groups = 2000, 1000, 50
	d1 := &table{name: "d1", cols: []string{"id", "grp", "name"}}
	grp := balanced(rng, nD1, groups)
	for i := 0; i < nD1; i++ {
		d1.rows = append(d1.rows, mkRow(i, grp[i], fmt.Sprintf("n%d", i)))
	}
	d2 := &table{name: "d2", cols: []string{"id", "cat", "label"}}
	var selD2 []int // d2 keys matching the selective filter d2.cat = 7
	cat := balanced(rng, nD2, groups)
	for i := 0; i < nD2; i++ {
		if cat[i] == 7 {
			selD2 = append(selD2, i)
		}
		d2.rows = append(d2.rows, mkRow(i, cat[i], fmt.Sprintf("l%d", i)))
	}
	fact := &table{name: "fact", cols: []string{"id", "d1", "d2", "qty"}}
	fk1, fk2 := balanced(rng, nFact, nD1), balanced(rng, nFact, nD2)
	for i := 0; i < nFact; i++ {
		fact.rows = append(fact.rows, mkRow(i, fk1[i], fk2[i], rng.Intn(1000)))
	}
	const join3 = "SELECT fact.id, d1.name, d2.label, fact.qty FROM fact, d1, d2 WHERE fact.d1 = d1.id AND fact.d2 = d2.id"
	full := newStmt("full", join3)
	selCat := newStmt("sel_cat", join3+" AND d2.cat = 7")
	selGrp := newStmt("sel_grp", join3+" AND d1.grp = 3")
	dims := newStmt("dims", "SELECT d2.id, d2.label, d1.name FROM d2, d1 WHERE d2.cat = d1.grp AND d2.id = 7")
	w := &workload{
		name:   name,
		tables: []*table{d1, d2, fact},
		fact:   "fact",
		// Inserted rows reference a d2 key that passes d2.cat = 7, so every
		// insert contributes exactly one row to each statement here except
		// sel_grp and dims.
		newFact: func(i int) tuple.Row {
			r := rand.New(rand.NewSource(seed*7919 + int64(i)))
			return mkRow(freshKeyBase+i, r.Intn(nD1), selD2[r.Intn(len(selD2))], r.Intn(1000))
		},
	}
	cycle := func(ss ...*stmt) func(*rand.Rand, int) request {
		return func(_ *rand.Rand, n int) request {
			s := ss[n%len(ss)]
			return request{send: "EXECUTE " + s.name, stmt: s}
		}
	}
	switch name {
	case "join_large":
		w.prepared = []*stmt{full, selCat, selGrp}
		w.subscribe = full
		// One full join per two selective ones: the median falls among the
		// selective queries and the tail among the full ones, never on the
		// boundary between the two modes.
		w.next = cycle(full, selCat, selGrp)
		w.phases = []phase{
			{share: 2.0 / 3, readers: 1},
			{share: 1.0 / 3, rate: 100, sub: true},
		}
		w.tails = tails{query: 85, insert: 98, delta: 98}
	case "ingest_standing":
		// Every end-to-end metric needs a value on every workload, so a
		// reader follows the writer. It joins the two dimensions (40 rows
		// out, ~15 ms): a sel_cat query over the 100k-row fact table takes
		// ~0.6 s, and with the ~20 that fit in a run first_row_p90_ms
		// spread 0.38 across ten seeds.
		w.prepared = []*stmt{dims}
		w.subscribe = full
		w.next = cycle(dims)
		w.phases = []phase{
			{share: 2.0 / 3, rate: 100, sub: true},
			{share: 1.0 / 3, readers: 1},
		}
		w.tails = tails{query: 95, insert: 99, delta: 99}
	case "mixed_shared":
		w.prepared = []*stmt{selCat}
		w.subscribe = selCat
		w.next = cycle(selCat)
		w.sharedStems = true
		w.phases = []phase{
			{share: 2.0 / 3, readers: 1, rate: 20},
			{share: 1.0 / 3, rate: 100, sub: true},
		}
		w.tails = tails{query: 90, insert: 99, delta: 98}
	}
	return w
}

// stmts lists every distinct statement the workload sends.
func (w *workload) stmts() []*stmt {
	seen := map[*stmt]bool{}
	var out []*stmt
	for _, s := range append(append(append([]*stmt{}, w.prepared...), w.adhoc...), w.subscribe) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// plannedInserts is the number of inserts the writer schedules over a run of
// the given length, with one spare per phase.
func (w *workload) plannedInserts(seconds float64) int {
	n := 0
	for _, p := range w.phases {
		if p.rate > 0 {
			n += int(p.rate*p.share*seconds) + 1
		}
	}
	return n
}

func (p phase) duration(seconds float64) time.Duration {
	return time.Duration(p.share * seconds * float64(time.Second))
}

// stemsdFlags are the server flags beyond the deployment settings.
func (w *workload) stemsdFlags() []string {
	if w.sharedStems {
		return []string{"-shared-stems"}
	}
	return nil
}

// writeCSVs writes every table into dir as <name>.csv.
func (w *workload) writeCSVs(dir string) error {
	for _, t := range w.tables {
		var b strings.Builder
		b.WriteString(strings.Join(t.cols, ","))
		b.WriteByte('\n')
		for _, row := range t.rows {
			for i, v := range row {
				if i > 0 {
					b.WriteByte(',')
				}
				if v.K == value.Int {
					b.WriteString(strconv.FormatInt(v.I, 10))
				} else {
					b.WriteString(v.S)
				}
			}
			b.WriteByte('\n')
		}
		if err := os.WriteFile(filepath.Join(dir, t.name+".csv"), []byte(b.String()), 0o644); err != nil {
			return err
		}
	}
	return nil
}
