package main

import (
	"fmt"
	"strconv"

	"repro/internal/oracle"
	"repro/internal/pred"
	"repro/internal/query"
	"repro/internal/sql"
	"repro/internal/tuple"
	"repro/internal/value"
)

// digest is an order-independent multiset digest of result rows: the row
// count and the wrapping sum of a 64-bit hash of each row's NDJSON line.
type digest struct {
	n   int
	sum uint64
}

func (d *digest) add(line []byte) {
	d.n++
	d.sum += lineHash(line)
}

// lineHash is FNV-1a over the line followed by a 64-bit finalizer, so that
// sums of hashes of different multisets collide only by chance.
func lineHash(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb53fe1a85ec9
	h ^= h >> 33
	return h
}

// expected is one statement's correct result: the rows over the generated
// tables, plus the rows each planned insert into the fact table adds.
type expected struct {
	bound   *sql.Bound
	factPos int // FROM position of the fact table, -1 if absent
	plan    *joinPlan
	base    digest
	contrib map[string]int // result line -> index of the insert it comes from
	count   []int          // result rows each planned insert adds
}

// expect binds one SELECT against cat and computes with the brute-force
// oracle its result over cat's tables and the rows each planned insert into
// the fact table would add to it.
func expect(text, fact string, cat sql.Catalog, inserts []tuple.Row) (*expected, error) {
	st, err := parseSelect(text)
	if err != nil {
		return nil, err
	}
	bound, err := sql.Bind(st, cat)
	if err != nil {
		return nil, fmt.Errorf("bind %q: %w", text, err)
	}
	rowsFor := make([][]tuple.Row, len(st.From))
	factPos := -1
	for i, ref := range st.From {
		src, _ := cat.Source(ref.Source)
		rowsFor[i] = src.Data.Rows
		if ref.Source == fact && factPos < 0 {
			factPos = i
		}
	}
	outer := max(factPos, 0)
	plan := newJoinPlan(bound.Q, rowsFor, outer)
	exp := &expected{bound: bound, factPos: factPos, plan: plan, contrib: map[string]int{}}
	var buf []byte
	plan.each(rowsFor[outer], func(combo []tuple.Row) {
		buf = appendRowLine(buf[:0], bound.Output, combo)
		exp.base.add(buf)
	})
	if factPos >= 0 {
		exp.count = make([]int, len(inserts))
		for i, row := range inserts {
			plan.each([]tuple.Row{row}, func(combo []tuple.Row) {
				buf = appendRowLine(buf[:0], bound.Output, combo)
				exp.contrib[string(buf)] = i
				exp.count[i]++
			})
		}
	}
	return exp, nil
}

func parseSelect(text string) (*sql.Stmt, error) {
	parsed, err := sql.ParseStatement(text)
	if err != nil {
		return nil, fmt.Errorf("parse %q: %w", text, err)
	}
	st, ok := parsed.(*sql.Stmt)
	if !ok {
		return nil, fmt.Errorf("%q is not a SELECT", text)
	}
	return st, nil
}

// joinPlan enumerates candidate row combinations for oracle.ComputeFromRows:
// starting from the outer table (the fact table when the query has one),
// each further table is reached through an equi-join predicate and looked
// up by value, so only combinations that can satisfy the join predicates
// are handed to the oracle. The oracle still evaluates every predicate of
// the query on each combination, so the result is exactly oracle.Compute's;
// the lookups only skip combinations the equi-join predicates reject.
type joinPlan struct {
	q     *query.Q
	outer int
	steps []planStep
}

type planStep struct {
	table   int
	from    pred.ColRef             // already-placed column the lookup keys on
	byValue map[value.V][]tuple.Row // nil: cross product with allRows
	allRows []tuple.Row
}

func newJoinPlan(q *query.Q, rowsFor [][]tuple.Row, outer int) *joinPlan {
	n := q.NumTables()
	placed := make([]bool, n)
	placed[outer] = true
	plan := &joinPlan{q: q, outer: outer}
	for len(plan.steps) < n-1 {
		step := planStep{table: -1}
		for _, p := range q.Preds {
			if !p.IsEquiJoin() {
				continue
			}
			l, r := p.Left, p.Right
			if placed[r.Table] && !placed[l.Table] {
				l, r = r, l
			}
			if placed[l.Table] && !placed[r.Table] {
				step = planStep{table: r.Table, from: l, byValue: map[value.V][]tuple.Row{}}
				for _, row := range rowsFor[r.Table] {
					step.byValue[row[r.Col]] = append(step.byValue[row[r.Col]], row)
				}
				break
			}
		}
		if step.table < 0 {
			for t := range placed {
				if !placed[t] {
					step = planStep{table: t, allRows: rowsFor[t]}
					break
				}
			}
		}
		placed[step.table] = true
		plan.steps = append(plan.steps, step)
	}
	return plan
}

// each calls emit with every combination that starts from one of outerRows
// and that the oracle accepts.
func (p *joinPlan) each(outerRows []tuple.Row, emit func(combo []tuple.Row)) {
	n := p.q.NumTables()
	combo := make([]tuple.Row, n)
	single := make([][]tuple.Row, n)
	var rec func(i int)
	rec = func(i int) {
		if i == len(p.steps) {
			for t := range combo {
				single[t] = combo[t : t+1]
			}
			if len(oracle.ComputeFromRows(p.q, single)) == 1 {
				emit(combo)
			}
			return
		}
		s := p.steps[i]
		cands := s.allRows
		if s.byValue != nil {
			cands = s.byValue[combo[s.from.Table][s.from.Col]]
		}
		for _, row := range cands {
			combo[s.table] = row
			rec(i + 1)
		}
	}
	for _, row := range outerRows {
		combo[p.outer] = row
		rec(0)
	}
}

// appendRowLine encodes one result row the way stemsd streams it:
// {"row":{"alias.col":value,...}} in projection order, without the newline.
// Generated names and strings are alphanumeric, so Go quoting and JSON
// quoting agree on them.
func appendRowLine(buf []byte, out []sql.OutputCol, combo []tuple.Row) []byte {
	buf = append(buf, `{"row":{`...)
	for i, oc := range out {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendQuote(buf, oc.Name)
		buf = append(buf, ':')
		v := combo[oc.Table][oc.Col]
		switch v.K {
		case value.Int:
			buf = strconv.AppendInt(buf, v.I, 10)
		case value.Str:
			buf = strconv.AppendQuote(buf, v.S)
		default:
			buf = append(buf, "null"...)
		}
	}
	return append(buf, '}', '}')
}

// tally is what a response's rows amount to: the digest of rows that belong
// to no planned insert, and how many rows each insert contributed.
type tally struct {
	base digest
	hits map[int]int
}

func (t *tally) addRow(e *expected, line []byte) {
	if len(e.contrib) > 0 {
		if i, ok := e.contrib[string(line)]; ok {
			if t.hits == nil {
				t.hits = map[int]int{}
			}
			t.hits[i]++
			return
		}
	}
	t.base.add(line)
}

// checkResult checks a complete result against the expected one. Inserts
// acknowledged before the query was sent (index < acked) must be in the
// result in full; inserts sent before the result ended (index < sent) may be
// in it, in full or not at all; later inserts must not be. It returns the
// name of the check that failed and a description, or "" when all pass.
func checkResult(e *expected, t *tally, acked, sent int) (check, detail string) {
	if t.base != e.base {
		return "rows-vs-oracle", fmt.Sprintf("got %d rows outside inserted ones (digest %x), oracle expects %d (digest %x)",
			t.base.n, t.base.sum, e.base.n, e.base.sum)
	}
	for i, h := range t.hits {
		if i >= sent {
			return "insert-not-yet-sent", fmt.Sprintf("%d rows from insert %d, sent only %d inserts", h, i, sent)
		}
		if h != e.count[i] {
			return "insert-rows-partial", fmt.Sprintf("%d rows from insert %d, oracle expects %d", h, i, e.count[i])
		}
	}
	for i := 0; i < acked && i < len(e.count); i++ {
		if e.count[i] > 0 && t.hits[i] == 0 {
			return "acked-insert-missing", fmt.Sprintf("insert %d was acknowledged before the query was sent but its %d rows are missing", i, e.count[i])
		}
	}
	return "", ""
}
