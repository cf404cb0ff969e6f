// sharedstems.go gives the server catalog ownership of long-lived shared
// SteMs: the first query that uses a registered table builds sealed shared
// state for it (stem.BuildShared) keyed by (table, join columns, shard
// count), and every concurrent or later query with the same key attaches a
// probe-only handle instead of rebuilding — the paper's "SteM state is
// shareable across queries" pitch, lifted from per-query modules to the
// serving layer.
//
// Lifecycle rules, enforced here and stress-tested by the storm tests:
//
//   - Builds are single-flight: one goroutine builds while concurrent
//     attachers wait on the entry's ready channel, all holding a reference
//     from the moment they decided to attach, so the builder's result cannot
//     be torn down before they see it.
//   - Refcounts gate teardown: an entry's SharedState (and its spill
//     segments on disk) is only closed when it is stale or evicted AND its
//     refcount has dropped to zero. An executing query never loses state.
//   - REGISTER detaches lazily: registration replaces the catalog's
//     *source.Table, so an entry is stale exactly when its build-input
//     pointer no longer matches the catalog's. The next attach of a stale
//     key rebuilds; running queries keep the old state until they release.
//   - A state whose spill read failed is retired on release, like a stale
//     one: the next attach rebuilds it.
//   - Eviction is capacity-driven: when capBytes is set, the
//     least-recently-attached unreferenced entries are closed until the
//     total footprint fits. Referenced entries are never evicted.
package server

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/query"
	"repro/internal/source"
	"repro/internal/sql"
	"repro/internal/stem"
)

// sharedKey identifies one shared build: a catalog table, the join-column
// signature the dictionaries index, and the shard count.
type sharedKey struct {
	table  string
	cols   string
	shards int
}

// colsSig renders sorted join columns as a key component.
func colsSig(cols []int) string {
	var b strings.Builder
	for i, c := range cols {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(c))
	}
	return b.String()
}

// normShards normalizes a shard request the way stem.BuildShared does, so
// requests for 3 and 4 shards share one key and one build.
func normShards(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// sharedEntry is one catalog-owned build. state/err are written once by the
// builder before ready closes; refs, stale, and seq are guarded by the
// manager's mutex.
type sharedEntry struct {
	key   sharedKey
	data  *source.Table // build input; pointer identity detects REGISTER
	ready chan struct{}
	state *stem.SharedState
	err   error

	refs  int
	stale bool
	seq   uint64 // last-attach sequence, for LRU eviction
}

// sharedStems is the catalog-owned shared-SteM manager.
type sharedStems struct {
	mu      sync.Mutex
	entries map[sharedKey]*sharedEntry
	seq     uint64

	// capBytes bounds the total footprint (resident + spilled) across
	// entries; 0 is unlimited. budgetBytes bounds each build's resident
	// footprint (the excess spills under spillDir); 0 keeps builds resident.
	capBytes    int64
	budgetBytes int64
	spillDir    string

	builds    atomic.Uint64
	attaches  atomic.Uint64
	detaches  atomic.Uint64
	evictions atomic.Uint64
}

func newSharedStems(capBytes, budgetBytes int64, spillDir string) *sharedStems {
	return &sharedStems{
		entries:     make(map[sharedKey]*sharedEntry),
		capBytes:    capBytes,
		budgetBytes: budgetBytes,
		spillDir:    spillDir,
	}
}

// attach returns a referenced entry for (table, keyCols, shards), building
// the shared state on first use. The caller must release the entry exactly
// once when its query stops probing the state.
func (m *sharedStems) attach(table string, data *source.Table, keyCols []int, shards int) (*sharedEntry, error) {
	key := sharedKey{table: table, cols: colsSig(keyCols), shards: normShards(shards)}
	var drop *stem.SharedState
	m.mu.Lock()
	e := m.entries[key]
	if e != nil && e.data != data {
		// REGISTER replaced the table since this entry was built: detach it
		// lazily. Running queries keep their reference; teardown waits for
		// the last release.
		e.stale = true
		delete(m.entries, key)
		if e.refs == 0 && e.state != nil {
			drop = e.state
		}
		e = nil
	}
	build := e == nil
	if build {
		e = &sharedEntry{key: key, data: data, ready: make(chan struct{})}
		m.entries[key] = e
	}
	e.refs++
	m.seq++
	e.seq = m.seq
	m.mu.Unlock()
	if drop != nil {
		drop.Close()
	}

	if build {
		m.builds.Add(1)
		state, err := stem.BuildShared(stem.SharedConfig{
			KeyCols:     keyCols,
			Shards:      shards,
			BudgetBytes: m.budgetBytes,
			SpillDir:    m.spillDir,
		}, data.Rows)
		m.mu.Lock()
		e.state, e.err = state, err
		if err != nil {
			e.stale = true
			if m.entries[key] == e {
				delete(m.entries, key)
			}
		}
		m.mu.Unlock()
		close(e.ready)
	} else {
		<-e.ready
	}
	if e.err != nil {
		m.release(e)
		return nil, e.err
	}
	m.attaches.Add(1)
	m.maybeEvict()
	return e, nil
}

// release drops one reference; the last release of a stale or evicted entry
// closes its state (removing spill segments).
func (m *sharedStems) release(e *sharedEntry) {
	var drop *stem.SharedState
	m.mu.Lock()
	if e.refs <= 0 {
		m.mu.Unlock()
		panic("server: shared SteM refcount underflow")
	}
	e.refs--
	if e.err == nil {
		m.detaches.Add(1)
	}
	if !e.stale && e.state != nil && e.state.Err() != nil {
		// A failed spill read is sticky: retire the state so the next
		// attach rebuilds it instead of failing every query until the next
		// REGISTER.
		e.stale = true
		if m.entries[e.key] == e {
			delete(m.entries, e.key)
		}
	}
	if e.refs == 0 && e.stale {
		drop = e.state
	}
	m.mu.Unlock()
	if drop != nil {
		drop.Close()
	}
}

// maybeEvict closes least-recently-attached unreferenced entries until the
// total footprint fits capBytes.
func (m *sharedStems) maybeEvict() {
	if m.capBytes <= 0 {
		return
	}
	var toClose []*stem.SharedState
	m.mu.Lock()
	var total int64
	for _, e := range m.entries {
		if e.state != nil {
			total += e.state.ResidentBytes() + e.state.SpilledBytes()
		}
	}
	for total > m.capBytes {
		var victim *sharedEntry
		for _, e := range m.entries {
			if e.refs > 0 || e.state == nil {
				continue
			}
			if victim == nil || e.seq < victim.seq {
				victim = e
			}
		}
		if victim == nil {
			break // everything oversized is referenced; retry on later attaches
		}
		delete(m.entries, victim.key)
		victim.stale = true
		total -= victim.state.ResidentBytes() + victim.state.SpilledBytes()
		toClose = append(toClose, victim.state)
		m.evictions.Add(1)
	}
	m.mu.Unlock()
	for _, st := range toClose {
		st.Close()
	}
}

// closeAll tears down every unreferenced entry (Shutdown runs after the
// query drain, so normally all of them) and marks the rest stale so their
// last release closes them.
func (m *sharedStems) closeAll() {
	var toClose []*stem.SharedState
	m.mu.Lock()
	for k, e := range m.entries {
		delete(m.entries, k)
		e.stale = true
		if e.refs == 0 && e.state != nil {
			toClose = append(toClose, e.state)
		}
	}
	m.mu.Unlock()
	for _, st := range toClose {
		st.Close()
	}
}

// counts returns the lifetime counters for /metrics.
func (m *sharedStems) counts() (builds, attaches, detaches, evictions uint64) {
	return m.builds.Load(), m.attaches.Load(), m.detaches.Load(), m.evictions.Load()
}

// bytes sums the live entries' footprint for the resident-bytes gauge.
func (m *sharedStems) bytes() (resident, spilled int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.entries {
		if e.state != nil {
			resident += e.state.ResidentBytes()
			spilled += e.state.SpilledBytes()
		}
	}
	return resident, spilled
}

// entryCount returns the number of live entries.
func (m *sharedStems) entryCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// refSnapshot returns the per-entry refcounts, for lifecycle tests.
func (m *sharedStems) refSnapshot() map[sharedKey]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[sharedKey]int, len(m.entries))
	for k, e := range m.entries {
		out[k] = e.refs
	}
	return out
}

// sharedPlan is one execution's set of shared-SteM attachments: states by
// table position (nil = private) plus the referenced entries to release when
// the execution stops probing. A nil *sharedPlan means "all private" and is
// safe to call methods on.
type sharedPlan struct {
	m       *sharedStems
	states  []*stem.SharedState
	entries []*sharedEntry
}

// sharedFor adapts the plan to eddy.Options.SharedFor.
func (p *sharedPlan) sharedFor(t int) *stem.SharedState {
	if p == nil {
		return nil
	}
	return p.states[t]
}

// release drops the plan's references. Call exactly once per execution,
// after the engine has unwound (no goroutine may still be probing).
func (p *sharedPlan) release() {
	if p == nil {
		return
	}
	for _, e := range p.entries {
		p.m.release(e)
	}
}

// statesOrNil returns the per-table states for shell compatibility checks.
func (p *sharedPlan) statesOrNil() []*stem.SharedState {
	if p == nil {
		return nil
	}
	return p.states
}

// shellSharedMatches reports whether a pooled shell's recorded attachments
// are exactly this execution's: same state pointers at same positions. A
// rebuild after REGISTER or an eviction yields a different *SharedState, so
// pointer identity is the staleness test.
func shellSharedMatches(shell []*stem.SharedState, plan *sharedPlan) bool {
	want := plan.statesOrNil()
	if len(shell) != len(want) {
		return false
	}
	for i := range want {
		if shell[i] != want[i] {
			return false
		}
	}
	return true
}

// planAttach decides which of a query's tables can ride catalog-owned
// shared SteMs and attaches them, returning a referenced plan (release
// exactly once) or nil to fall back to all-private execution.
//
// At least one table — the driver — always stays private, so its scan
// drives the dataflow and every result tuple spans it; tuples spanning the
// driver are never probed into the driver's SteM, which keeps the private
// and shared timestamp counters out of any single comparison. The driver is
// the smallest table (ties to the earliest FROM position): its per-query
// build is the cheapest to redo, so the largest states get shared.
//
// Fallback (nil plan) cases: fewer than two tables, a driver with no scan
// access method (nothing would seed the dataflow), a non-driver table with
// no join columns (nothing to key its dictionary on), or a join graph
// not connected from the driver (a cross-product leg would need the
// attached table's scan, which attachments do not run).
func (m *sharedStems) planAttach(st *sql.Stmt, q *query.Q, snap sql.MapCatalog, shards int) (*sharedPlan, error) {
	n := q.NumTables()
	if m == nil || n < 2 || n != len(st.From) {
		return nil, nil
	}
	srcs := make([]sql.Source, n)
	driver := 0
	for i, ref := range st.From {
		src, ok := snap.Source(ref.Source)
		if !ok || src.Data == nil {
			return nil, nil // bind used this snapshot, so practically unreachable
		}
		srcs[i] = src
		if len(src.Data.Rows) < len(srcs[driver].Data.Rows) {
			driver = i
		}
	}
	if srcs[driver].Scan == nil {
		return nil, nil
	}
	reach := make([]bool, n)
	reach[driver] = true
	for changed := true; changed; {
		changed = false
		for _, p := range q.Preds {
			if !p.IsJoin() {
				continue
			}
			if l, r := p.Left.Table, p.Right.Table; reach[l] != reach[r] {
				reach[l], reach[r] = true, true
				changed = true
			}
		}
	}
	cols := make([][]int, n)
	for t := 0; t < n; t++ {
		if t == driver {
			continue
		}
		if !reach[t] {
			return nil, nil
		}
		if cols[t] = stem.JoinCols(q, t); len(cols[t]) == 0 {
			return nil, nil
		}
	}
	plan := &sharedPlan{m: m, states: make([]*stem.SharedState, n)}
	for t := 0; t < n; t++ {
		if t == driver {
			continue
		}
		e, err := m.attach(st.From[t].Source, srcs[t].Data, cols[t], shards)
		if err != nil {
			plan.release()
			return nil, fmt.Errorf("shared SteM build for %q failed: %w", st.From[t].Source, err)
		}
		plan.entries = append(plan.entries, e)
		plan.states[t] = e.state
	}
	return plan, nil
}

// debugString renders the manager's state for error messages in tests.
func (m *sharedStems) debugString() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder
	for k, e := range m.entries {
		fmt.Fprintf(&b, "%v refs=%d stale=%v ", k, e.refs, e.stale)
	}
	return b.String()
}
