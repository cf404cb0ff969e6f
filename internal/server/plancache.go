// plancache.go is the server's bounded plan/router cache: the Prepare half
// of the Parse → Prepare → Execute split. A cache entry holds a statement
// bound at a specific catalog version plus a pool of reset-and-reuse
// core.Exec shells, so a hot EXECUTE (or a repeated ad-hoc SELECT, which
// auto-prepares under its canonical text) admission-checks and runs without
// re-parsing, re-binding, or rebuilding the operator graph.
//
// Invalidation is lazy and version-driven: REGISTER bumps the catalog
// version, and a lookup whose snapshot version differs from the entry's
// marks the entry dead and misses. In-flight executions are unaffected —
// they hold their own reference to the entry and their own shell, and a
// dead entry simply stops accepting shells back. The cache is bounded by
// LRU eviction and exposes hit/miss/invalidation/eviction counters.
package server

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/sql"
	"repro/internal/stem"
)

// planKey identifies one executable plan shape: the canonical statement
// text plus every knob that changes the built router or engine. Server-wide
// settings (columnar mode, time compression) are fixed for the process and
// stay out of the key.
type planKey struct {
	canon  string
	policy string
	seed   int64
	shards int
	batch  int
}

// engineShell is one pooled execution. A shell is never shared: an
// execution takes it from the pool (or builds it fresh), runs, and returns
// it; core.Exec readies it for the next run (in place after a clean run,
// rebuilt after a failed one), and its trace collector reports a single
// execution while the routing policy deliberately keeps what it learned.
type engineShell struct {
	x *core.Exec
	// shared records the shared-SteM states (by table position) the shell
	// was built against; executions pointer-compare it with their own
	// attachments and discard the shell on mismatch, since a REGISTER or an
	// eviction produces a new state a stale router must not probe. The
	// shell holds no references — each execution attaches and releases its
	// own, so a pool entry dropped silently by the GC leaks nothing.
	shared []*stem.SharedState
}

// planEntry is one cached plan: the bound statement, the catalog version it
// was bound at, and the shell pool.
type planEntry struct {
	key     planKey
	version uint64
	bound   *sql.Bound

	// dead flips when the entry is invalidated or evicted: shells are no
	// longer accepted back, so a dead entry drains as executions finish.
	dead atomic.Bool
	// refs counts in-flight executions using this entry's bound plan.
	refs atomic.Int64
	// hits counts lookups that landed on this entry.
	hits atomic.Uint64

	shells sync.Pool // of *engineShell

	elem *list.Element // LRU position; guarded by the cache mutex
}

// unref drops an execution's reference.
func (e *planEntry) unref() { e.refs.Add(-1) }

// getShell takes a pooled shell, or nil when the pool is empty (the caller
// builds one). The shell's next Run resets it first.
func (e *planEntry) getShell() *engineShell {
	sh, _ := e.shells.Get().(*engineShell)
	return sh
}

// putShell returns a shell after its run. Dead entries drop it: a shell
// built against an invalidated plan must never serve a later execution.
func (e *planEntry) putShell(sh *engineShell) {
	if e.dead.Load() {
		return
	}
	e.shells.Put(sh)
}

// planCache is a bounded, LRU-evicting map from plan key to entry.
type planCache struct {
	mu    sync.Mutex
	cap   int
	byKey map[planKey]*planEntry
	lru   *list.List // front = most recently used; values are *planEntry

	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
	evictions     atomic.Uint64
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap:   capacity,
		byKey: make(map[planKey]*planEntry),
		lru:   list.New(),
	}
}

// acquire looks up the entry for k bound at the given catalog version. On a
// hit it takes a reference (released with unref) and reports true. An entry
// bound at a different version is invalidated here, lazily — the miss sends
// the caller off to rebind, and insert replaces the entry.
func (pc *planCache) acquire(k planKey, version uint64) (*planEntry, bool) {
	pc.mu.Lock()
	e, ok := pc.byKey[k]
	if ok && e.version != version {
		pc.removeLocked(e)
		pc.invalidations.Add(1)
		ok = false
	}
	if !ok {
		pc.mu.Unlock()
		pc.misses.Add(1)
		return nil, false
	}
	pc.lru.MoveToFront(e.elem)
	e.refs.Add(1)
	pc.mu.Unlock()
	pc.hits.Add(1)
	e.hits.Add(1)
	return e, true
}

// insert publishes a freshly bound plan, returning the entry to execute
// with (referenced; release with unref). When a concurrent miss already
// published the same key at the same version, the racing loser adopts the
// winner's entry so both executions share one shell pool.
func (pc *planCache) insert(k planKey, version uint64, bound *sql.Bound) *planEntry {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if e, ok := pc.byKey[k]; ok {
		if e.version == version {
			pc.lru.MoveToFront(e.elem)
			e.refs.Add(1)
			return e
		}
		pc.removeLocked(e)
		pc.invalidations.Add(1)
	}
	e := &planEntry{key: k, version: version, bound: bound}
	e.refs.Add(1)
	e.elem = pc.lru.PushFront(e)
	pc.byKey[k] = e
	for pc.lru.Len() > pc.cap {
		victim := pc.lru.Back().Value.(*planEntry)
		pc.removeLocked(victim)
		pc.evictions.Add(1)
	}
	return e
}

// removeLocked unlinks an entry and marks it dead; the caller holds pc.mu.
func (pc *planCache) removeLocked(e *planEntry) {
	delete(pc.byKey, e.key)
	pc.lru.Remove(e.elem)
	e.dead.Store(true)
}

// size reports the number of live entries.
func (pc *planCache) size() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.byKey)
}

// planInfo is one entry's /plans listing.
type planInfo struct {
	SQL            string `json:"sql"`
	Policy         string `json:"policy"`
	Seed           int64  `json:"seed"`
	Shards         int    `json:"shards,omitempty"`
	Batch          int    `json:"batch,omitempty"`
	CatalogVersion uint64 `json:"catalog_version"`
	Hits           uint64 `json:"hits"`
	InFlight       int64  `json:"in_flight"`
}

// entries lists the cache in most-recently-used order.
func (pc *planCache) entries() []planInfo {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	out := make([]planInfo, 0, pc.lru.Len())
	for el := pc.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*planEntry)
		out = append(out, planInfo{
			SQL:            e.key.canon,
			Policy:         e.key.policy,
			Seed:           e.key.seed,
			Shards:         e.key.shards,
			Batch:          e.key.batch,
			CatalogVersion: e.version,
			Hits:           e.hits.Load(),
			InFlight:       e.refs.Load(),
		})
	}
	return out
}

// counters snapshots the cache-wide counters for /metrics.
func (pc *planCache) counters() (hits, misses, invalidations, evictions uint64) {
	return pc.hits.Load(), pc.misses.Load(), pc.invalidations.Load(), pc.evictions.Load()
}
