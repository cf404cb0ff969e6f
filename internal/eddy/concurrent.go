// concurrent.go is the channel-based engine: every module runs in its own
// goroutine (a worker pool sized by Parallel()), exchanging batches of
// tuples with the eddy over channels — the paper's Telegraph setting, where
// "each module runs asynchronously in a separate thread". Service costs and
// source latencies elapse on a real clock, optionally compressed so the
// paper's multi-minute runs finish in milliseconds.
//
// Dataflow is batch-at-a-time: the eddy coalesces routed tuples into
// per-module batches of up to BatchSize, so channel sends, inbox wakeups,
// module locking, and policy decisions amortize across the batch. BatchSize
// 1 reproduces the original tuple-at-a-time behavior exactly.
//
// Modules that implement flow.Sharded with more than one shard get one
// inbox and one worker per shard: the eddy resolves each routed tuple's
// shard (ShardOf) and coalesces per (span, shard), so builds and probes on
// different shards of the same SteM are serviced fully in parallel.
// Broadcast tuples (flow.ShardAll — EOTs) are replicated to every shard
// inbox behind a flush of the module's coalescing buffers, preserving the
// build-before-EOT delivery order per shard; flow.ShardAny tuples are
// handed to one shard worker and synchronize across shards inside the
// module.
//
// The engine is not deterministic (that is the simulator's job); it is the
// deployment-shaped engine, and the race-exercising tests run the same
// correctness oracle against it.
package eddy

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/flow"
	"repro/internal/policy"
	"repro/internal/tuple"
)

// DefaultBatchSize is the number of tuples the eddy coalesces into one
// module batch when Concurrent.BatchSize is left zero.
const DefaultBatchSize = 64

// batchPool recycles flow.Batch shells (and their tuple slices) between the
// eddy and the module workers. A batch is returned to the pool by whichever
// side consumes it: workers recycle inbox batches after processing, the eddy
// loop recycles event batches after draining them into staging. Batches held
// in a closed inbox at shutdown are simply dropped.
var batchPool = sync.Pool{New: func() any { return &flow.Batch{} }}

func getBatch() *flow.Batch {
	b := batchPool.Get().(*flow.Batch)
	b.Reset()
	return b
}

func getBatchOf(t *tuple.Tuple) *flow.Batch {
	b := getBatch()
	b.Add(t)
	return b
}

func putBatch(b *flow.Batch) {
	b.Reset()
	batchPool.Put(b)
}

// inbox is an unbounded FIFO of batches; unboundedness removes the
// eddy↔module send cycle that could otherwise deadlock bounded channels.
// items is used as a ring-ish queue: pop consumes from head instead of
// re-slicing, and the slice rewinds to its full capacity whenever the queue
// drains, so a pooled shell's steady-state run stops allocating queue nodes.
type inbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []*flow.Batch
	head   int
	tuples int
	closed bool
}

func newInbox() *inbox {
	b := &inbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *inbox) push(batch *flow.Batch) {
	b.mu.Lock()
	if b.head == len(b.items) && b.head > 0 {
		b.items = b.items[:0]
		b.head = 0
	}
	b.items = append(b.items, batch)
	b.tuples += batch.Len()
	b.mu.Unlock()
	b.cond.Signal()
}

func (b *inbox) pop() (*flow.Batch, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.head == len(b.items) && !b.closed {
		b.cond.Wait()
	}
	// Closed means the run is over (quiescent, timed out, or canceled):
	// drop any backlog rather than service it, so cancellation stops
	// workers promptly. On the quiescent path the queues are necessarily
	// empty (queued tuples are counted in the in-flight counter).
	if b.closed {
		return nil, false
	}
	batch := b.items[b.head]
	b.items[b.head] = nil
	b.head++
	if b.head == len(b.items) {
		b.items = b.items[:0]
		b.head = 0
	}
	b.tuples -= batch.Len()
	return batch, true
}

// len returns the number of tuples (not batches) waiting.
func (b *inbox) len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tuples
}

func (b *inbox) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// reopen rearms a closed inbox for a pooled shell's next run, dropping any
// batches the previous run's shutdown left behind (capacity is kept, batch
// references are not). Callers must guarantee no worker is still blocked in
// pop (RunContext has returned).
func (b *inbox) reopen() {
	b.mu.Lock()
	clear(b.items)
	b.items = b.items[:0]
	b.head = 0
	b.tuples = 0
	b.closed = false
	b.mu.Unlock()
}

// eddyEvent is a message to the eddy goroutine: a batch of tuples to route,
// policy feedback from a module worker (policies are not thread-safe, so
// all policy calls happen on the eddy goroutine), or an already-routed
// tuple to deliver to its module through the eddy-goroutine-only enqueue
// path (deliverT set; used for delayed broadcast deliveries that need the
// flush-first ordering discipline).
type eddyEvent struct {
	b          *flow.Batch
	fb         *policy.Feedback
	deliverT   *tuple.Tuple
	deliverMod int
}

// fbPool recycles the Feedback carriers sent through the events channel:
// workers finish a batch per service, and boxing each report into an
// interface-bearing event forced a heap allocation per batch. The eddy loop
// returns carriers after Observe; carriers stranded in the channel when a run
// is canceled are simply dropped.
var fbPool = sync.Pool{New: func() any { return new(policy.Feedback) }}

func newFeedback(fb policy.Feedback) *policy.Feedback {
	p := fbPool.Get().(*policy.Feedback)
	*p = fb
	return p
}

// pendKey identifies one coalescing buffer: the tuples' shared routing span
// and, for sharded modules, the shard their batch will be serviced by.
type pendKey struct {
	span  tuple.TableSet
	shard int
}

// ColRouter is the optional routing capability the columnar dataflow needs:
// deciding the fate of a whole column-vector batch in one call. The Router
// implements it; a Routing that does not keeps the engine on the row path.
type ColRouter interface {
	RouteCol(cb *flow.ColBatch, env policy.Env) Decision
}

// Concurrent drives a Routing with goroutines and channels on a real clock.
type Concurrent struct {
	r   Routing
	clk clock.Clock

	// BatchSize caps the number of tuples the eddy coalesces into one
	// channel send to a module; 0 defaults to DefaultBatchSize at Run, and
	// 1 reproduces per-tuple dataflow exactly. Set before Run.
	BatchSize int
	// Columnar enables the typed column-vector dataflow: scan AMs emit
	// ColBatches, selection and SteM modules service them with vectorized
	// kernels, and the eddy routes each batch with one decision. It is on by
	// default and takes effect when BatchSize > 1 and the routing supports it
	// (ColRouter); BatchSize 1 always runs the exact row-at-a-time dataflow.
	// Set before Run.
	Columnar bool
	// OnOutput is called (on the eddy goroutine) for each result.
	OnOutput func(t *tuple.Tuple, at clock.Time)
	// OnService is called (on the eddy goroutine) with every service
	// completion the routing policy observes — row and columnar batches both
	// funnel through here — so a trace collector sees exactly the feedback
	// stream the policy learns from. Pure wake-up events (Emitted < 0) are
	// not reported. Set before Run; Reset clears it.
	OnService func(fb policy.Feedback)
	// WallTimeout aborts the run after this much wall time; 0 disables. The
	// run returns the results produced so far plus an error.
	WallTimeout time.Duration

	events chan eddyEvent
	// done is closed when the run winds down (quiescence, timeout, or
	// cancellation); delay-timer goroutines select on it so a canceled run
	// never waits out pending virtual sleeps.
	done chan struct{}
	// senders tracks every goroutine that may still send on events other
	// than the module workers (the seeder and the delay timers); shutdown
	// waits for them before closing the channel so the drainer can exit and
	// the run leaves zero goroutines behind.
	senders sync.WaitGroup
	// inboxes is indexed [module][shard]; unsharded modules have exactly one
	// inbox that all their workers share.
	inboxes [][]*inbox
	// sharded caches each module's flow.Sharded interface when it has more
	// than one shard; nil entries take the unsharded path.
	sharded  []flow.Sharded
	inflight atomic.Int64
	costEWMA []atomic.Int64 // per-module EWMA service cost per tuple, ns

	// colOn records that the columnar dataflow is active this run; colRouter,
	// colMod and colShard cache the columnar capabilities of the routing and
	// of each module (nil entries materialize to rows at enqueue).
	colOn     bool
	colRouter ColRouter
	colMod    []flow.ColModule
	colShard  []flow.ColSharded

	// pend, staging, and decisions are eddy-goroutine-only: the per-module
	// coalescing buffers, the reused routing batch incoming tuples drain
	// into, and the reused RouteBatch scratch. pend is keyed by the
	// tuples' span (and shard) within each module, so every released batch
	// is span-homogeneous — its policy feedback attributes to one
	// tuplestate signature — and shard-homogeneous — its service takes one
	// shard lock. batchCap is the per-module coalescing limit: BatchSize
	// for single-server and sharded modules (each shard is a single
	// server), 1 for modules with internal parallelism (batching those
	// would serialize service their Parallel() worker pool is meant to
	// overlap — e.g. asynchronous index lookups).
	pend      []map[pendKey]*flow.Batch
	pendCount []int
	batchCap  []int
	// pendCol holds the columnar coalescing buffers, keyed like pend; merging
	// requires identical routing headers (SameHeader), and merged storage is
	// the pooled destination batch's — the source returns to the pool.
	// colParts is the eddy-goroutine-only scratch for partitioning one
	// columnar batch across a sharded module's inboxes.
	pendCol  []map[pendKey]*flow.ColBatch
	colParts []*flow.ColBatch
	// anyRR round-robins flow.ShardAny tuples across shard inboxes; atomic
	// because both the eddy goroutine (enqueue) and timer goroutines
	// (deliverDirect) draw from it.
	anyRR     []atomic.Int64
	staging   *flow.Batch
	decisions []Decision

	mu      sync.Mutex
	outputs []Output
	// errSet arms on the first setErr of a run; an atomic.Bool rather than a
	// sync.Once so Reset can rearm it for a pooled shell's next run.
	errSet atomic.Bool
	err    error
}

// NewConcurrent prepares a concurrent run. clk nil defaults to a real clock
// compressed 1000× (one virtual second per wall millisecond).
func NewConcurrent(r Routing, clk clock.Clock) *Concurrent {
	if clk == nil {
		clk = clock.NewReal(0.001)
	}
	return &Concurrent{
		r:        r,
		clk:      clk,
		Columnar: true,
		events:   make(chan eddyEvent, 1024),
		done:     make(chan struct{}),
		costEWMA: make([]atomic.Int64, len(r.Modules())),
	}
}

// setErr records the first error of the current run; later calls lose.
func (c *Concurrent) setErr(err error) {
	if c.errSet.CompareAndSwap(false, true) {
		c.mu.Lock()
		c.err = err
		c.mu.Unlock()
	}
}

// SetClock replaces the engine's clock before a run; nil restores the
// default 1000×-compressed real clock. A pooled shell gets a fresh clock per
// execution so virtual timestamps restart from zero, exactly as on a newly
// constructed engine.
func (c *Concurrent) SetClock(clk clock.Clock) {
	if clk == nil {
		clk = clock.NewReal(0.001)
	}
	c.clk = clk
}

// Reset returns a finished engine shell to its pre-run state so it can be
// pooled and run again: RunContext after Reset behaves exactly like the
// first RunContext on a fresh engine (the run-scoped scaffolding — inboxes,
// coalescing buffers, scratch — is retained and reopened rather than
// reallocated, which is the point of pooling). It must only be called after
// RunContext has returned, which guarantees every goroutine of the previous
// run has exited; the modules' own state (SteM dictionaries, AM dedup
// caches, policy learners) belongs to the Routing and is reset through it.
func (c *Concurrent) Reset() {
	// The previous run closed both channels; rearm them.
	c.events = make(chan eddyEvent, 1024)
	c.done = make(chan struct{})
	c.inflight.Store(0)
	for i := range c.costEWMA {
		c.costEWMA[i].Store(0)
	}
	for i := range c.anyRR {
		c.anyRR[i].Store(0)
	}
	// The previous run's shutdown closed every inbox (possibly with dropped
	// batches still queued); rearm them empty.
	for _, boxes := range c.inboxes {
		for _, ib := range boxes {
			ib.reopen()
		}
	}
	// A canceled run can abandon batches in the coalescing buffers; recycle
	// them so the pooled shell starts empty.
	for i := range c.pend {
		for key, b := range c.pend[i] {
			delete(c.pend[i], key)
			putBatch(b)
		}
		for key, cb := range c.pendCol[i] {
			delete(c.pendCol[i], key)
			flow.PutColBatch(cb)
		}
		c.pendCount[i] = 0
	}
	if c.staging != nil {
		c.staging.Reset()
	}
	c.colOn = false
	c.colRouter = nil
	c.OnOutput = nil
	c.OnService = nil
	c.outputs = nil
	c.err = nil
	c.errSet.Store(false)
}

// Now implements policy.Env.
func (c *Concurrent) Now() clock.Time { return c.clk.Now() }

// Backlog implements policy.Env.
func (c *Concurrent) Backlog(mod int) clock.Duration {
	par := c.r.Modules()[mod].Parallel()
	if par == 0 {
		return 0
	}
	waiting := c.pendCount[mod]
	for _, ib := range c.inboxes[mod] {
		waiting += ib.len()
	}
	return clock.Duration(int64(waiting) * c.costEWMA[mod].Load() / int64(par))
}

// Run executes the query to completion and returns the results in output
// order. It is safe to call once; to run a shell again, call Reset first
// (and Router.Reset on the routing, which owns the module state).
func (c *Concurrent) Run() ([]Output, error) { return c.RunContext(context.Background()) }

// RunContext is Run under a cancellation context: when ctx is canceled (a
// per-query deadline, a disconnected client, a server shutting down) the
// eddy stops routing, the module workers stop, and the call returns the
// results produced so far plus an error wrapping ctx.Err(). Every goroutine
// the run started has exited by the time RunContext returns.
func (c *Concurrent) RunContext(ctx context.Context) ([]Output, error) {
	return c.run(ctx, c.r.Seeds())
}

// RunDelta runs one incremental round over the module state earlier rounds
// built: the given tuples (fresh singletons for newly arrived rows) are
// injected into the dataflow instead of the routing's seeds, so no scan
// re-runs, and the results are exactly this round's delta — an injected
// tuple builds into its SteM with a fresh timestamp from the router's
// persistent counter and its probes match every strictly-older build, so
// each cross-round combination is produced once, by its last-arriving
// component. Call it on a shell whose previous round completed and was
// Reset (the engine's channels are rearmed, hooks must be re-set) WITHOUT
// resetting the Routing — the SteM state is the standing query.
func (c *Concurrent) RunDelta(ctx context.Context, ts []*tuple.Tuple) ([]Output, error) {
	return c.run(ctx, ts)
}

// run executes one round: seeds (initial scan seeds or injected delta
// tuples) enter the dataflow, and the call returns at quiescence.
func (c *Concurrent) run(ctx context.Context, seeds []*tuple.Tuple) ([]Output, error) {
	if c.BatchSize <= 0 {
		c.BatchSize = DefaultBatchSize
	}
	mods := c.r.Modules()
	// A shell that already ran (and was Reset) keeps its run-scoped
	// scaffolding — inboxes, coalescing buffers, scratch slices — and only
	// reopens it; that near-zero setup is what makes pooled shells worth
	// caching. The module list is a property of the Routing, so a reused
	// shell's layout always matches.
	fresh := len(c.inboxes) != len(mods)
	if fresh {
		c.inboxes = make([][]*inbox, len(mods))
		c.sharded = make([]flow.Sharded, len(mods))
		c.pend = make([]map[pendKey]*flow.Batch, len(mods))
		c.pendCol = make([]map[pendKey]*flow.ColBatch, len(mods))
		c.colMod = make([]flow.ColModule, len(mods))
		c.colShard = make([]flow.ColSharded, len(mods))
		c.pendCount = make([]int, len(mods))
		c.batchCap = make([]int, len(mods))
		c.anyRR = make([]atomic.Int64, len(mods))
		c.staging = flow.NewBatch(c.BatchSize)
	}
	// Columnar capability is recomputed every run: BatchSize and Columnar
	// may change between a pooled shell's executions.
	c.colRouter = nil
	c.colOn = false
	if cr, ok := c.r.(ColRouter); ok && c.Columnar && c.BatchSize > 1 {
		c.colRouter = cr
		c.colOn = true
	}
	for i, m := range mods {
		if c.colOn {
			c.colMod[i], _ = m.(flow.ColModule)
			c.colShard[i], _ = m.(flow.ColSharded)
		} else {
			c.colMod[i], c.colShard[i] = nil, nil
		}
	}
	var wg sync.WaitGroup
	for i, m := range mods {
		if fresh {
			c.pend[i] = make(map[pendKey]*flow.Batch)
			c.pendCol[i] = make(map[pendKey]*flow.ColBatch)
		}
		if sm, ok := m.(flow.Sharded); ok && sm.Shards() > 1 {
			// One single-server inbox+worker per shard; per-shard batches
			// coalesce like any single-server module's.
			c.sharded[i] = sm
			c.batchCap[i] = c.BatchSize
			n := sm.Shards()
			if fresh {
				c.inboxes[i] = make([]*inbox, n)
				for w := 0; w < n; w++ {
					c.inboxes[i][w] = newInbox()
				}
			}
			for w := 0; w < n; w++ {
				c.inboxes[i][w].reopen()
				wg.Add(1)
				go c.shardWorker(i, w, &wg)
			}
			continue
		}
		if fresh {
			c.inboxes[i] = []*inbox{newInbox()}
		}
		c.inboxes[i][0].reopen()
		if m.Parallel() == 1 {
			c.batchCap[i] = c.BatchSize
		} else {
			c.batchCap[i] = 1
		}
		workers := m.Parallel()
		if workers == 0 {
			workers = 64
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go c.worker(i, &wg)
		}
	}

	c.inflight.Store(int64(len(seeds)))
	if len(seeds) > 0 {
		c.senders.Add(1)
		go func() {
			defer c.senders.Done()
			for _, s := range seeds {
				select {
				case c.events <- eddyEvent{b: getBatchOf(s)}:
				case <-c.done:
					return
				}
			}
		}()

		var timeout <-chan time.Time
		if c.WallTimeout > 0 {
			tm := time.NewTimer(c.WallTimeout)
			defer tm.Stop()
			timeout = tm.C
		}
		// Background's Done channel is nil, so an un-cancelable run blocks
		// on this case forever — exactly the pre-context behavior.
		cancelCh := ctx.Done()

		timedOut := func() {
			c.setErr(fmt.Errorf("eddy: wall timeout after %v with %d tuples in flight",
				c.WallTimeout, c.inflight.Load()))
		}
		canceled := func() {
			c.setErr(fmt.Errorf("eddy: run canceled with %d tuples in flight: %w",
				c.inflight.Load(), ctx.Err()))
		}

		// The eddy goroutine: the only caller of RouteBatch/Choose/Observe.
		// Incoming tuples drain into the staging batch and are routed once
		// it reaches BatchSize or the event channel momentarily empties, so
		// routing (and the policy) sees the widest batches the current load
		// can supply.
	loop:
		for {
			var ev eddyEvent
			select {
			case ev = <-c.events:
			case <-timeout:
				// Checked here too so sustained event traffic cannot
				// starve the watchdog.
				timedOut()
				break loop
			case <-cancelCh:
				canceled()
				break loop
			default:
				// Nothing immediately pending: route what is staged, then
				// release the coalescing buffers before blocking, so the
				// tuples held there can produce the events we are about to
				// wait for.
				c.routeStaged()
				c.flushAll()
				if c.inflight.Load() == 0 && !c.drainSpill() {
					break loop
				}
				select {
				case ev = <-c.events:
				case <-timeout:
					timedOut()
					break loop
				case <-cancelCh:
					canceled()
					break loop
				}
			}
			if ev.fb != nil {
				if ev.fb.Emitted >= 0 {
					c.r.Policy().Observe(*ev.fb)
					if c.OnService != nil {
						c.OnService(*ev.fb)
					}
				}
				fbPool.Put(ev.fb)
			} else if ev.deliverT != nil {
				c.enqueue(ev.deliverMod, ev.deliverT)
			} else if ev.b.Col != nil {
				// A columnar batch is already a batch: it routes as one unit
				// immediately, preserving its order in the event stream
				// relative to row events (an AM's scan chunks precede its
				// EOT; a SteM's build bounce precedes anything later).
				cb := ev.b.Col
				ev.b.Col = nil
				putBatch(ev.b)
				c.routeColBatch(cb)
			} else {
				for _, t := range ev.b.Tuples {
					c.staging.Add(t)
					if c.staging.Len() >= c.BatchSize {
						c.routeStaged()
					}
				}
				putBatch(ev.b)
			}
			// The first error (a contained panic) ends the run: its result
			// is incomplete anyway, and a failed module may not recover.
			if c.errSet.Load() || c.inflight.Load() == 0 && !c.drainSpill() {
				break loop
			}
		}
	}

	// Quiescent, timed out, or canceled: wind the dataflow down without
	// leaking a single goroutine. A drainer absorbs events still in flight
	// (feedback from draining workers; stragglers from the seeder and
	// delayed emissions); closing done releases the delay timers, closing
	// the inboxes releases the workers. Once the workers and the tracked
	// senders have exited nothing can send anymore, so the events channel
	// closes and the drainer itself terminates before we return.
	drained := make(chan struct{})
	go func() {
		for range c.events {
		}
		close(drained)
	}()
	close(c.done)
	for _, boxes := range c.inboxes {
		for _, b := range boxes {
			b.close()
		}
	}
	wg.Wait()
	c.senders.Wait()
	close(c.events)
	<-drained
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.outputs, c.err
}

// drainSpill runs the out-of-core replay phase: called only at quiescence
// (in-flight count zero, so every worker is idle and every queue empty, on
// the eddy goroutine), it asks the routing to replay spilled SteM state and
// routes the regenerated results back into the dataflow. It reports whether
// the dataflow has work again; rounds whose results all resolve immediately
// (outputs and drops) trigger another drain, since their routing may have
// recorded further replay obligations. Canceled and timed-out runs never
// reach it — their results are already incomplete, and spill segments are
// cleaned up by the governor, not the drain.
func (c *Concurrent) drainSpill() bool {
	sd, ok := c.r.(spillDrainer)
	if !ok {
		return false
	}
	for {
		ems := sd.DrainSpill()
		if len(ems) == 0 {
			return false
		}
		c.inflight.Add(int64(len(ems)))
		for _, em := range ems {
			c.staging.Add(em.T)
			if c.staging.Len() >= c.BatchSize {
				c.routeStaged()
			}
		}
		c.routeStaged()
		c.flushAll()
		if c.inflight.Load() != 0 {
			return true
		}
	}
}

// routeStaged routes the staged tuples in one RouteBatch call, coalescing
// module-bound tuples into the per-module pending buffers.
func (c *Concurrent) routeStaged() {
	if c.staging.Len() == 0 {
		return
	}
	b := c.staging
	unresolved := int64(b.Len())
	defer func() {
		b.Reset()
		if r := recover(); r != nil {
			c.setErr(fmt.Errorf("eddy: routing panic: %v", r))
			c.inflight.Add(-unresolved)
		}
	}()
	c.decisions = c.r.RouteBatch(b.Tuples, c, c.decisions[:0])
	for i, d := range c.decisions {
		t := b.Tuples[i]
		switch {
		case d.Output:
			now := c.clk.Now()
			c.mu.Lock()
			c.outputs = append(c.outputs, Output{T: t, At: now})
			c.mu.Unlock()
			if c.OnOutput != nil {
				c.OnOutput(t, now)
			}
			c.inflight.Add(-1)
		case d.Drop:
			c.inflight.Add(-1)
		case d.Delay > 0:
			c.later(d.Delay, d.Module, t, nil)
		default:
			c.enqueue(d.Module, t)
		}
		unresolved--
	}
}

// routeColBatch routes one columnar batch (eddy goroutine only): one
// decision covers every live row, applied without materializing any of them
// except on the output path, where rows become result tuples.
func (c *Concurrent) routeColBatch(cb *flow.ColBatch) {
	n := int64(cb.Rows())
	defer func() {
		if r := recover(); r != nil {
			c.setErr(fmt.Errorf("eddy: routing panic: %v", r))
			c.inflight.Add(-n)
		}
	}()
	d := c.colRouter.RouteCol(cb, c)
	switch {
	case d.Output:
		now := c.clk.Now()
		ts := cb.Materialize()
		flow.PutColBatch(cb)
		c.mu.Lock()
		for _, t := range ts {
			c.outputs = append(c.outputs, Output{T: t, At: now})
		}
		c.mu.Unlock()
		if c.OnOutput != nil {
			for _, t := range ts {
				c.OnOutput(t, now)
			}
		}
		c.inflight.Add(-n)
	case d.Drop:
		flow.PutColBatch(cb)
		c.inflight.Add(-n)
	case d.Delay > 0:
		c.later(d.Delay, d.Module, nil, cb)
	default:
		c.enqueueCol(d.Module, cb)
	}
}

// shardOf resolves the shard a tuple addresses within a module; unsharded
// modules always use shard 0.
func (c *Concurrent) shardOf(mod int, t *tuple.Tuple) int {
	if sm := c.sharded[mod]; sm != nil {
		return sm.ShardOf(t)
	}
	return 0
}

// enqueue adds a tuple to a module's pending batch for the tuple's (span,
// shard), releasing the batch once it reaches the module's coalescing cap.
// Parallel (unsharded) modules have cap 1, so their tuples are pushed
// straight through and their worker pools keep overlapping service.
// Broadcast (flow.ShardAll) tuples first flush the module's coalescing
// buffers — so builds staged ahead of an EOT reach each shard's FIFO inbox
// before its EOT copy — and are then replicated to every shard, with the
// extra copies accounted in the in-flight counter. flow.ShardAny tuples
// coalesce like any others (under their ShardAny key) so the module's sweep
// path amortizes its all-shard lock acquisition across the batch, and the
// released batches round-robin across the shard inboxes (any worker may
// serve them).
func (c *Concurrent) enqueue(mod int, t *tuple.Tuple) {
	shard := c.shardOf(mod, t)
	if shard == flow.ShardAll {
		c.flushModule(mod)
		boxes := c.inboxes[mod]
		c.inflight.Add(int64(len(boxes) - 1))
		for _, ib := range boxes {
			ib.push(getBatchOf(t))
		}
		return
	}
	if c.batchCap[mod] <= 1 {
		c.pushTo(mod, shard, getBatchOf(t))
		return
	}
	key := pendKey{span: t.Span, shard: shard}
	p := c.pend[mod][key]
	if p == nil {
		p = getBatch()
		c.pend[mod][key] = p
	}
	p.Add(t)
	c.pendCount[mod]++
	if p.Len() >= c.batchCap[mod] {
		delete(c.pend[mod], key)
		c.pendCount[mod] -= p.Len()
		c.pushTo(mod, key.shard, p)
	}
}

// pushTo delivers a batch to one shard inbox; ShardAny batches round-robin.
func (c *Concurrent) pushTo(mod, shard int, b *flow.Batch) {
	if shard < 0 {
		shard = c.nextAny(mod)
	}
	c.inboxes[mod][shard].push(b)
}

// enqueueCol adds a columnar batch to a module's columnar coalescing buffers
// (eddy goroutine only). Modules without a columnar path get the rows
// materialized into the ordinary row enqueue; sharded modules get the batch
// partitioned per shard (sweep batches — ShardAny — stay whole, the binding
// is span-determined and thus batch-uniform). EOT markers never travel
// columnar, so there is no ShardAll case.
func (c *Concurrent) enqueueCol(mod int, cb *flow.ColBatch) {
	if c.colMod[mod] == nil || (c.sharded[mod] != nil && c.colShard[mod] == nil) {
		for _, t := range cb.Materialize() {
			c.enqueue(mod, t)
		}
		flow.PutColBatch(cb)
		return
	}
	if sm := c.colShard[mod]; sm != nil && c.sharded[mod] != nil {
		rows := cb.Rows()
		first := sm.ShardOfCol(cb, cb.RowAt(0))
		if first == flow.ShardAny {
			c.pendColAdd(mod, flow.ShardAny, cb)
			return
		}
		uniform := true
		for k := 1; k < rows; k++ {
			if sm.ShardOfCol(cb, cb.RowAt(k)) != first {
				uniform = false
				break
			}
		}
		if uniform {
			c.pendColAdd(mod, first, cb)
			return
		}
		nsh := len(c.inboxes[mod])
		if cap(c.colParts) < nsh {
			c.colParts = make([]*flow.ColBatch, nsh)
		}
		parts := c.colParts[:nsh]
		for k := 0; k < rows; k++ {
			i := cb.RowAt(k)
			s := sm.ShardOfCol(cb, i)
			p := parts[s]
			if p == nil {
				p = flow.GetColBatch(cb.NTables)
				p.CopyHeaderFrom(cb)
				parts[s] = p
			}
			p.AppendRowFrom(cb, i)
		}
		flow.PutColBatch(cb)
		for s, p := range parts {
			if p != nil {
				parts[s] = nil
				c.pendColAdd(mod, s, p)
			}
		}
		return
	}
	if c.batchCap[mod] <= 1 {
		c.pushColTo(mod, 0, cb)
		return
	}
	c.pendColAdd(mod, 0, cb)
}

// pendColAdd coalesces a columnar batch into the module's (span, shard)
// buffer. Merging is only legal between identical routing headers; a header
// change (visit counts advanced, lineage flags set) releases the buffered
// batch and starts a fresh one. Merged rows move into the buffered batch's
// pooled vector storage and the source batch returns to the pool.
func (c *Concurrent) pendColAdd(mod, shard int, cb *flow.ColBatch) {
	key := pendKey{span: cb.Span, shard: shard}
	p := c.pendCol[mod][key]
	if p != nil {
		if p.SameHeader(cb) {
			p.AppendAllFrom(cb)
			c.pendCount[mod] += cb.Rows()
			flow.PutColBatch(cb)
			if p.Rows() >= c.batchCap[mod] {
				delete(c.pendCol[mod], key)
				c.pendCount[mod] -= p.Rows()
				c.pushColTo(mod, shard, p)
			}
			return
		}
		delete(c.pendCol[mod], key)
		c.pendCount[mod] -= p.Rows()
		c.pushColTo(mod, shard, p)
	}
	if cb.Rows() >= c.batchCap[mod] {
		c.pushColTo(mod, shard, cb)
		return
	}
	c.pendCol[mod][key] = cb
	c.pendCount[mod] += cb.Rows()
}

// pushColTo delivers a columnar batch to one shard inbox inside a pooled
// row-batch shell (the inbox currency stays *flow.Batch).
func (c *Concurrent) pushColTo(mod, shard int, cb *flow.ColBatch) {
	shell := getBatch()
	shell.Col = cb
	c.pushTo(mod, shard, shell)
}

// deliverDirectCol delivers a delayed columnar batch straight to the
// module's inboxes (timer goroutines; the eddy-only coalescing buffers are
// off limits, and the pools are safe to use from here).
func (c *Concurrent) deliverDirectCol(mod int, cb *flow.ColBatch) {
	if c.colMod[mod] == nil || (c.sharded[mod] != nil && c.colShard[mod] == nil) {
		for _, t := range cb.Materialize() {
			c.deliverDirect(mod, t)
		}
		flow.PutColBatch(cb)
		return
	}
	if sm := c.colShard[mod]; sm != nil && c.sharded[mod] != nil {
		rows := cb.Rows()
		first := sm.ShardOfCol(cb, cb.RowAt(0))
		if first == flow.ShardAny {
			c.pushColTo(mod, flow.ShardAny, cb)
			return
		}
		parts := make([]*flow.ColBatch, len(c.inboxes[mod]))
		for k := 0; k < rows; k++ {
			i := cb.RowAt(k)
			s := sm.ShardOfCol(cb, i)
			if parts[s] == nil {
				parts[s] = flow.GetColBatch(cb.NTables)
				parts[s].CopyHeaderFrom(cb)
			}
			parts[s].AppendRowFrom(cb, i)
		}
		flow.PutColBatch(cb)
		for s, p := range parts {
			if p != nil {
				c.pushColTo(mod, s, p)
			}
		}
		return
	}
	c.pushColTo(mod, 0, cb)
}

// deliverDirect delivers a delayed tuple straight to the module's inboxes,
// bypassing the eddy-goroutine-only coalescing buffers (it runs on timer
// goroutines). Today only probes are ever delayed; should a broadcast
// (flow.ShardAll) tuple ever arrive here, it is bounced to the eddy
// goroutine instead, whose enqueue applies the flush-first discipline that
// keeps builds ordered ahead of EOT copies in every shard inbox.
func (c *Concurrent) deliverDirect(mod int, t *tuple.Tuple) {
	switch shard := c.shardOf(mod, t); shard {
	case flow.ShardAll:
		c.events <- eddyEvent{deliverT: t, deliverMod: mod}
	case flow.ShardAny:
		c.inboxes[mod][c.nextAny(mod)].push(getBatchOf(t))
	default:
		c.inboxes[mod][shard].push(getBatchOf(t))
	}
}

// nextAny picks the next shard inbox for a flow.ShardAny tuple, spreading
// sweep probes across workers (any worker may serve them — the module
// synchronizes across shards itself).
func (c *Concurrent) nextAny(mod int) int {
	return int(c.anyRR[mod].Add(1) % int64(len(c.inboxes[mod])))
}

// flushModule releases every non-empty pending batch of one module, columnar
// buffers first so staged builds keep preceding a broadcast EOT in every
// shard inbox.
func (c *Concurrent) flushModule(mod int) {
	if cols := c.pendCol[mod]; len(cols) > 0 {
		for key, p := range cols {
			delete(cols, key)
			c.pushColTo(mod, key.shard, p)
		}
	}
	spans := c.pend[mod]
	for key, p := range spans {
		delete(spans, key)
		c.pushTo(mod, key.shard, p)
	}
	c.pendCount[mod] = 0
}

// flushAll releases every non-empty pending batch.
func (c *Concurrent) flushAll() {
	for mod := range c.pend {
		c.flushModule(mod)
	}
}

// worker services one unsharded module (possibly one of several workers
// sharing the module's single inbox, per Parallel()).
func (c *Concurrent) worker(mod int, wg *sync.WaitGroup) {
	defer wg.Done()
	m := flow.Lift(c.r.Modules()[mod])
	var cm flow.ColModule
	if c.colOn {
		cm = c.colMod[mod]
	}
	ib := c.inboxes[mod][0]
	for {
		b, ok := ib.pop()
		if !ok {
			return
		}
		c.serve(mod, b, m, cm)
	}
}

// serve services one batch of an unsharded module; a panic is contained.
func (c *Concurrent) serve(mod int, b *flow.Batch, m flow.BatchModule, cm flow.ColModule) {
	in := b.Len()
	defer c.contain(mod, in)
	if cm != nil {
		rows, cols, cost := cm.ProcessColBatch(b, c.clk.Now())
		c.finishCol(mod, 0, b, in, rows, cols, cost)
		return
	}
	ems, cost := m.ProcessBatch(b, c.clk.Now())
	c.finishBatch(mod, 0, b, ems, cost)
}

// shardWorker services one shard of a sharded module: it pops the shard's
// own inbox and calls ProcessShard, so different shards of one module are
// serviced fully in parallel.
func (c *Concurrent) shardWorker(mod, shard int, wg *sync.WaitGroup) {
	defer wg.Done()
	m := c.sharded[mod]
	var cm flow.ColSharded
	if c.colOn {
		cm = c.colShard[mod]
	}
	ib := c.inboxes[mod][shard]
	for {
		b, ok := ib.pop()
		if !ok {
			return
		}
		c.serveShard(mod, shard, b, m, cm)
	}
}

// serveShard services one batch of one shard; a panic is contained.
func (c *Concurrent) serveShard(mod, shard int, b *flow.Batch, m flow.Sharded, cm flow.ColSharded) {
	in := b.Len()
	defer c.contain(mod, in)
	if cm != nil {
		rows, cols, cost := cm.ProcessColShard(shard, b, c.clk.Now())
		c.finishCol(mod, shard, b, in, rows, cols, cost)
		return
	}
	ems, cost := m.ProcessShard(shard, b, c.clk.Now())
	c.finishBatch(mod, shard, b, ems, cost)
}

// contain is deferred around module code on engine goroutines — batch
// service and delayed deliveries. A panic there becomes the run's error
// instead of killing the process: the n rows in hand leave the dataflow,
// and the eddy is woken so it sees the error and stops the run. The
// goroutine then carries on (a worker keeps draining its inbox until the
// shutdown closes it).
func (c *Concurrent) contain(mod, n int) {
	r := recover()
	if r == nil {
		return
	}
	c.setErr(fmt.Errorf("eddy: module %s panicked: %v", c.r.Modules()[mod].Name(), r))
	c.inflight.Add(-int64(n))
	c.send(eddyEvent{fb: newFeedback(policy.Feedback{Module: mod, Emitted: -1})})
}

// later delivers a delayed routing decision — a row tuple t or a columnar
// batch cb — to module mod's inboxes after the modeled delay d, on a
// tracked sender goroutine, unless the run winds down first. Choosing the
// shard runs module code, so a panic is contained.
func (c *Concurrent) later(d clock.Duration, mod int, t *tuple.Tuple, cb *flow.ColBatch) {
	c.senders.Add(1)
	go func() {
		defer c.senders.Done()
		if !c.waitOrDone(d) {
			return
		}
		if t != nil {
			defer c.contain(mod, 1)
			c.deliverDirect(mod, t)
			return
		}
		defer c.contain(mod, cb.Rows())
		c.deliverDirectCol(mod, cb)
	}()
}

// lateEvent is a delayed emission — a row tuple t or a columnar batch cb —
// waiting for its due time.
type lateEvent struct {
	due clock.Time
	t   *tuple.Tuple
	cb  *flow.ColBatch
}

// sendLate sends one service's delayed emissions to the eddy on a single
// tracked sender goroutine, each no earlier than its due time, in due order
// with ties in emission order, unless the run winds down first. One
// goroutine per service rather than per row keeps a paced scan's rows — and
// its EOT, due together with the last row — arriving in scan order, which
// arrival-ordered state such as window eviction depends on.
func (c *Concurrent) sendLate(late []lateEvent) {
	if len(late) == 0 {
		return
	}
	slices.SortStableFunc(late, func(x, y lateEvent) int { return cmp.Compare(x.due, y.due) })
	c.senders.Add(1)
	go func() {
		defer c.senders.Done()
		for _, l := range late {
			if d := clock.Duration(l.due - c.clk.Now()); d > 0 && !c.waitOrDone(d) {
				return
			}
			if l.t != nil {
				c.send(eddyEvent{b: getBatchOf(l.t)})
				continue
			}
			shell := getBatch()
			shell.Col = l.cb
			c.send(eddyEvent{b: shell})
		}
	}()
}

// send delivers an event to the eddy from a goroutine that must not block
// past the run's wind-down.
func (c *Concurrent) send(ev eddyEvent) {
	select {
	case c.events <- ev:
	case <-c.done:
	}
}

// waitOrDone pauses for the modeled duration d, returning false when the
// run is canceled first. Clocks implementing clock.Waiter (the real clock)
// wait with a pooled timer; the fallback pays After's per-call allocations.
func (c *Concurrent) waitOrDone(d clock.Duration) bool {
	if w, ok := c.clk.(clock.Waiter); ok {
		return w.WaitOrDone(d, c.done)
	}
	select {
	case <-c.clk.After(d):
		return true
	case <-c.done:
		return false
	}
}

// finishBatch applies the shared post-service accounting of one batch:
// sleep the service cost, adjust the in-flight counter, report policy
// feedback, and route the emissions onward.
func (c *Concurrent) finishBatch(mod, shard int, b *flow.Batch, ems []flow.Emission, cost clock.Duration) {
	c.observeCost(mod, cost, b.Len())
	// The modeled service cost elapses interruptibly: a canceled run must
	// not wait out the remaining sleep (at compression 1 it is real time).
	if cost > 0 {
		c.waitOrDone(cost)
	}

	// Account for the net dataflow change before emitting, so the
	// counter can never dip to zero while emissions are pending.
	delta := int64(len(ems)) - int64(b.Len())
	outputs := countNew(b, ems)
	if delta > 0 {
		c.inflight.Add(delta)
	}
	// Batches are span-homogeneous (the eddy coalesces per span), so the
	// first tuple's span signs the whole batch; Visits lets learners
	// normalize the batch totals back to per-visit values.
	fb := policy.Feedback{
		Module: mod, Shard: shard, Sig: uint64(b.Tuples[0].Span),
		Outputs: outputs, Emitted: len(ems), Cost: cost, Now: c.clk.Now(),
		Visits: b.Len(),
	}
	putBatch(b)
	var ready *flow.Batch
	var late []lateEvent
	for _, em := range ems {
		switch {
		case em.Delay > 0:
			if late == nil {
				late = make([]lateEvent, 0, len(ems))
			}
			late = append(late, lateEvent{due: fb.Now.Add(em.Delay), t: em.T})
		case c.BatchSize == 1:
			// Tuple-at-a-time mode: every emission is its own event,
			// exactly as the pre-batching engine sent them.
			c.events <- eddyEvent{b: getBatchOf(em.T)}
		default:
			if ready == nil {
				ready = getBatch()
			}
			ready.Add(em.T)
		}
	}
	if ready != nil {
		c.events <- eddyEvent{b: ready}
	}
	c.events <- eddyEvent{fb: newFeedback(fb)}
	// Delayed emissions start after the feedback is queued, so the eddy
	// observes this service before the rows it released.
	c.sendLate(late)
	if delta < 0 {
		if c.inflight.Add(delta) == 0 {
			// Wake the eddy loop so it observes quiescence; Emitted -1
			// marks it as a pure wake-up, not real feedback.
			c.events <- eddyEvent{fb: newFeedback(policy.Feedback{Module: mod, Emitted: -1})}
		}
	}
}

// finishCol is finishBatch for a columnar-capable module: it accounts and
// forwards both row and columnar emissions. All counters are row counts (a
// columnar emission contributes its live rows), columnar emissions enter the
// event stream before row emissions (an AM's scan chunks must precede its
// row EOT so the flush-first broadcast discipline can order the inboxes),
// and the input batch's columnar payload returns to the pool unless the
// module re-emitted it (a bounce).
// finishCol applies finishBatch's accounting to a columnar service. inRows
// is the batch's row count captured BEFORE the module ran: columnar modules
// filter the selection vector in place (predicate misses, duplicate builds,
// matched/unmatched splits), so the post-service b.Len() undercounts what
// entered and would leak the difference in the in-flight counter.
func (c *Concurrent) finishCol(mod, shard int, b *flow.Batch, inRows int, rowEms []flow.Emission, colEms []flow.ColEmission, cost clock.Duration) {
	cb := b.Col
	c.observeCost(mod, cost, inRows)
	if cost > 0 {
		c.waitOrDone(cost)
	}

	outRows := len(rowEms)
	newRows := 0
	if len(rowEms) > 0 {
		newRows = countNew(b, rowEms)
	}
	bounced := false
	for _, em := range colEms {
		outRows += em.B.Rows()
		if em.B == cb {
			bounced = true
		} else {
			newRows += em.B.Rows()
		}
	}
	delta := int64(outRows) - int64(inRows)
	if delta > 0 {
		c.inflight.Add(delta)
	}
	var sig uint64
	if cb != nil {
		sig = uint64(cb.Span)
	} else {
		sig = uint64(b.Tuples[0].Span)
	}
	fb := policy.Feedback{
		Module: mod, Shard: shard, Sig: sig,
		Outputs: newRows, Emitted: outRows, Cost: cost, Now: c.clk.Now(),
		Visits: inRows,
	}
	if cb != nil && !bounced {
		flow.PutColBatch(cb)
	}
	b.Col = nil
	putBatch(b)

	var late []lateEvent
	for _, em := range colEms {
		if em.Delay > 0 {
			late = append(late, lateEvent{due: fb.Now.Add(em.Delay), cb: em.B})
			continue
		}
		shell := getBatch()
		shell.Col = em.B
		c.events <- eddyEvent{b: shell}
	}
	var ready *flow.Batch
	for _, em := range rowEms {
		switch {
		case em.Delay > 0:
			if late == nil {
				late = make([]lateEvent, 0, len(rowEms))
			}
			late = append(late, lateEvent{due: fb.Now.Add(em.Delay), t: em.T})
		default:
			if ready == nil {
				ready = getBatch()
			}
			ready.Add(em.T)
		}
	}
	if ready != nil {
		c.events <- eddyEvent{b: ready}
	}
	c.events <- eddyEvent{fb: newFeedback(fb)}
	c.sendLate(late)
	if delta < 0 {
		if c.inflight.Add(delta) == 0 {
			c.events <- eddyEvent{fb: newFeedback(policy.Feedback{Module: mod, Emitted: -1})}
		}
	}
}

// countNew counts the emissions that are not batch inputs bouncing back —
// the productive output of the batch. Small batches use a linear scan; big
// ones build a one-shot identity set so the count stays O(batch+emissions).
func countNew(b *flow.Batch, ems []flow.Emission) int {
	outputs := 0
	if b.Len() <= 8 {
		for _, em := range ems {
			if !b.Contains(em.T) {
				outputs++
			}
		}
		return outputs
	}
	in := make(map[*tuple.Tuple]struct{}, b.Len())
	for _, t := range b.Tuples {
		in[t] = struct{}{}
	}
	for _, em := range ems {
		if _, ok := in[em.T]; !ok {
			outputs++
		}
	}
	return outputs
}

// observeCost folds a batch's total service cost into the module's
// per-tuple EWMA.
func (c *Concurrent) observeCost(mod int, cost clock.Duration, n int) {
	if n <= 0 {
		return
	}
	per := int64(cost) / int64(n)
	old := c.costEWMA[mod].Load()
	nw := per
	if old != 0 {
		nw = (per + 4*old) / 5
	}
	c.costEWMA[mod].Store(nw)
}
