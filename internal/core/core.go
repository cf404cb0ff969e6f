// Package core is the one place a bound query becomes a running engine. It
// instantiates the paper's SteM architecture (Section 2.2 — access modules,
// selection modules, one SteM per base table, an eddy router under the
// Table 2 constraints), runs it on either engine, and checks what the run
// left behind. The facade, stemsd and stemsql all execute through Exec; only
// the engine packages and the figure harness (whose runs are the
// bit-identical reference) build routers and engines themselves.
//
// Lifecycle, following the Parse → Prepare → Execute split: New builds the
// modules once; Run executes a full round and RunDelta an incremental round
// over the state earlier rounds built; a later Run first resets the Exec, in
// place after a clean round and by rebuilding after a failed one; Close
// releases what the Exec owns on disk.
package core

import (
	"context"
	"errors"
	"fmt"
	"os"

	"repro/internal/clock"
	"repro/internal/eddy"
	"repro/internal/policy"
	"repro/internal/query"
	"repro/internal/stem"
	"repro/internal/trace"
	"repro/internal/tuple"
)

// Engine selects the execution engine.
type Engine uint8

const (
	// Sim is the deterministic discrete-event engine on a virtual clock.
	Sim Engine = iota
	// Concurrent is the goroutine-per-module engine on a compressed real
	// clock; it gives each SteM shard its own worker.
	Concurrent
)

// ErrSpill marks a failure of spill storage — creating the spill directory,
// or a spill write or read during the run — as opposed to a fault of the
// query or the spec.
var ErrSpill = errors.New("spill I/O failed")

// Spec is what a caller decides about an execution.
type Spec struct {
	// Q is the bound query.
	Q *query.Q
	// Options configures the router. Exec installs Policy itself, and
	// Governor and SharedFor when SpillBudget and Shared are set.
	Options eddy.Options
	// Policy names the routing policy (see policy.ByName); Seed seeds it.
	Policy string
	Seed   int64
	Engine Engine
	// BatchSize and Columnar configure the Concurrent engine's dataflow.
	BatchSize int
	Columnar  bool
	// Compression scales the Concurrent engine's real clock; 0 means 0.001
	// (one virtual second per wall millisecond).
	Compression float64
	// Deadline stops the Sim engine at this virtual time; 0 runs to
	// completion.
	Deadline clock.Time
	// OnOutput receives each result as it is produced (SetOutput replaces
	// it between runs). OnPartial receives intermediate results spanning
	// two or more but not all tables; Sim only.
	OnOutput  func(*tuple.Tuple, clock.Time)
	OnPartial func(*tuple.Tuple, clock.Time)
	// Trace attaches a trace collector to every run.
	Trace bool
	// SpillBudget, when >0, runs the SteMs under a spill governor the Exec
	// owns: at most this many bytes stay resident and the rest spills to
	// segments under SpillDir (os.TempDir() when empty).
	SpillBudget int64
	SpillDir    string
	// Shared attaches sealed shared SteM state by table position; nil
	// entries (or a nil slice) keep the table private.
	Shared []*stem.SharedState
}

// Counters sums a run's module statistics.
type Counters struct {
	Routed        uint64 // routing decisions
	Probes        uint64 // remote index lookups across all AMs
	Builds        uint64 // rows materialized across all SteMs
	SpilledBuilds uint64 // rows written to spill segments
	ReplayMatches uint64 // results regenerated by the spill replay pass
	SpilledBytes  int64  // on-disk footprint under the owned spill governor
	SimEvents     uint64 // events the Sim engine processed (0 on Concurrent)
}

// Exec is one query's modules and engine, runnable many times. It is not
// safe for concurrent use.
type Exec struct {
	spec  Spec
	onOut func(*tuple.Tuple, clock.Time)

	pol  policy.Policy
	gov  *stem.Governor // the router's governor: owned when SpillBudget > 0
	r    *eddy.Router
	eng  *eddy.Concurrent
	sim  *eddy.Sim
	coll *trace.Collector

	// ran marks a round since the last build or reset; dirty marks a failed
	// one, whose engine and module state Reset must not reuse.
	ran, dirty bool
}

// New validates the spec and builds the modules and engine.
func New(spec Spec) (*Exec, error) {
	if spec.OnPartial != nil && spec.Engine != Sim {
		return nil, errors.New("OnPartial requires the simulation engine")
	}
	e := &Exec{spec: spec, onOut: spec.OnOutput}
	if err := e.build(); err != nil {
		return nil, err
	}
	return e, nil
}

// build instantiates a fresh policy, governor, router, engine and collector.
func (e *Exec) build() error {
	pol, err := policy.ByName(e.spec.Policy, e.spec.Seed)
	if err != nil {
		return err
	}
	opts := e.spec.Options
	opts.Policy = pol
	if e.spec.SpillBudget > 0 {
		dir := e.spec.SpillDir
		if dir == "" {
			dir = os.TempDir()
		}
		if opts.Governor, err = stem.NewSpillGovernor(e.spec.SpillBudget, stem.AllocByProbes, dir); err != nil {
			return fmt.Errorf("%w: %w", ErrSpill, err)
		}
	}
	if shared := e.spec.Shared; shared != nil {
		opts.SharedFor = func(t int) *stem.SharedState { return shared[t] }
	}
	r, err := eddy.NewRouter(e.spec.Q, opts)
	if err != nil {
		if e.spec.SpillBudget > 0 {
			opts.Governor.Close()
		}
		return err
	}
	e.pol, e.gov, e.r, e.sim = pol, opts.Governor, r, nil
	e.eng, e.coll = nil, nil
	if e.spec.Engine == Concurrent {
		e.eng = eddy.NewConcurrent(r, e.clock())
		e.eng.BatchSize = e.spec.BatchSize
		e.eng.Columnar = e.spec.Columnar
	}
	if e.spec.Trace {
		e.coll = trace.NewCollector(r.Modules())
	}
	return nil
}

func (e *Exec) clock() clock.Clock {
	comp := e.spec.Compression
	if comp == 0 {
		comp = 0.001
	}
	return clock.NewReal(comp)
}

// SetOutput replaces the result hook from the next round on; nil drops it.
func (e *Exec) SetOutput(fn func(*tuple.Tuple, clock.Time)) { e.onOut = fn }

// Run executes a full round and returns its results in emission order,
// resetting first if the Exec already ran. The error is the first failing
// post-run check, in order: the engine's run error, tuples with no legal
// route, the spill governor's I/O error, a shared state's spill-read
// error. Any error marks the Exec dirty, so the next round rebuilds it.
func (e *Exec) Run(ctx context.Context) ([]eddy.Output, error) {
	if err := e.Reset(); err != nil {
		return nil, err
	}
	e.ran = true
	var outs []eddy.Output
	var err error
	if e.eng != nil {
		e.hook()
		outs, err = e.eng.RunContext(ctx)
		e.unhook()
	} else {
		e.sim = e.newSim(ctx)
		outs, err = e.sim.Run()
	}
	return outs, e.check(err)
}

// RunDelta runs an incremental round: ts (fresh singletons for newly
// arrived rows) enter the dataflow over the SteM state every earlier round
// built, and only this round's results are returned. It needs a clean
// earlier round and runs the same post-run checks as Run.
func (e *Exec) RunDelta(ctx context.Context, ts []*tuple.Tuple) ([]eddy.Output, error) {
	if !e.ran || e.dirty {
		return nil, errors.New("core: RunDelta needs a clean earlier round")
	}
	var outs []eddy.Output
	var err error
	if e.eng != nil {
		e.eng.Reset()
		e.hook()
		outs, err = e.eng.RunDelta(ctx, ts)
		e.unhook()
	} else {
		e.sim.Ctx = simCtx(ctx)
		outs, err = e.sim.RunDelta(ts)
	}
	return outs, e.check(err)
}

// hook installs the per-round Concurrent hooks; the engine's Reset clears
// them. The collector attaches last so it chains the output hook.
func (e *Exec) hook() {
	e.eng.OnOutput = e.onOut
	if e.coll != nil {
		e.coll.AttachConcurrent(e.eng)
	}
}

// unhook releases the round's Concurrent hooks, so an idle (pooled) Exec
// holds no reference to its last caller's output sink.
func (e *Exec) unhook() { e.eng.OnOutput, e.eng.OnService = nil, nil }

// newSim builds the simulator for one full round over the router.
func (e *Exec) newSim(ctx context.Context) *eddy.Sim {
	sim := eddy.NewSim(e.r)
	sim.Deadline = e.spec.Deadline
	sim.Ctx = simCtx(ctx)
	sim.OnOutput = e.onOut
	if onPartial := e.spec.OnPartial; onPartial != nil {
		all := e.spec.Q.AllTables()
		sim.OnEmit = func(t *tuple.Tuple, at clock.Time) {
			if t.EOT == nil && !t.Seed && t.Span.Count() >= 2 && t.Span != all {
				onPartial(t, at)
			}
		}
	}
	if e.coll != nil {
		e.coll.Attach(sim)
	}
	return sim
}

// simCtx leaves an uncancelable context out of the simulator, whose event
// loop then never polls it.
func simCtx(ctx context.Context) context.Context {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return ctx
}

// check applies the ordered post-run checks to a finished round; any
// failure marks the Exec dirty.
func (e *Exec) check(err error) error {
	if err == nil {
		err = e.postRunErr()
	}
	if err != nil {
		e.dirty = true
	}
	return err
}

// postRunErr runs the checks that follow a clean engine run, in order.
func (e *Exec) postRunErr() error {
	if n := e.r.Stuck(); n > 0 {
		return fmt.Errorf("internal error: %d tuples had no legal route", n)
	}
	if e.gov != nil {
		if err := e.gov.Err(); err != nil {
			return fmt.Errorf("%w (results fell back to resident storage): %w", ErrSpill, err)
		}
	}
	for t, ss := range e.spec.Shared {
		if ss == nil {
			continue
		}
		if err := ss.Err(); err != nil {
			return fmt.Errorf("shared state for %q: %w (results may be incomplete): %w",
				e.spec.Q.Tables[t].Name, ErrSpill, err)
		}
	}
	return nil
}

// Reset readies the Exec for another full round. After a clean round the
// modules and engine are scrubbed in place and the policy keeps what it
// learned; after a failed round — or under a spill budget, whose per-run
// disk state cannot be scrubbed — everything is rebuilt from the spec. A
// Reset before any round is a no-op.
func (e *Exec) Reset() error {
	if !e.ran && !e.dirty {
		return nil
	}
	if e.dirty || e.spec.SpillBudget > 0 {
		e.closeGov()
		if err := e.build(); err != nil {
			e.dirty = true
			return err
		}
		e.ran, e.dirty = false, false
		return nil
	}
	e.r.Reset(nil)
	if e.eng != nil {
		e.eng.Reset()
		e.eng.SetClock(e.clock())
	}
	if e.coll != nil {
		e.coll.Reset()
	}
	e.ran = false
	return nil
}

// Close removes the owned spill governor's segments. The Exec must not run
// again. Idempotent.
func (e *Exec) Close() error { return e.closeGov() }

func (e *Exec) closeGov() error {
	g := e.Governor()
	if g == nil {
		return nil
	}
	e.gov = nil
	return g.Close()
}

// Counters sums the module statistics of the rounds since the last reset.
func (e *Exec) Counters() Counters {
	c := Counters{Routed: e.r.Routed()}
	for _, a := range e.r.AMs() {
		c.Probes += a.Stats().Probes
	}
	for _, s := range e.r.SteMs() {
		st := s.Stats()
		c.Builds += st.Builds
		c.SpilledBuilds += st.SpilledBuilds
		c.ReplayMatches += st.ReplayMatches
	}
	if g := e.Governor(); g != nil {
		_, c.SpilledBytes = g.BytesStats()
	}
	if e.sim != nil {
		c.SimEvents = e.sim.Events()
	}
	return c
}

// Policy returns the routing policy, with what it has learned so far.
func (e *Exec) Policy() policy.Policy { return e.pol }

// Trace returns the run's trace collector; nil unless Spec.Trace.
func (e *Exec) Trace() *trace.Collector { return e.coll }

// Governor returns the owned spill governor; nil without a spill budget.
func (e *Exec) Governor() *stem.Governor {
	if e.spec.SpillBudget <= 0 {
		return nil
	}
	return e.gov
}
