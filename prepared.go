// prepared.go is the facade's prepare-once-execute-many surface, mirroring
// the stemsd server's plan cache: the query is validated, its module graph
// built, and the concurrent engine constructed a single time; each Run
// resets the shell (dictionaries cleared in place, inboxes rewound, zero
// goroutines left behind — see internal/eddy/reset_test.go) instead of
// rebuilding it, so hot repeated queries pay near-zero setup.
package stems

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/query"
)

// Prepared is a query built once and executable many times. The routing
// policy persists across executions, so what it learned on earlier runs
// carries over — a warm Prepared routes better than a cold one. A Prepared
// is not safe for concurrent use: executions must be serial (the server
// pools multiple shells per plan for parallelism; here, Prepare twice).
type Prepared struct {
	iq *query.Q
	x  *core.Exec
}

// Prepare builds the query's module graph and concurrent engine for
// repeated execution. Only the Concurrent engine supports pooled reuse
// (the simulator is cheap to build and deterministic per construction), and
// per-run disk state cannot be carried across executions, so Options that
// select the simulator, spilling, windows, or simulator-only hooks are
// rejected.
func (q *Query) Prepare(opts Options) (*Prepared, error) {
	if opts.Engine != Concurrent {
		return nil, fmt.Errorf("stems: Prepare requires Engine: Concurrent")
	}
	if opts.Explain || opts.OnPartial != nil {
		return nil, fmt.Errorf("stems: Explain and OnPartial require the simulation engine")
	}
	if opts.MemoryBudget > 0 || opts.MemoryBudgetBytes > 0 {
		return nil, fmt.Errorf("stems: memory governors hold per-run state and cannot be prepared; use Run")
	}
	if len(opts.Window) > 0 {
		return nil, fmt.Errorf("stems: windowed tables hold per-run eviction state and cannot be prepared; use Run")
	}
	iq, err := q.Build()
	if err != nil {
		return nil, err
	}
	spec, err := q.spec(iq, opts)
	if err != nil {
		return nil, err
	}
	x, err := core.New(spec)
	if err != nil {
		return nil, err
	}
	return &Prepared{iq: iq, x: x}, nil
}

// Run executes the prepared query and collects all results.
func (p *Prepared) Run() (*Result, error) {
	return p.RunContext(context.Background())
}

// RunContext is Run under a cancellation context. After a canceled or
// failed run the shell is rebuilt from scratch on the next call (a stopped
// run may strand batches mid-flight; only clean completions are reused),
// so an error never poisons the Prepared.
func (p *Prepared) RunContext(ctx context.Context) (*Result, error) {
	outs, err := p.x.Run(ctx)
	if err != nil {
		return nil, err
	}
	return newResult(p.iq, outs, p.x.Counters()), nil
}
