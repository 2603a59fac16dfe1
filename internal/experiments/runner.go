package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/obsv/trace"
)

// Result is one experiment's outcome from a RunAllCtx pass: the table or
// the error. Its timing is the experiment.<ID> span RunAllCtx starts
// under ctx's tracer, if any.
type Result struct {
	Index   int
	ID      string
	Table   *Table
	Err     error
	Skipped bool // run was cancelled before this experiment started
}

// PanicError wraps a panic recovered from an experiment goroutine so one
// buggy table cannot kill a whole -parallel run. The stack is captured at
// recovery time for the JSON report.
type PanicError struct {
	ID    string
	Value any
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("experiment %s panicked: %v", e.ID, e.Value)
}

// RunAllCtx executes the experiments on a bounded worker pool and
// returns one Result per experiment, in input order. parallel <= 0 uses
// GOMAXPROCS; parallel == 1 is fully sequential. Each experiment runs in
// an experiment.<ID> span of ctx's trace, carrying its title, row count
// or error.
//
// Tables are identical for every worker count: each experiment generator
// seeds its own rand sources and shares no mutable state with the others,
// and the obsv registry (the only cross-experiment sink) uses atomic
// counters, so the aggregate metrics are also scheduling-independent.
//
// Experiments that have not started when ctx is cancelled are marked
// Skipped with Err = ctx.Err(); experiments already running are allowed
// to finish (the generators are not individually context-aware), so the
// returned slice is always complete and in input order — partial in
// content, never in shape. perTimeout > 0 stamps an experiment whose run
// exceeds it with a deadline error but does not abandon the table it
// produced. A panicking experiment is recovered into a *PanicError on its
// Result instead of crashing the process.
func RunAllCtx(ctx context.Context, list []Experiment, parallel int, perTimeout time.Duration) []Result {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > len(list) {
		parallel = len(list)
	}
	if parallel < 1 {
		parallel = 1
	}
	results := make([]Result, len(list))
	var wg sync.WaitGroup
	sem := make(chan struct{}, parallel)
	for i, ex := range list {
		wg.Add(1)
		go func(i int, ex Experiment) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			_, sp := trace.Start(ctx, "experiment."+ex.ID)
			defer sp.End()
			res := Result{Index: i, ID: ex.ID}
			if err := ctx.Err(); err != nil {
				res.Skipped = true
				res.Err = err
			} else {
				start := time.Now()
				res.Table, res.Err = runOne(ex)
				if took := time.Since(start); res.Err == nil && perTimeout > 0 && took > perTimeout {
					res.Err = fmt.Errorf("experiment %s: exceeded per-experiment budget %v (took %v): %w",
						ex.ID, perTimeout, took, context.DeadlineExceeded)
				}
			}
			if res.Table != nil {
				sp.SetAttr("title", res.Table.Title)
				sp.SetAttr("rows", len(res.Table.Rows))
			}
			if res.Err != nil {
				sp.SetAttr("error", res.Err.Error())
			}
			results[i] = res
		}(i, ex)
	}
	wg.Wait()
	return results
}

// runOne fences a single experiment: a panic anywhere inside the
// generator becomes a *PanicError result.
func runOne(ex Experiment) (t *Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			t = nil
			err = &PanicError{ID: ex.ID, Value: r, Stack: string(debug.Stack())}
		}
	}()
	return ex.Run()
}
