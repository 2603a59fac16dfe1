package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/logic"
	"repro/internal/obsv/trace"
)

// Measure is the merged result of a (possibly parallel) event-driven
// simulation run: per-node cumulative transition counts plus the
// aggregate Totals. It embeds the same Counts as Simulator, so power
// estimators read either through one accessor surface.
type Measure struct {
	Totals Totals
	Counts
}

// minChunk is the smallest vector chunk worth a goroutine: below this the
// per-shard simulator construction dominates the simulation itself.
const minChunk = 64

// MeasureRunCtx simulates the vector stream under the delay model and
// returns merged per-node counts, splitting the work across workers
// goroutines (workers <= 0 means GOMAXPROCS). It packs the stream and
// runs it as MeasureStimulusCtx does.
func MeasureRunCtx(ctx context.Context, nw *logic.Network, dm DelayModel, vectors [][]bool, workers int) (*Measure, error) {
	st, err := PackVectors(vectors)
	if err != nil {
		return nil, err
	}
	return MeasureStimulusCtx(ctx, nw, dm, st, workers)
}

// MeasureStimulusCtx simulates the packed stream under the delay model
// and returns merged per-node counts, splitting the work across workers
// goroutines (workers <= 0 means GOMAXPROCS). Each cycle loads its vector
// from the stream into one reused buffer.
//
// Results are bit-identical to a sequential Simulator run regardless of
// worker count. The stream is split into contiguous chunks; each worker
// warm-starts from the exact settled network state at its chunk boundary
// — computed by a cheap zero-delay prescan that replays the flip-flop
// state chain (for combinational networks the settled state is memoryless,
// so each boundary is a single settle of the preceding vector) — and the
// integer per-node counts are summed in chunk order. Glitch transients
// within a cycle depend only on the previous settled state and the new
// vector, so every chunk reproduces exactly the events of the sequential
// run over its cycles.
//
// It refuses to start after cancellation, every shard stops with
// ctx.Err() within ctxCheckCycles cycles of it, and, when the context
// carries a trace (see internal/obsv/trace), it records the whole run as
// a "sim.measure" span annotated with cycle/worker/transition counts. The
// context influences only whether the run finishes and what gets
// observed, never what is computed.
func MeasureStimulusCtx(ctx context.Context, nw *logic.Network, dm DelayModel, st Stimulus, workers int) (*Measure, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !st.fits(len(nw.PIs())) {
		return nil, fmt.Errorf("sim: measure got %d-bit vectors, network has %d inputs", st.Width(), len(nw.PIs()))
	}
	_, sp := trace.Start(ctx, "sim.measure")
	m, err := measureRun(ctx, nw, dm, st, workers)
	if sp != nil {
		sp.SetAttr("cycles", st.Len())
		sp.SetAttr("workers", workers)
		if err == nil {
			sp.SetAttr("transitions", m.Totals.Transitions)
			sp.SetAttr("spurious", m.Totals.Spurious)
		}
		sp.End()
	}
	return m, err
}

func measureRun(ctx context.Context, nw *logic.Network, dm DelayModel, st Stimulus, workers int) (*Measure, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if max := st.Len() / minChunk; workers > max {
		workers = max
	}
	if workers <= 1 {
		s, err := New(nw, dm)
		if err != nil {
			return nil, err
		}
		tot, err := s.run(ctx, st, 0, st.Len())
		if err != nil {
			return nil, err
		}
		return &Measure{Totals: tot, Counts: s.Counts}, nil
	}

	starts := chunkStarts(st.Len(), workers)
	states, err := boundaryStates(nw, st, starts)
	if err != nil {
		return nil, err
	}

	sims := make([]*Simulator, len(starts))
	tots := make([]Totals, len(starts))
	errs := make([]error, len(starts))
	var wg sync.WaitGroup
	for i := range starts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			end := st.Len()
			if i+1 < len(starts) {
				end = starts[i+1]
			}
			s, err := New(nw, dm)
			if err != nil {
				errs[i] = err
				return
			}
			s.loadState(states[i])
			tot, err := s.run(ctx, st, starts[i], end)
			if err != nil {
				errs[i] = err
				return
			}
			sims[i], tots[i] = s, tot
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	m := &Measure{Counts: newCounts(nw.NumNodes(), false)}
	for i, s := range sims {
		m.add(&s.Counts)
		m.Totals.add(tots[i])
	}
	return m, nil
}

// chunkStarts splits n items into near-equal contiguous chunks and
// returns each chunk's start index. The split depends only on n and the
// chunk count, never on scheduling.
func chunkStarts(n, chunks int) []int {
	starts := make([]int, chunks)
	base, rem := n/chunks, n%chunks
	pos := 0
	for i := range starts {
		starts[i] = pos
		pos += base
		if i < rem {
			pos++
		}
	}
	return starts
}

// boundaryStates returns, for each chunk start, the full settled node
// state the sequential simulator would hold on entering that cycle. The
// first chunk gets the all-zero reset settle. Combinational networks are
// memoryless — each boundary is one settle of the chunk's preceding
// vector — while sequential networks need a zero-delay replay of the
// whole prefix to carry the flip-flop state chain (still far cheaper than
// the event-driven run, which also simulates every glitch).
func boundaryStates(nw *logic.Network, st Stimulus, starts []int) ([][]bool, error) {
	cv, err := nw.Compile()
	if err != nil {
		return nil, err
	}
	pis := nw.PIs()
	v := make([]bool, st.Width())
	resetState := func() []bool {
		val := make([]bool, nw.NumNodes())
		cv.Reset(val)
		return val
	}

	states := make([][]bool, len(starts))
	if len(cv.FFs) == 0 {
		for i, start := range starts {
			if start == 0 {
				states[i] = resetState()
				continue
			}
			val := make([]bool, nw.NumNodes())
			st.Load(start-1, v)
			for j, pi := range pis {
				val[pi] = v[j]
			}
			cv.Settle(val)
			states[i] = val
		}
		return states, nil
	}

	// Sequential prescan: replay the event-driven clocking discipline
	// (FFs load D from the settled state, then the inputs change) under
	// zero delay, snapshotting the state entering each chunk.
	val := resetState()
	newFF := make([]bool, len(cv.FFs))
	next := 0
	for t := 0; t < st.Len(); t++ {
		for next < len(starts) && starts[next] == t {
			states[next] = append([]bool(nil), val...)
			next++
		}
		if next == len(starts) {
			break
		}
		for i, d := range cv.FFD {
			newFF[i] = val[d]
		}
		for i, f := range cv.FFs {
			val[f] = newFF[i]
		}
		st.Load(t, v)
		for j, pi := range pis {
			val[pi] = v[j]
		}
		cv.Settle(val)
	}
	return states, nil
}
