package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"tealeaf/internal/comm"
	"tealeaf/internal/core"
	"tealeaf/internal/deck"
	"tealeaf/internal/deflate"
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/solver"
	"tealeaf/internal/stats"
)

// instance is what the benchmark drives on each rank; *core.Instance and
// *core.Instance3D both satisfy it.
type instance interface {
	Step() (solver.Result, error)
	Summarise() core.Summary
}

// rankInst is one rank's ready instance plus what the benchmark needs
// around it.
type rankInst struct {
	inst instance
	pool *par.Pool
	opts *solver.Options
	// bumpEnergy scales one interior energy cell: the tamper hook the
	// tests use to prove a wrong output counts as a failed run.
	bumpEnergy func()
}

// newRank builds one rank's instance the way core.RunRank and
// core.RunRank3D do (global grid, this rank's sub-grid, its thread team),
// so that NewInstance can be timed apart from the steps. 3D decks run on
// one rank.
func newRank(d *deck.Deck, part *grid.Partition, c comm.Communicator, workers int) (*rankInst, error) {
	pool := par.Serial
	if workers > 1 {
		pool = par.NewPool(workers)
	}
	ri, err := buildInstance(d, part, c, pool)
	if err != nil {
		pool.Close()
		return nil, err
	}
	return ri, nil
}

func buildInstance(d *deck.Deck, part *grid.Partition, c comm.Communicator, pool *par.Pool) (*rankInst, error) {
	if d.Dims == 3 {
		g, err := grid.NewGrid3D(d.XCells, d.YCells, d.ZCells, core.HaloFor(d),
			d.XMin, d.XMax, d.YMin, d.YMax, d.ZMin, d.ZMax)
		if err != nil {
			return nil, err
		}
		inst, err := core.NewInstance3D(d, g, pool, c)
		if err != nil {
			return nil, err
		}
		e := inst.Energy
		return &rankInst{inst: inst, pool: pool, opts: inst.Options(),
			bumpEnergy: func() { e.Set(0, 0, 0, e.At(0, 0, 0)*1.5) }}, nil
	}
	gg, err := grid.NewGrid2D(d.XCells, d.YCells, core.HaloFor(d), d.XMin, d.XMax, d.YMin, d.YMax)
	if err != nil {
		return nil, err
	}
	ext := part.ExtentOf(c.Rank())
	sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1)
	if err != nil {
		return nil, err
	}
	inst, err := core.NewInstance(d, sub, pool, c)
	if err != nil {
		return nil, err
	}
	e := inst.Energy
	return &rankInst{inst: inst, pool: pool, opts: inst.Options(),
		bumpEnergy: func() { e.Set(0, 0, e.At(0, 0)*1.5) }}, nil
}

// runOut is what one run (setup plus the timed steps) produced.
type runOut struct {
	setup, solve time.Duration
	ranks        []rankOut
	// Traced runs only: heap in use once every rank is set up, and the
	// runtime's counters either side of the timed steps.
	heapAfterSetup      uint64
	memBefore, memAfter runtime.MemStats
}

// rankOut is one rank's part of a run.
type rankOut struct {
	before, after core.Summary
	iters         []int // outer iterations per step
	inner         int
	trace         stats.Trace // the communicator's whole trace at the end
	stepTrace     stats.Trace // its counters over the timed steps only
	rec           *recorder   // nil on untraced runs
}

// runOnce brings up the workload's communicator, sets up every rank from
// the deck, runs the timed steps and summarises before and after them.
// setup runs from just before communicator bring-up to a barrier after
// every rank's instance is ready; solve runs barrier to barrier around
// the steps on rank 0.
func runOnce(w *workload, d *deck.Deck, traced, tamper bool) (*runOut, error) {
	out := &runOut{ranks: make([]rankOut, w.ranks)}
	t0 := time.Now()
	part, err := grid.NewPartition(d.XCells, d.YCells, 1, w.ranks)
	if err != nil {
		return nil, err
	}
	rank := func(c comm.Communicator) error {
		r := c.Rank()
		ro := &out.ranks[r]
		if traced {
			ro.rec = newRecorder(t0)
			c = &tracedComm{Communicator: c, rec: ro.rec}
		}
		ri, err := newRank(d, part, c, w.workers)
		if err != nil {
			return fmt.Errorf("rank %d: setup: %w", r, err)
		}
		defer ri.pool.Close()
		if dfl, ok := ri.opts.Deflation.(*deflate.Deflation); ok && ro.rec != nil {
			ri.opts.Deflation = &tracedDeflator{d: dfl, rec: ro.rec}
		}
		c.Barrier()
		if r == 0 {
			out.setup = time.Since(t0)
			if traced {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				out.heapAfterSetup = ms.HeapAlloc
			}
		}
		ro.before = ri.inst.Summarise()
		if r == 0 && traced {
			runtime.ReadMemStats(&out.memBefore)
		}
		c.Barrier()
		pre := copyTrace(c.Trace())
		start := time.Now()
		for s := 0; s < w.steps; s++ {
			sp := ro.rec.begin(spanStep, 0)
			res, err := ri.inst.Step()
			ro.rec.end(sp)
			if err != nil {
				return fmt.Errorf("rank %d: %w", r, err)
			}
			ro.iters = append(ro.iters, res.Iterations)
			ro.inner += res.TotalInner
		}
		ro.stepTrace = traceDelta(copyTrace(c.Trace()), pre)
		c.Barrier()
		if r == 0 {
			out.solve = time.Since(start)
			if traced {
				runtime.ReadMemStats(&out.memAfter)
			}
			if tamper {
				ri.bumpEnergy()
			}
		}
		ro.after = ri.inst.Summarise()
		ro.trace = copyTrace(c.Trace())
		return nil
	}
	if w.ranks == 1 {
		err = rank(comm.NewSerial())
	} else {
		err = comm.RunTCP(part, rank)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// copyTrace deep-copies a trace (its depth histogram is a map).
func copyTrace(t *stats.Trace) stats.Trace {
	c := *t
	c.ExchangesByDepth = make(map[int]int, len(t.ExchangesByDepth))
	for k, v := range t.ExchangesByDepth {
		c.ExchangesByDepth[k] = v
	}
	return c
}

// traceDelta returns the counters a accumulated since b.
func traceDelta(a, b stats.Trace) stats.Trace {
	return stats.Trace{
		Matvecs: a.Matvecs - b.Matvecs, MatvecCells: a.MatvecCells - b.MatvecCells,
		VectorPasses: a.VectorPasses - b.VectorPasses, VectorCells: a.VectorCells - b.VectorCells,
		Dots: a.Dots - b.Dots, DotCells: a.DotCells - b.DotCells,
		Reductions: a.Reductions - b.Reductions, ReducedValues: a.ReducedValues - b.ReducedValues,
		HaloExchanges: a.HaloExchanges - b.HaloExchanges, HaloMessages: a.HaloMessages - b.HaloMessages,
		HaloBytes:      a.HaloBytes - b.HaloBytes,
		PrecondApplies: a.PrecondApplies - b.PrecondApplies, PrecondCells: a.PrecondCells - b.PrecondCells,
	}
}

// sameBits reports whether two summaries are identical bit for bit.
func sameBits(a, b core.Summary) bool {
	fa := []float64{a.Volume, a.Mass, a.InternalEnergy, a.AvgTemperature, a.SimTime}
	fb := []float64{b.Volume, b.Mass, b.InternalEnergy, b.AvgTemperature, b.SimTime}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.Steps == b.Steps && a.TotalIterations == b.TotalIterations && a.TotalInner == b.TotalInner
}

// sameRun is the identity gate: a run reproduces a reference when every
// rank's summaries match bit for bit, its iteration counts match, and
// every counter of its communicator trace matches.
func sameRun(a, ref *runOut) error {
	for r := range ref.ranks {
		x, y := &a.ranks[r], &ref.ranks[r]
		switch {
		case !sameBits(x.after, y.after) || !sameBits(x.before, y.before):
			return fmt.Errorf("rank %d: summary differs from the reference run", r)
		case !reflect.DeepEqual(x.iters, y.iters) || x.inner != y.inner:
			return fmt.Errorf("rank %d: iterations %v/%d differ from the reference %v/%d", r, x.iters, x.inner, y.iters, y.inner)
		case !reflect.DeepEqual(x.trace, y.trace):
			return fmt.Errorf("rank %d: communicator trace differs from the reference run", r)
		}
	}
	return nil
}
