package solver

import (
	"fmt"
	"testing"

	"tealeaf/internal/comm"
	"tealeaf/internal/grid"
)

// Regression for the pipelined engine's error paths: when the overlapped
// matvec's halo exchange fails between AllReduceSumNStart and Finish, the
// engine must drain the posted round before surfacing the error — an
// abandoned handle leaves the other ranks blocked inside the butterfly
// and poisons the next collective on this one. faultComm injects the
// failure and counts the Start/Finish balance through the public solve.

// faultComm wraps a Communicator, failing Exchange after failAfter calls
// and counting split-phase rounds.
type faultComm struct {
	comm.Communicator
	failAfter int
	exchanges int
	started   int
	finished  int
}

func (f *faultComm) Exchange(depth int, fields ...*grid.Field2D) error {
	f.exchanges++
	if f.exchanges > f.failAfter {
		return fmt.Errorf("injected exchange failure on call %d", f.exchanges)
	}
	return f.Communicator.Exchange(depth, fields...)
}

// countingHandle forwards Finish and records that the round was drained.
type countingHandle struct {
	h ReduceHandleAlias
	f *faultComm
}

// ReduceHandleAlias keeps the test readable without importing the
// interface under a second name.
type ReduceHandleAlias = comm.ReduceHandle

func (h countingHandle) Finish() []float64 {
	h.f.finished++
	return h.h.Finish()
}

func (f *faultComm) AllReduceSumNStart(vals []float64) comm.ReduceHandle {
	f.started++
	return countingHandle{h: f.Communicator.AllReduceSumNStart(vals), f: f}
}

func TestPipelinedCGDrainsReductionOnExchangeFailure(t *testing.T) {
	for _, split := range []bool{false, true} {
		exercised := false
		for failAfter := 0; failAfter <= 8; failAfter++ {
			p := buildProblem(t, 16, 16, 2, 11)
			fc := &faultComm{Communicator: comm.NewSerial(), failAfter: failAfter}
			o := Options{Tol: 1e-12, Engine: EnginePipelined, SplitSweeps: split, Comm: fc}
			_, err := SolveCG(p, o)
			if fc.started != fc.finished {
				t.Fatalf("split=%v failAfter=%d: %d split-phase rounds started but %d finished (err=%v)",
					split, failAfter, fc.started, fc.finished, err)
			}
			if err != nil && fc.started > 0 {
				exercised = true // the failure landed between Start and Finish
			}
		}
		if !exercised {
			t.Fatalf("split=%v: no injected failure hit the in-flight window; widen the failAfter sweep", split)
		}
	}
}
