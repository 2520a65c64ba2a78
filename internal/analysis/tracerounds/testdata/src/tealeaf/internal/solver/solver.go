// Package solver holds the layering cases for tracerounds: iteration
// code touching the raw Communicator (flagged) next to the wrapper
// methods that are the allowed surface.
package solver

import "tealeaf/internal/comm"

// engine mirrors the real solver engine: c is the raw communicator the
// loops must not touch.
type engine struct {
	c comm.Communicator
}

// dot is an allowlisted traced wrapper.
func (e *engine) dot(x, y float64) float64 {
	return e.c.AllReduceSum(x * y)
}

// dotPair is an allowlisted traced wrapper.
func (e *engine) dotPair(x, y float64) (float64, float64) {
	return e.c.AllReduceSum2(x, y)
}

// reduceN is an allowlisted traced wrapper.
func (e *engine) reduceN(vals []float64) []float64 {
	return e.c.AllReduceSumN(vals)
}

// reduceNStart is an allowlisted traced wrapper.
func (e *engine) reduceNStart(vals []float64) comm.ReduceHandle {
	return e.c.AllReduceSumNStart(vals)
}

// system mirrors the solver's one execution backend; Exchange is its
// allowed pass-through.
type system struct {
	c comm.Communicator
}

func (s *system) Exchange(depth int, fields ...[]float64) error {
	return s.c.Exchange(depth, fields...)
}

// NewPowers only queries rank-local topology: Size is not a collective.
func (s *system) NewPowers() int { return s.c.Size() }

// Residual is not on the allowlist: a system method other than the
// Exchange pass-through must not reach the communicator either.
func (s *system) Residual(r []float64) error {
	return s.c.Exchange(1, r) // want `direct Communicator Exchange in the solver`
}

// exchange3D reaches the communicator through its 3D-named face, which is
// the same collective.
func (e *engine) exchange3D(r []float64) error {
	return e.c.Exchange3D(1, r) // want `direct Communicator Exchange3D in the solver`
}

// runLoop is an iteration loop: collectives must go through wrappers.
func (e *engine) runLoop(iters int, r []float64) float64 {
	rr := 0.0
	for it := 0; it < iters; it++ {
		sums := e.c.AllReduceSumN([]float64{rr, 1}) // want `direct Communicator AllReduceSumN in the solver`
		rr = sums[0]
		h := e.c.AllReduceSumNStart([]float64{rr}) // want `direct Communicator AllReduceSumNStart in the solver`
		rr = h.Finish()[0]
	}
	return rr
}

// jacobiStep is the jacobi.go shape: a scalar error reduction.
func (e *engine) jacobiStep(localErr float64) float64 {
	return e.c.AllReduceSum(localErr) // want `direct Communicator AllReduceSum in the solver`
}

// exchangeDirect bypasses the system pass-through.
func (e *engine) exchangeDirect(r []float64) error {
	return e.c.Exchange(1, r) // want `direct Communicator Exchange in the solver`
}

// viaWrappers is the clean loop: every round goes through the surface.
func (e *engine) viaWrappers(iters int, r []float64) float64 {
	rr := 0.0
	for it := 0; it < iters; it++ {
		rr = e.dot(rr, rr)
		sums := e.reduceN([]float64{rr, 1})
		rr = sums[0]
		h := e.reduceNStart([]float64{rr})
		rr = h.Finish()[0]
	}
	return rr
}

// localQueries touch rank-local state only: exempt.
func (e *engine) localQueries() int {
	return e.c.Rank() + e.c.Size()
}
