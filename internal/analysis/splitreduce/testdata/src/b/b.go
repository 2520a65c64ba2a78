// Package b holds split-phase reduction usage the splitreduce analyzer
// must accept: the overlap idioms the pipelined CG engine actually uses.
package b

import "tealeaf/internal/comm"

// pipelinedLoop mirrors runCGPipelinedCore: one round per iteration,
// posted before the overlapped work, finished after it, with the error
// path draining the handle before returning.
func pipelinedLoop(c comm.Communicator, iters int, compute func() error) ([]float64, error) {
	g, d, rr := 1.0, 2.0, 3.0
	var out []float64
	for i := 0; ; i++ {
		h := c.AllReduceSumNStart([]float64{g, d, rr})
		if err := compute(); err != nil {
			h.Finish() // drain: leave the collective state clean on error paths
			return nil, err
		}
		out = h.Finish()
		if i >= iters {
			break
		}
	}
	return out, nil
}

// exchangeOverlap runs a halo exchange between the phases — explicitly
// allowed; hiding the exchange is the point of the split.
func exchangeOverlap(c comm.Communicator, x []float64) ([]float64, error) {
	h := c.AllReduceSumNStart(x)
	if err := c.Exchange(1, x); err != nil {
		h.Finish()
		return nil, err
	}
	return h.Finish(), nil
}

// overlapGoroutine overlaps the round with an exchange on a plain
// goroutine that neither starts nor finishes a round.
func overlapGoroutine(c comm.Communicator, x []float64) []float64 {
	h := c.AllReduceSumNStart(x)
	done := make(chan error, 1)
	go func() { done <- c.Exchange(1, x) }()
	<-done
	return h.Finish()
}

// startTraced is a Start wrapper: it hands the obligation to its caller
// with the handle, like the solver engine's traced wrapper.
func startTraced(c comm.Communicator, vals []float64) comm.ReduceHandle {
	return c.AllReduceSumNStart(vals)
}

// viaWrapper consumes a wrapper-started round; the call site counts as
// the Start.
func viaWrapper(c comm.Communicator, work func()) []float64 {
	h := startTraced(c, []float64{1, 2, 3})
	work()
	return h.Finish()
}

// sequentialRounds runs rounds back to back — never more than one in
// flight.
func sequentialRounds(c comm.Communicator) []float64 {
	h := c.AllReduceSumNStart([]float64{1})
	first := h.Finish()
	h2 := c.AllReduceSumNStart(first)
	return h2.Finish()
}

// blockingBetweenRounds may use every collective once nothing is in
// flight.
func blockingBetweenRounds(c comm.Communicator, x float64) float64 {
	h := c.AllReduceSumNStart([]float64{x})
	sums := h.Finish()
	c.Barrier()
	return c.AllReduceSum(sums[0])
}

// balancedBranches finishes on both branches.
func balancedBranches(c comm.Communicator, p bool) []float64 {
	h := c.AllReduceSumNStart([]float64{1})
	if p {
		return h.Finish()
	}
	res := h.Finish()
	return res
}

// chain mirrors the solver's chainState: a long-lived tagged round
// stashed in a field, posted inside another round's overlap window and
// drained by the owner before the next same-tag round.
type chain struct {
	c  comm.Communicator
	h1 comm.ReduceHandle
}

// postTagged posts the coarse projection on its own tag and stashes the
// handle — the temporal-blocked deflated pipelined matvec. The stash
// transfers the Finish obligation to the chain, so returning here with
// the round posted is the contract, not a leak.
func (s *chain) postTagged(vals []float64) {
	s.h1 = s.c.AllReduceSumNStartTagged(1, vals)
}

// drain finishes the stashed round; idempotent like pipelinedDrain.
func (s *chain) drain() []float64 {
	if s.h1 == nil {
		return nil
	}
	res := s.h1.Finish()
	s.h1 = nil
	return res
}

// twoTagsInFlight is the deflated pipelined overlap window: the scalar
// round (tag 0) is in flight while the tagged coarse round posts through
// the stashing helper — legal because field-stashed rounds are the
// owner's obligation, and the tags keep the generations apart.
func twoTagsInFlight(s *chain, vals []float64) []float64 {
	h := s.c.AllReduceSumNStart(vals)
	s.postTagged(vals)
	sums := h.Finish()
	s.drain()
	return sums
}

// stashDirect stashes without a helper: the assignment itself ends the
// local obligation.
func stashDirect(s *chain, vals []float64) {
	s.h1 = s.c.AllReduceSumNStartTagged(1, vals)
}
