// Package a holds the split-phase reduction contract violations the
// splitreduce analyzer must flag.
package a

import "tealeaf/internal/comm"

// leakOnError is the pipelined-CG bug class: an early error return
// between Start and Finish leaks the in-flight round.
func leakOnError(c comm.Communicator, fail func() error) ([]float64, error) {
	h := c.AllReduceSumNStart([]float64{1})
	if err := fail(); err != nil {
		return nil, err // want `return with a split-phase reduction in flight`
	}
	return h.Finish(), nil
}

// doubleStart violates the one-in-flight contract.
func doubleStart(c comm.Communicator) {
	h := c.AllReduceSumNStart([]float64{1})
	h2 := c.AllReduceSumNStart([]float64{2}) // want `split-phase reduction started while another is in flight`
	h.Finish()
	h2.Finish()
}

// blockingWhileInFlight runs a barrier between the phases.
func blockingWhileInFlight(c comm.Communicator) []float64 {
	h := c.AllReduceSumNStart([]float64{1})
	c.Barrier() // want `blocking collective Barrier while a split-phase reduction is in flight`
	return h.Finish()
}

// reduceWhileInFlight runs a second, blocking reduction between the
// phases.
func reduceWhileInFlight(c comm.Communicator, x float64) []float64 {
	h := c.AllReduceSumNStart([]float64{x})
	_ = c.AllReduceSum(x) // want `blocking collective AllReduceSum while a split-phase reduction is in flight`
	return h.Finish()
}

// branchImbalance finishes on one branch only.
func branchImbalance(c comm.Communicator, p bool) []float64 {
	h := c.AllReduceSumNStart([]float64{1})
	var res []float64
	if p { // want `split-phase reduction in flight on one branch but not the other`
		res = h.Finish()
	}
	return res // want `return with a split-phase reduction in flight`
}

// loopLeak starts a round every iteration without finishing it.
func loopLeak(c comm.Communicator, n int) {
	for i := 0; i < n; i++ { // want `loop iteration leaves a split-phase reduction in flight`
		c.AllReduceSumNStart([]float64{float64(i)})
	}
}

// breakInFlight leaves the loop with the round still posted.
func breakInFlight(c comm.Communicator, xs [][]float64) {
	for _, v := range xs {
		h := c.AllReduceSumNStart(v)
		if len(v) == 0 {
			break // want `break with a split-phase reduction in flight`
		}
		h.Finish()
	}
}

// reduceAll is a package-local helper that performs a collective.
func reduceAll(c comm.Communicator, x float64) float64 { return c.AllReduceSum(x) }

// wrappedCollective reaches a blocking reduction through a local helper
// while a round is in flight (caught by the intra-package call graph).
func wrappedCollective(c comm.Communicator) []float64 {
	h := c.AllReduceSumNStart([]float64{1})
	reduceAll(c, 2) // want `call to reduceAll performs a collective while a split-phase reduction is in flight`
	return h.Finish()
}

// fallsOffEnd never finishes the round on the fall-through path.
func fallsOffEnd(c comm.Communicator) {
	c.AllReduceSumNStart([]float64{1})
} // want `function ends with a split-phase reduction in flight`

// gatherInFlight gathers the one N-d field type while a round is in
// flight: GatherInterior is a blocking collective.
func gatherInFlight(c comm.Communicator, local, dst []float64) error {
	h := c.AllReduceSumNStart([]float64{1})
	err := c.GatherInterior(local, dst) // want `blocking collective GatherInterior while a split-phase reduction is in flight`
	h.Finish()
	return err
}
