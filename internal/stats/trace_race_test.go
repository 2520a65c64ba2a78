package stats

import (
	"sync"
	"testing"
)

// TestTraceOwnershipHandoff pins the documented threading contract under
// the race detector: a Trace is owned by a single rank (goroutine) and
// must never be written concurrently — cross-goroutine movement is by
// handoff over a channel or by merging per-rank traces after join.
// Nothing else is safe.
// With -race this fails if either blessed pattern ever stops
// establishing happens-before (say, Merge grows an unsynchronized
// shortcut), and it documents the contract executable-y: there is no
// mutex in Trace to hide behind.
func TestTraceOwnershipHandoff(t *testing.T) {
	const ranks = 8

	// Pattern 1: per-rank ownership, merge after join. Each goroutine
	// writes only its own Trace; the channel send publishes it to the
	// merging goroutine.
	perRank := make(chan *Trace, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr := &Trace{}
			for i := 0; i < 200; i++ {
				tr.AddReduction(3)
				tr.AddExchange(1+r%2, 4, 512)
				tr.AddDot(1024)
				tr.AddMatvec(1024)
			}
			perRank <- tr
		}(r)
	}
	wg.Wait()
	close(perRank)
	total := &Trace{}
	for tr := range perRank {
		total.Merge(tr)
	}
	if total.Reductions != ranks*200 {
		t.Fatalf("merged %d reductions, want %d", total.Reductions, ranks*200)
	}
	if got := total.ExchangesByDepth[1] + total.ExchangesByDepth[2]; got != ranks*200 {
		t.Fatalf("merged %d exchanges by depth, want %d", got, ranks*200)
	}

	// Pattern 2: handoff — the owner lends the Trace to a helper
	// goroutine and does not touch it until the channel receive orders
	// the helper's writes before its own.
	tr := &Trace{}
	done := make(chan struct{})
	go func() {
		tr.AddExchange(1, 4, 4096) // helper's writes…
		close(done)
	}()
	<-done          // …ordered before…
	tr.AddDot(1024) // …the owner's resumed use.
	tr.AddReduction(1)
	if tr.HaloExchanges != 1 || tr.Dots != 1 {
		t.Fatalf("handoff trace lost counts: %+v", tr)
	}
}
