package comm

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"tealeaf/internal/grid"
)

// Split-phase reduction tests: AllReduceSumNStart/Finish must produce the
// same sums as the blocking AllReduceSumN on every backend, stay correct
// across many back-to-back generations, and tolerate halo exchanges (the
// one communication the contract allows) between Start and Finish.

func TestSerialSplitPhase(t *testing.T) {
	c := NewSerial()
	h := c.AllReduceSumNStart([]float64{1.5, -2, 0})
	got := h.Finish()
	want := []float64{1.5, -2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finish[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Serial accounts the round at Start, so a Start/Finish pair and a
	// blocking call trace identically.
	if tr := c.Trace(); tr.Reductions != 1 || tr.ReducedValues != 3 {
		t.Errorf("trace = %d rounds / %d values, want 1 / 3", tr.Reductions, tr.ReducedValues)
	}
}

func TestHubSplitPhaseMatchesBlocking(t *testing.T) {
	part := grid.MustPartition(16, 16, 1, 2, 2, 1)
	n := float64(part.Ranks())
	err := Run(part, func(c *RankComm) error {
		for iter := 0; iter < 200; iter++ {
			vals := []float64{float64(iter), float64(c.Rank()), 1}
			h := c.AllReduceSumNStart(vals)
			got := h.Finish()
			want := []float64{n * float64(iter), 0 + 1 + 2 + 3, n}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("iter %d rank %d: finish[%d] = %v, want %v",
						iter, c.Rank(), i, got[i], want[i])
					return nil
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// exchangeBetween runs the start → exchange → finish pattern the
// pipelined solver uses, on any backend, and checks both the sums and
// that the exchanged halos landed.
func exchangeBetween(t *testing.T, c Communicator, part *grid.Partition, iters int) error {
	t.Helper()
	ext := part.ExtentOf(c.Rank())
	gg := grid.UnitGrid(16, 16, 1, 2)
	sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1)
	if err != nil {
		return err
	}
	f := grid.NewField(sub)
	n := float64(part.Ranks())
	for iter := 0; iter < iters; iter++ {
		for k := 0; k < sub.NY; k++ {
			for j := 0; j < sub.NX; j++ {
				f.Set(j, k, float64(iter)+100*float64(ext.X0+j)+float64(ext.Y0+k))
			}
		}
		h := c.AllReduceSumNStart([]float64{float64(iter), 1})
		if err := c.Exchange(1, f); err != nil {
			return err
		}
		got := h.Finish()
		if got[0] != n*float64(iter) || got[1] != n {
			t.Errorf("iter %d rank %d: finish = %v, want [%v %v]",
				iter, c.Rank(), got, n*float64(iter), n)
			return nil
		}
		// Spot-check one interior-adjacent halo cell per non-physical side.
		phys := c.Physical()
		if !phys.Left {
			gx, gy := ext.X0-1, ext.Y0
			if v := f.At(-1, 0); v != float64(iter)+100*float64(gx)+float64(gy) {
				t.Errorf("iter %d rank %d: left halo = %v", iter, c.Rank(), v)
				return nil
			}
		}
		if !phys.Up {
			gx, gy := ext.X0, ext.Y1
			if v := f.At(0, sub.NY); v != float64(iter)+100*float64(gx)+float64(gy) {
				t.Errorf("iter %d rank %d: up halo = %v", iter, c.Rank(), v)
				return nil
			}
		}
	}
	return nil
}

func TestHubSplitPhaseOverlapsExchange(t *testing.T) {
	part := grid.MustPartition(16, 16, 1, 2, 2, 1)
	err := Run(part, func(c *RankComm) error {
		return exchangeBetween(t, c, part, 50)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPSplitPhaseOverlapsExchange(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP test in -short mode")
	}
	part := grid.MustPartition(16, 16, 1, 2, 2, 1)
	err := RunTCP(part, func(c Communicator) error {
		return exchangeBetween(t, c, part, 50)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPSplitPhaseMatchesBlocking(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP test in -short mode")
	}
	part := grid.MustPartition(8, 8, 1, 4, 1, 1)
	n := float64(part.Ranks())
	err := RunTCP(part, func(c Communicator) error {
		for iter := 0; iter < 50; iter++ {
			h := c.AllReduceSumNStart([]float64{float64(iter), float64(c.Rank())})
			got := h.Finish()
			if got[0] != n*float64(iter) || got[1] != 0+1+2+3 {
				t.Errorf("iter %d rank %d: finish = %v", iter, c.Rank(), got)
				return nil
			}
			// Interleave with a blocking round to prove generations stay
			// ordered when the two forms alternate.
			if s := c.AllReduceSum(1); s != n {
				t.Errorf("iter %d rank %d: blocking sum = %v, want %v", iter, c.Rank(), s, n)
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// multiTagRounds runs the temporal chain's two-tags-in-flight pattern on
// any backend: the untagged scalar round posts first, the tagged coarse
// round posts inside its overlap window, a halo exchange lands between
// the two Finishes, and the handles complete in both orders on alternate
// iterations. Sums must match the blocking reduction on every round.
func multiTagRounds(t *testing.T, c Communicator, part *grid.Partition, iters int) error {
	t.Helper()
	ext := part.ExtentOf(c.Rank())
	gg := grid.UnitGrid(16, 16, 1, 2)
	sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1)
	if err != nil {
		return err
	}
	f := grid.NewField(sub)
	n := float64(part.Ranks())
	for iter := 0; iter < iters; iter++ {
		h0 := c.AllReduceSumNStart([]float64{float64(iter), float64(c.Rank()), 1})
		h1 := c.AllReduceSumNStartTagged(1, []float64{100 + float64(iter), 2})
		if err := c.Exchange(1, f); err != nil {
			return err
		}
		var s0, s1 []float64
		if iter%2 == 0 {
			s0, s1 = h0.Finish(), h1.Finish()
		} else {
			s1, s0 = h1.Finish(), h0.Finish()
		}
		if s0[0] != n*float64(iter) || s0[1] != 0+1+2+3 || s0[2] != n {
			t.Errorf("iter %d rank %d: untagged finish = %v", iter, c.Rank(), s0)
			return nil
		}
		if s1[0] != n*(100+float64(iter)) || s1[1] != 2*n {
			t.Errorf("iter %d rank %d: tagged finish = %v", iter, c.Rank(), s1)
			return nil
		}
	}
	return nil
}

func TestSerialMultiTagInFlight(t *testing.T) {
	c := NewSerial()
	h0 := c.AllReduceSumNStart([]float64{1, 2})
	h1 := c.AllReduceSumNStartTagged(1, []float64{3})
	h2 := c.AllReduceSumNStartTagged(2, []float64{4})
	// Finish out of posting order: handles are independent per tag.
	if got := h2.Finish(); got[0] != 4 {
		t.Errorf("tag-2 finish = %v, want [4]", got)
	}
	if got := h0.Finish(); got[0] != 1 || got[1] != 2 {
		t.Errorf("untagged finish = %v, want [1 2]", got)
	}
	if got := h1.Finish(); got[0] != 3 {
		t.Errorf("tag-1 finish = %v, want [3]", got)
	}
	if tr := c.Trace(); tr.Reductions != 3 || tr.ReducedValues != 4 {
		t.Errorf("trace = %d rounds / %d values, want 3 / 4", tr.Reductions, tr.ReducedValues)
	}
}

func TestHubMultiTagInFlight(t *testing.T) {
	part := grid.MustPartition(16, 16, 1, 2, 2, 1)
	err := Run(part, func(c *RankComm) error {
		return multiTagRounds(t, c, part, 100)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPMultiTagInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP test in -short mode")
	}
	part := grid.MustPartition(16, 16, 1, 2, 2, 1)
	err := RunTCP(part, func(c Communicator) error {
		return multiTagRounds(t, c, part, 25)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHubReduceFoldRankOrder pins the Hub's fold order: contributions
// combine in ascending rank order, never arrival order. The values are
// rounding-sensitive (1e16 absorbs small addends one at a time, so
// different fold orders give visibly different last bits), and the test
// re-runs many generations so goroutine scheduling gets every chance to
// permute arrivals — each one must still produce the rank-order bits.
func TestHubReduceFoldRankOrder(t *testing.T) {
	part := grid.MustPartition(16, 16, 1, 2, 2, 1)
	contrib := []float64{1e16, 1, 1, 1}
	var want float64
	for _, v := range contrib { // the rank-order fold, computed serially
		want += v
	}
	err := Run(part, func(c *RankComm) error {
		for iter := 0; iter < 500; iter++ {
			if got := c.AllReduceSum(contrib[c.Rank()]); got != want {
				t.Errorf("iter %d rank %d: sum = %v, want rank-order fold %v", iter, c.Rank(), got, want)
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTCPTaggedFailureThroughProtect pins the tagged split-phase error
// path: a peer that dies while a tagged round is in flight surfaces as a
// *TCPError panic from Finish, which Protect converts into an ordinary
// error — the same unrecoverable-transport contract as the blocking
// reductions, so the temporal chain's posted coarse round cannot hang or
// silently corrupt a solve when a rank is lost.
func TestTCPTaggedFailureThroughProtect(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP test in -short mode")
	}
	part := grid.MustPartition(8, 8, 1, 2, 1, 1)
	lns := make([]net.Listener, 2)
	peers := make([]string, 2)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[r] = ln
		peers[r] = ln.Addr().String()
	}
	newRank := func(r int) *TCP {
		c, err := NewTCP(TCPConfig{
			Rank: r, Peers: peers, Part: part, Listener: lns[r], DialTimeout: 5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c0, c1 := newRank(0), newRank(1)
	defer c0.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	errCh := make(chan error, 1)
	go func() {
		defer wg.Done()
		// First round completes: both ranks are up and the butterfly syncs.
		if err := c0.Protect(func() error {
			if got := c0.AllReduceSumNStartTagged(1, []float64{1}).Finish(); got[0] != 2 {
				return fmt.Errorf("tagged finish = %v, want [2]", got)
			}
			return nil
		}); err != nil {
			errCh <- fmt.Errorf("first tagged round: %w", err)
			return
		}
		// Second round: the peer is gone mid-flight. Finish must panic
		// *TCPError and Protect must hand it back as an ordinary error.
		errCh <- c0.Protect(func() error {
			h := c0.AllReduceSumNStartTagged(1, []float64{1})
			h.Finish()
			return nil
		})
	}()
	if err := c1.Protect(func() error {
		if got := c1.AllReduceSumNStartTagged(1, []float64{1}).Finish(); got[0] != 2 {
			return fmt.Errorf("tagged finish = %v, want [2]", got)
		}
		return nil
	}); err != nil {
		t.Fatalf("rank 1 first tagged round: %v", err)
	}
	c1.Close() // drop with rank 0's second tagged round about to post
	wg.Wait()
	err := <-errCh
	if err == nil {
		t.Fatal("tagged round against a dropped peer succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, "rank 1") || !(strings.Contains(msg, "shut down") || strings.Contains(msg, "lost")) {
		t.Errorf("want a descriptive connection-drop error through Protect, got: %v", err)
	}
}
