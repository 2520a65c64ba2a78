package comm

import (
	"math"
	"sync"
	"testing"

	"tealeaf/internal/grid"
)

func TestSerialExchangeReflects(t *testing.T) {
	g := grid.UnitGrid(4, 4, 1, 2)
	f := grid.NewField(g)
	for k := 0; k < 4; k++ {
		for j := 0; j < 4; j++ {
			f.Set(j, k, float64(j+10*k))
		}
	}
	c := NewSerial()
	if err := c.Exchange(2, f); err != nil {
		t.Fatal(err)
	}
	if f.At(-1, 1) != f.At(0, 1) || f.At(4, 2) != f.At(3, 2) {
		t.Error("serial exchange must reflect")
	}
	if c.Trace().HaloExchanges != 1 {
		t.Error("exchange not traced")
	}
	if err := c.Exchange(5, f); err == nil {
		t.Error("over-deep exchange must error")
	}
	if err := c.Exchange(1); err != nil {
		t.Error("no fields is a no-op, not an error")
	}
}

func TestSerialReductions(t *testing.T) {
	c := NewSerial()
	if c.AllReduceSum(3.5) != 3.5 {
		t.Error("serial sum is identity")
	}
	a, b := c.AllReduceSum2(1, 2)
	if a != 1 || b != 2 {
		t.Error("serial sum2 is identity")
	}
	if c.AllReduceMax(-7) != -7 {
		t.Error("serial max is identity")
	}
	c.Barrier()
	if c.Rank() != 0 || c.Size() != 1 {
		t.Error("serial rank/size wrong")
	}
	p := c.Physical()
	if !p.Left || !p.Right || !p.Down || !p.Up {
		t.Error("serial physical sides must all be set")
	}
	if c.Trace().Reductions != 3 {
		t.Errorf("reductions traced = %d, want 3", c.Trace().Reductions)
	}
}

// globalRef builds a global field with a deterministic per-cell value.
func cellValue(j, k int) float64 { return float64(j)*1000 + float64(k) }

// runExchangeTest runs a depth-d exchange on a px×py decomposition of an
// nx×ny grid and checks every halo cell holds exactly the value its owner
// holds (or the mirror for physical sides).
func runExchangeTest(t *testing.T, nx, ny, px, py, halo, depth int) {
	t.Helper()
	part := grid.MustPartition(nx, ny, 1, px, py, 1)
	gg := grid.MustGrid(nx, ny, 1, halo, 0, 1, 0, 1, 0, 1)

	err := Run(part, func(c *RankComm) error {
		ext := part.ExtentOf(c.Rank())
		sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1)
		if err != nil {
			return err
		}
		f := grid.NewField(sub)
		for k := 0; k < sub.NY; k++ {
			for j := 0; j < sub.NX; j++ {
				f.Set(j, k, cellValue(ext.X0+j, ext.Y0+k))
			}
		}
		if err := c.Exchange(depth, f); err != nil {
			return err
		}
		// Verify every cell within depth of the interior, including
		// corner halo regions.
		for k := -depth; k < sub.NY+depth; k++ {
			for j := -depth; j < sub.NX+depth; j++ {
				gj, gk := ext.X0+j, ext.Y0+k
				// Mirror global coordinates for physical boundaries.
				mj, mk := gj, gk
				if mj < 0 {
					mj = -mj - 1
				}
				if mj >= nx {
					mj = 2*nx - mj - 1
				}
				if mk < 0 {
					mk = -mk - 1
				}
				if mk >= ny {
					mk = 2*ny - mk - 1
				}
				want := cellValue(mj, mk)
				if got := f.At(j, k); got != want {
					t.Errorf("rank %d cell (%d,%d) [global (%d,%d)] = %v, want %v",
						c.Rank(), j, k, gj, gk, got, want)
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

func TestExchangeDepth1(t *testing.T)        { runExchangeTest(t, 12, 12, 3, 2, 2, 1) }
func TestExchangeDeep(t *testing.T)          { runExchangeTest(t, 16, 16, 2, 2, 4, 4) }
func TestExchangeDeeperThanSub(t *testing.T) { runExchangeTest(t, 12, 8, 4, 2, 3, 3) }
func TestExchangeSingleRank(t *testing.T)    { runExchangeTest(t, 8, 8, 1, 1, 2, 2) }
func TestExchangeRow(t *testing.T)           { runExchangeTest(t, 24, 6, 6, 1, 2, 2) }
func TestExchangeColumn(t *testing.T)        { runExchangeTest(t, 6, 24, 1, 6, 2, 2) }
func TestExchangeDepth16(t *testing.T)       { runExchangeTest(t, 96, 96, 2, 2, 16, 16) }

func TestExchangeMultipleFields(t *testing.T) {
	part := grid.MustPartition(8, 8, 1, 2, 2, 1)
	err := Run(part, func(c *RankComm) error {
		ext := part.ExtentOf(c.Rank())
		sub := grid.MustGrid(ext.NX(), ext.NY(), 1, 2, 0, 1, 0, 1, 0, 1)
		a := grid.NewField(sub)
		b := grid.NewField(sub)
		a.FillBounds(sub.Interior(), float64(c.Rank()+1))
		b.FillBounds(sub.Interior(), float64(c.Rank()+1)*100)
		if err := c.Exchange(1, a, b); err != nil {
			return err
		}
		// Both fields' halos must carry the neighbour's value, with the
		// pairing intact (b = 100·a everywhere).
		for _, pt := range [][2]int{{-1, 0}, {ext.NX(), 0}, {0, -1}, {0, ext.NY()}} {
			av, bv := a.At(pt[0], pt[1]), b.At(pt[0], pt[1])
			if bv != av*100 {
				t.Errorf("rank %d halo (%d,%d): fields unpaired a=%v b=%v", c.Rank(), pt[0], pt[1], av, bv)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeShapeMismatch(t *testing.T) {
	part := grid.MustPartition(4, 4, 1, 1, 1, 1)
	err := Run(part, func(c *RankComm) error {
		a := grid.NewField(grid.UnitGrid(4, 4, 1, 2))
		b := grid.NewField(grid.UnitGrid(5, 4, 1, 2))
		if err := c.Exchange(1, a, b); err == nil {
			t.Error("mismatched field shapes must error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceSum(t *testing.T) {
	part := grid.MustPartition(8, 8, 1, 2, 2, 1)
	err := Run(part, func(c *RankComm) error {
		got := c.AllReduceSum(float64(c.Rank() + 1))
		if got != 10 { // 1+2+3+4
			t.Errorf("rank %d: sum = %v, want 10", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceRepeated(t *testing.T) {
	// Many back-to-back reductions must not interleave generations.
	part := grid.MustPartition(16, 16, 1, 4, 2, 1)
	n := part.Ranks()
	err := Run(part, func(c *RankComm) error {
		for iter := 0; iter < 200; iter++ {
			want := float64(n * iter)
			if got := c.AllReduceSum(float64(iter)); got != want {
				t.Errorf("iter %d rank %d: %v != %v", iter, c.Rank(), got, want)
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceSum2AndMax(t *testing.T) {
	part := grid.MustPartition(8, 8, 1, 3, 1, 1)
	err := Run(part, func(c *RankComm) error {
		a, b := c.AllReduceSum2(1, float64(c.Rank()))
		if a != 3 || b != 3 { // 3 ranks; 0+1+2
			t.Errorf("sum2 = (%v,%v), want (3,3)", a, b)
		}
		if m := c.AllReduceMax(float64(c.Rank()) - 1); m != 1 {
			t.Errorf("max = %v, want 1", m)
		}
		if m := c.AllReduceMax(-math.Pi); m != -math.Pi {
			t.Errorf("max of equal values = %v", m)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronises(t *testing.T) {
	part := grid.MustPartition(8, 8, 1, 2, 2, 1)
	var mu sync.Mutex
	phase := make(map[int]int)
	err := Run(part, func(c *RankComm) error {
		for i := 0; i < 10; i++ {
			mu.Lock()
			phase[c.Rank()] = i
			// No rank may be more than one barrier-phase away.
			for r, p := range phase {
				if p < i-1 || p > i+1 {
					t.Errorf("rank %d at phase %d while rank %d at %d", r, p, c.Rank(), i)
				}
			}
			mu.Unlock()
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPhysicalSides(t *testing.T) {
	part := grid.MustPartition(9, 9, 1, 3, 3, 1)
	err := Run(part, func(c *RankComm) error {
		p := c.Physical()
		cx, cy, _ := part.CoordsOf(c.Rank())
		if p.Left != (cx == 0) || p.Right != (cx == 2) || p.Down != (cy == 0) || p.Up != (cy == 2) {
			t.Errorf("rank %d (%d,%d): wrong physical sides %+v", c.Rank(), cx, cy, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherInterior(t *testing.T) {
	nx, ny := 10, 6
	part := grid.MustPartition(nx, ny, 1, 2, 3, 1)
	gg := grid.MustGrid(nx, ny, 1, 1, 0, 1, 0, 1, 0, 1)
	err := Run(part, func(c *RankComm) error {
		ext := part.ExtentOf(c.Rank())
		sub := grid.MustGrid(ext.NX(), ext.NY(), 1, 1, 0, 1, 0, 1, 0, 1)
		f := grid.NewField(sub)
		for k := 0; k < sub.NY; k++ {
			for j := 0; j < sub.NX; j++ {
				f.Set(j, k, cellValue(ext.X0+j, ext.Y0+k))
			}
		}
		var dst *grid.Field
		if c.Rank() == 0 {
			dst = grid.NewField(gg)
		}
		if err := c.GatherInterior(f, dst); err != nil {
			return err
		}
		if c.Rank() == 0 {
			for k := 0; k < ny; k++ {
				for j := 0; j < nx; j++ {
					if dst.At(j, k) != cellValue(j, k) {
						t.Errorf("gathered (%d,%d) = %v, want %v", j, k, dst.At(j, k), cellValue(j, k))
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherRepeatedDoesNotInterleave(t *testing.T) {
	part := grid.MustPartition(8, 8, 1, 2, 2, 1)
	gg := grid.MustGrid(8, 8, 1, 1, 0, 1, 0, 1, 0, 1)
	err := Run(part, func(c *RankComm) error {
		ext := part.ExtentOf(c.Rank())
		sub := grid.MustGrid(ext.NX(), ext.NY(), 1, 1, 0, 1, 0, 1, 0, 1)
		f := grid.NewField(sub)
		for round := 0; round < 5; round++ {
			f.FillBounds(sub.Interior(), float64(round))
			var dst *grid.Field
			if c.Rank() == 0 {
				dst = grid.NewField(gg)
			}
			if err := c.GatherInterior(f, dst); err != nil {
				return err
			}
			if c.Rank() == 0 {
				lo, hi := dst.MinMaxInterior()
				if lo != float64(round) || hi != float64(round) {
					t.Errorf("round %d: gathered [%v,%v]", round, lo, hi)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeTraceCounts(t *testing.T) {
	part := grid.MustPartition(8, 8, 1, 2, 1, 1)
	err := Run(part, func(c *RankComm) error {
		sub := grid.MustGrid(4, 8, 1, 2, 0, 1, 0, 1, 0, 1)
		f := grid.NewField(sub)
		if err := c.Exchange(2, f); err != nil {
			return err
		}
		tr := c.Trace()
		if tr.HaloExchanges != 1 {
			t.Errorf("exchanges = %d", tr.HaloExchanges)
		}
		// 2-rank row: each rank has exactly one neighbour => 1 message.
		if tr.HaloMessages != 1 {
			t.Errorf("messages = %d, want 1", tr.HaloMessages)
		}
		// Payload: depth(2) × NY(8) cells × 8 bytes.
		if tr.HaloBytes != 2*8*8 {
			t.Errorf("bytes = %d, want 128", tr.HaloBytes)
		}
		if tr.ExchangesByDepth[2] != 1 {
			t.Errorf("byDepth = %v", tr.ExchangesByDepth)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesError(t *testing.T) {
	part := grid.MustPartition(4, 4, 1, 2, 1, 1)
	err := Run(part, func(c *RankComm) error {
		if c.Rank() == 1 {
			return errTest
		}
		return nil
	})
	if err != errTest {
		t.Errorf("Run error = %v, want errTest", err)
	}
}

var errTest = errSentinel("boom")

type errSentinel string

func (e errSentinel) Error() string { return string(e) }
