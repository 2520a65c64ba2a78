package comm

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"tealeaf/internal/grid"
)

func cellValue3(i, j, k int) float64 { return float64(i)*1e6 + float64(j)*1e3 + float64(k) }

// mirror3 reflects a global coordinate into the domain (zero-flux mirror).
func mirror3(v, n int) int {
	if v < 0 {
		return -v - 1
	}
	if v >= n {
		return 2*n - v - 1
	}
	return v
}

// runExchange3DTest runs a depth-d exchange on a px×py×pz decomposition
// of an nx×ny×nz grid and checks every halo cell — faces, edges and
// corners — holds exactly the value its owner holds (or the mirror for
// physical sides).
func runExchange3DTest(t *testing.T, nx, ny, nz, px, py, pz, halo, depth int) {
	t.Helper()
	part := grid.MustPartition(nx, ny, nz, px, py, pz)
	gg := grid.UnitGrid(nx, ny, nz, halo)

	err := Run(part, func(c *RankComm) error {
		ext := part.ExtentOf(c.Rank())
		sub, err := gg.SubExtent(grid.Extent{X0: ext.X0, X1: ext.X1, Y0: ext.Y0, Y1: ext.Y1, Z0: ext.Z0, Z1: ext.Z1})
		if err != nil {
			return err
		}
		f := grid.NewField(sub)
		for k := 0; k < sub.NZ; k++ {
			for j := 0; j < sub.NY; j++ {
				for i := 0; i < sub.NX; i++ {
					f.SetCell(i, j, k, cellValue3(ext.X0+i, ext.Y0+j, ext.Z0+k))
				}
			}
		}
		if err := c.Exchange(depth, f); err != nil {
			return err
		}
		for k := -depth; k < sub.NZ+depth; k++ {
			for j := -depth; j < sub.NY+depth; j++ {
				for i := -depth; i < sub.NX+depth; i++ {
					gi, gj, gk := ext.X0+i, ext.Y0+j, ext.Z0+k
					want := cellValue3(mirror3(gi, nx), mirror3(gj, ny), mirror3(gk, nz))
					if got := f.Cell(i, j, k); got != want {
						t.Errorf("rank %d cell (%d,%d,%d) [global (%d,%d,%d)] = %v, want %v",
							c.Rank(), i, j, k, gi, gj, gk, got, want)
						return nil
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

func TestExchange3DDepth1(t *testing.T)     { runExchange3DTest(t, 8, 8, 8, 2, 2, 2, 2, 1) }
func TestExchange3DDeep(t *testing.T)       { runExchange3DTest(t, 12, 12, 12, 2, 2, 2, 3, 3) }
func TestExchange3DPencilX(t *testing.T)    { runExchange3DTest(t, 16, 4, 4, 4, 1, 1, 2, 2) }
func TestExchange3DPencilZ(t *testing.T)    { runExchange3DTest(t, 4, 4, 16, 1, 1, 4, 2, 2) }
func TestExchange3DAsymmetric(t *testing.T) { runExchange3DTest(t, 10, 6, 8, 2, 1, 2, 2, 2) }
func TestExchange3DSingleRank(t *testing.T) { runExchange3DTest(t, 6, 6, 6, 1, 1, 1, 2, 2) }

func TestExchange3DMultipleFields(t *testing.T) {
	part := grid.MustPartition(8, 8, 8, 2, 1, 2)
	err := Run(part, func(c *RankComm) error {
		ext := part.ExtentOf(c.Rank())
		sub := grid.UnitGrid(ext.NX(), ext.NY(), ext.NZ(), 2)
		a := grid.NewField(sub)
		b := grid.NewField(sub)
		for k := 0; k < sub.NZ; k++ {
			for j := 0; j < sub.NY; j++ {
				for i := 0; i < sub.NX; i++ {
					a.SetCell(i, j, k, float64(c.Rank()+1))
					b.SetCell(i, j, k, float64(c.Rank()+1)*100)
				}
			}
		}
		if err := c.Exchange(1, a, b); err != nil {
			return err
		}
		for _, pt := range [][3]int{{-1, 0, 0}, {sub.NX, 0, 0}, {0, 0, -1}, {0, 0, sub.NZ}} {
			av, bv := a.Cell(pt[0], pt[1], pt[2]), b.Cell(pt[0], pt[1], pt[2])
			if bv != av*100 {
				t.Errorf("rank %d halo %v: fields unpaired a=%v b=%v", c.Rank(), pt, av, bv)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSerialExchange3D(t *testing.T) {
	g := grid.UnitGrid(4, 4, 4, 2)
	f := grid.NewField(g)
	for k := 0; k < 4; k++ {
		for j := 0; j < 4; j++ {
			for i := 0; i < 4; i++ {
				f.SetCell(i, j, k, cellValue3(i, j, k))
			}
		}
	}
	c := NewSerial()
	if err := c.Exchange(2, f); err != nil {
		t.Fatal(err)
	}
	if f.Cell(-1, 2, 2) != f.Cell(0, 2, 2) || f.Cell(2, 2, 4) != f.Cell(2, 2, 3) {
		t.Error("serial 3D exchange must reflect")
	}
	if err := c.Exchange(3, f); err == nil {
		t.Error("over-deep 3D exchange must error")
	}
	p := c.Physical()
	if !p.Left || !p.Right || !p.Down || !p.Up || !p.Back || !p.Front {
		t.Error("serial 3D physical sides must all be set")
	}
}

// Mixed-shape multi-field exchanges must fail identically single- and
// multi-rank (the Serial path used to validate fields[0] only).
func TestExchangeShapeMismatchSerialMatchesRank(t *testing.T) {
	a := grid.NewField(grid.UnitGrid(4, 4, 1, 2))
	b := grid.NewField(grid.UnitGrid(5, 4, 1, 2))
	if err := NewSerial().Exchange(1, a, b); err == nil {
		t.Error("serial mixed-shape 2D exchange must error")
	}
	a3 := grid.NewField(grid.UnitGrid(4, 4, 4, 2))
	b3 := grid.NewField(grid.UnitGrid(4, 5, 4, 2))
	if err := NewSerial().Exchange(1, a3, b3); err == nil {
		t.Error("serial mixed-shape 3D exchange must error")
	}
	part := grid.MustPartition(4, 4, 4, 1, 1, 1)
	err := Run(part, func(c *RankComm) error {
		if err := c.Exchange(1, a3, b3); err == nil {
			t.Error("rank mixed-shape 3D exchange must error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDimensionalityMismatches(t *testing.T) {
	part := grid.MustPartition(4, 4, 1, 2, 1, 1)
	f3 := grid.NewField(grid.UnitGrid(4, 4, 4, 1))
	err := Run(part, func(c *RankComm) error {
		if err := c.Exchange(1, f3); err == nil {
			t.Error("3D exchange on 2D hub must error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	part3 := grid.MustPartition(4, 4, 4, 2, 1, 1)
	f2 := grid.NewField(grid.UnitGrid(2, 4, 1, 1))
	err = Run(part3, func(c *RankComm) error {
		if err := c.Exchange(1, f2); err == nil {
			t.Error("2D exchange on 3D hub must error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherInterior3D(t *testing.T) {
	nx, ny, nz := 6, 5, 4
	part := grid.MustPartition(nx, ny, nz, 2, 1, 2)
	gg := grid.UnitGrid(nx, ny, nz, 1)
	err := Run(part, func(c *RankComm) error {
		ext := part.ExtentOf(c.Rank())
		sub := grid.UnitGrid(ext.NX(), ext.NY(), ext.NZ(), 1)
		f := grid.NewField(sub)
		for k := 0; k < sub.NZ; k++ {
			for j := 0; j < sub.NY; j++ {
				for i := 0; i < sub.NX; i++ {
					f.SetCell(i, j, k, cellValue3(ext.X0+i, ext.Y0+j, ext.Z0+k))
				}
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
			for k := 0; k < nz; k++ {
				for j := 0; j < ny; j++ {
					for i := 0; i < nx; i++ {
						if dst.Cell(i, j, k) != cellValue3(i, j, k) {
							t.Errorf("gathered (%d,%d,%d) = %v", i, j, k, dst.Cell(i, j, k))
							return nil
						}
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

// Regression for the shared-slice aliasing bug: AllReduceSumN used to
// hand every rank the same backing slice, so one rank mutating its result
// (which the interface explicitly permits) corrupted the others'. Run
// with -race: the mutation is also a data race under the old code.
func TestAllReduceSumNResultsDoNotAlias(t *testing.T) {
	part := grid.MustPartition(8, 8, 1, 2, 2, 1)
	err := Run(part, func(c *RankComm) error {
		for iter := 0; iter < 50; iter++ {
			vals := []float64{1, 2, 3}
			res := c.AllReduceSumN(vals)
			if res[0] != 4 || res[1] != 8 || res[2] != 12 {
				t.Errorf("rank %d iter %d: res = %v", c.Rank(), iter, res)
				return nil
			}
			// Mutating the returned slice must not affect any other rank.
			for i := range res {
				res[i] = float64(-c.Rank() - 1)
			}
			c.Barrier()
			if res[0] != float64(-c.Rank()-1) {
				t.Errorf("rank %d: result corrupted by another rank: %v", c.Rank(), res)
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveLengthMismatchPanics(t *testing.T) {
	coll := newCollective(2)
	panics := make(chan string, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics <- p.(string)
					// Release the peer stuck waiting for this generation.
					coll.reduce(opSum, 0, 0)
				}
			}()
			if rank == 0 {
				coll.reduce(opSum, 1, 2)
			} else {
				// Let rank 0 start the generation first.
				for coll.cntSnapshot() == 0 {
					runtime.Gosched()
				}
				coll.reduce(opSum, 1)
			}
		}(r)
	}
	wg.Wait()
	close(panics)
	msg, ok := <-panics
	if !ok {
		t.Fatal("mismatched value counts must panic")
	}
	if !strings.Contains(msg, "value-count mismatch") {
		t.Errorf("panic message %q not descriptive", msg)
	}
}

// cntSnapshot reads the in-flight arrival count (test helper).
func (c *collective) cntSnapshot() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cnt
}

// An exchange deeper than the thinnest sub-domain would pack stale halo
// cells as face data; every rank must reject it identically (a per-rank
// verdict would deadlock the peers on their mailboxes).
func TestExchangeDepthExceedsSubdomain(t *testing.T) {
	part := grid.MustPartition(16, 16, 1, 8, 1, 1) // 2-wide columns
	err := Run(part, func(c *RankComm) error {
		ext := part.ExtentOf(c.Rank())
		sub := grid.MustGrid(ext.NX(), ext.NY(), 1, 4, 0, 1, 0, 1, 0, 1)
		f := grid.NewField(sub)
		if err := c.Exchange(3, f); err == nil {
			t.Error("depth 3 on 2-wide sub-domains must error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	part3 := grid.MustPartition(16, 16, 16, 1, 1, 8) // 2-thick slabs
	err = Run(part3, func(c *RankComm) error {
		ext := part3.ExtentOf(c.Rank())
		sub := grid.UnitGrid(ext.NX(), ext.NY(), ext.NZ(), 4)
		f := grid.NewField(sub)
		if err := c.Exchange(3, f); err == nil {
			t.Error("depth 3 on 2-thick 3D slabs must error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Serial: a mirror deeper than the domain reads outside the interior.
	f2 := grid.NewField(grid.MustGrid(2, 8, 1, 4, 0, 1, 0, 1, 0, 1))
	if err := NewSerial().Exchange(3, f2); err == nil {
		t.Error("serial depth 3 on a 2-wide domain must error")
	}
	f3 := grid.NewField(grid.UnitGrid(8, 8, 2, 4))
	if err := NewSerial().Exchange(3, f3); err == nil {
		t.Error("serial 3D depth 3 on a 2-thick domain must error")
	}
}
