package grid

import (
	"testing"
	"testing/quick"
)

func TestPartitionValidation(t *testing.T) {
	if _, err := NewPartition(0, 4, 1, 1); err == nil {
		t.Error("zero nx must error")
	}
	if _, err := NewPartition(4, 4, 5, 1); err == nil {
		t.Error("more rank-columns than cells must error")
	}
	if _, err := NewPartition(4, 4, 0, 2); err == nil {
		t.Error("zero px must error")
	}
	if _, err := NewPartition(16, 16, 4, 4); err != nil {
		t.Errorf("valid partition errored: %v", err)
	}
}

func TestPartitionCoversExactly(t *testing.T) {
	for _, c := range []struct{ nx, ny, px, py int }{
		{16, 16, 4, 4}, {17, 13, 3, 5}, {100, 1, 7, 1}, {5, 5, 5, 5}, {4000, 4000, 64, 32},
	} {
		p := MustPartition(c.nx, c.ny, 1, c.px, c.py, 1)
		total := 0
		for r := 0; r < p.Ranks(); r++ {
			e := p.ExtentOf(r)
			if e.NX() <= 0 || e.NY() <= 0 {
				t.Fatalf("%v rank %d has empty extent %v", p, r, e)
			}
			total += e.Cells()
		}
		if total != c.nx*c.ny {
			t.Errorf("%v covers %d cells, want %d", p, total, c.nx*c.ny)
		}
	}
}

func TestPartitionBalanced(t *testing.T) {
	p := MustPartition(17, 13, 1, 3, 5, 1)
	minC, maxC := 1<<30, 0
	for r := 0; r < p.Ranks(); r++ {
		e := p.ExtentOf(r)
		// Per-dimension extents must differ by at most one cell.
		if w := e.NX(); w < 17/3 || w > 17/3+1 {
			t.Errorf("rank %d width %d unbalanced", r, w)
		}
		if h := e.NY(); h < 13/5 || h > 13/5+1 {
			t.Errorf("rank %d height %d unbalanced", r, h)
		}
		c := e.Cells()
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	if maxC-minC > maxC/2 {
		t.Errorf("cell imbalance too large: %d..%d", minC, maxC)
	}
}

func TestPartitionNeighbors(t *testing.T) {
	p := MustPartition(12, 12, 1, 3, 2, 1)
	// Layout: ranks 0 1 2 / 3 4 5 (row-major, rank = cy*PX + cx).
	if n := p.Neighbor(0, Left); n != -1 {
		t.Errorf("rank 0 left = %d, want -1 (boundary)", n)
	}
	if n := p.Neighbor(0, Right); n != 1 {
		t.Errorf("rank 0 right = %d, want 1", n)
	}
	if n := p.Neighbor(0, Up); n != 3 {
		t.Errorf("rank 0 up = %d, want 3", n)
	}
	if n := p.Neighbor(4, Down); n != 1 {
		t.Errorf("rank 4 down = %d, want 1", n)
	}
	if n := p.Neighbor(5, Right); n != -1 {
		t.Errorf("rank 5 right = %d, want -1", n)
	}
	if !p.OnBoundary(2, Right) || p.OnBoundary(1, Right) {
		t.Error("OnBoundary wrong")
	}
}

func TestPartitionNeighborSymmetry(t *testing.T) {
	p := MustPartition(24, 18, 1, 4, 3, 1)
	for r := 0; r < p.Ranks(); r++ {
		for s := Left; s < NumSides; s++ {
			n := p.Neighbor(r, s)
			if n == -1 {
				continue
			}
			if back := p.Neighbor(n, s.Opposite()); back != r {
				t.Errorf("neighbor symmetry broken: %d --%v--> %d --%v--> %d", r, s, n, s.Opposite(), back)
			}
		}
	}
}

func TestPartitionOwnerOf(t *testing.T) {
	p := MustPartition(17, 13, 1, 3, 5, 1)
	for k := 0; k < 13; k++ {
		for j := 0; j < 17; j++ {
			r := p.OwnerOf(j, k, 0)
			if r < 0 || r >= p.Ranks() {
				t.Fatalf("OwnerOf(%d,%d) = %d out of range", j, k, r)
			}
			e := p.ExtentOf(r)
			if j < e.X0 || j >= e.X1 || k < e.Y0 || k >= e.Y1 {
				t.Fatalf("OwnerOf(%d,%d) = %d whose extent %+v does not contain it", j, k, r, e)
			}
		}
	}
	if p.OwnerOf(-1, 0, 0) != -1 || p.OwnerOf(0, 13, 0) != -1 {
		t.Error("out-of-grid cells must have owner -1")
	}
}

func TestPartitionOwnerQuick(t *testing.T) {
	p := MustPartition(101, 67, 1, 7, 4, 1)
	f := func(ju, ku uint) bool {
		j, k := int(ju%101), int(ku%67)
		e := p.ExtentOf(p.OwnerOf(j, k, 0))
		return j >= e.X0 && j < e.X1 && k >= e.Y0 && k < e.Y1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFactorNearSquare(t *testing.T) {
	cases := []struct {
		n, nx, ny      int
		wantPX, wantPY int
	}{
		{1, 100, 100, 1, 1},
		{4, 100, 100, 2, 2},
		{16, 4000, 4000, 4, 4},
		{2, 100, 100, 2, 1}, // prefers px >= py on square grids
		{8192, 4000, 4000, 128, 64},
	}
	for _, c := range cases {
		px, py, _ := FactorRanks(c.n, c.nx, c.ny, 1)
		if px*py != c.n {
			t.Errorf("FactorNearSquare(%d) = %dx%d does not multiply to n", c.n, px, py)
		}
		if px != c.wantPX || py != c.wantPY {
			t.Errorf("FactorNearSquare(%d,%d,%d) = %dx%d, want %dx%d",
				c.n, c.nx, c.ny, px, py, c.wantPX, c.wantPY)
		}
	}
	// Wide grids should prefer wide process grids.
	px, py, _ := FactorRanks(8, 1000, 10, 1)
	if px < py {
		t.Errorf("wide grid got %dx%d, want px >= py", px, py)
	}
}

func TestPartitionRankCoordsRoundTrip(t *testing.T) {
	p := MustPartition(40, 40, 1, 5, 8, 1)
	for r := 0; r < p.Ranks(); r++ {
		cx, cy, cz := p.CoordsOf(r)
		if p.RankAt(cx, cy, cz) != r {
			t.Fatalf("RankAt(CoordsOf(%d)) != %d", r, r)
		}
	}
	if p.RankAt(-1, 0, 0) != -1 || p.RankAt(0, 8, 0) != -1 {
		t.Error("out-of-grid coords must map to -1")
	}
}
