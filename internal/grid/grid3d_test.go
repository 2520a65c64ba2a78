package grid

import (
	"math"
	"testing"
)

func TestGrid3DValidation(t *testing.T) {
	if _, err := NewGrid3D(0, 4, 4, 1, 0, 1, 0, 1, 0, 1); err == nil {
		t.Error("zero nx must error")
	}
	if _, err := NewGrid3D(4, 4, 4, 0, 0, 1, 0, 1, 0, 1); err == nil {
		t.Error("zero halo must error")
	}
	if _, err := NewGrid3D(4, 4, 4, 1, 0, 1, 1, 1, 0, 1); err == nil {
		t.Error("empty y extent must error")
	}
	g, err := NewGrid3D(4, 5, 6, 2, 0, 1, 0, 1, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.Cells() != 120 {
		t.Errorf("Cells = %d, want 120", g.Cells())
	}
	if math.Abs(g.DZ-0.5) > 1e-15 {
		t.Errorf("DZ = %v, want 0.5", g.DZ)
	}
}

func TestGrid3DIndexUnique(t *testing.T) {
	g := UnitGrid(4, 3, 5, 2)
	seen := map[int]bool{}
	for k := -2; k < 7; k++ {
		for j := -2; j < 5; j++ {
			for i := -2; i < 6; i++ {
				idx := g.Index(i, j, k)
				if idx < 0 || idx >= g.Len() {
					t.Fatalf("Index(%d,%d,%d) = %d outside storage", i, j, k, idx)
				}
				if seen[idx] {
					t.Fatalf("index collision at (%d,%d,%d)", i, j, k)
				}
				seen[idx] = true
			}
		}
	}
	if len(seen) != g.Len() {
		t.Errorf("covered %d of %d", len(seen), g.Len())
	}
}

func TestField3DBasics(t *testing.T) {
	g := UnitGrid(3, 3, 3, 1)
	f := NewField(g)
	f.SetCell(1, 2, 0, 4.5)
	if f.Cell(1, 2, 0) != 4.5 {
		t.Error("At/Set broken")
	}
	f.Fill(2)
	if got, want := f.SumInterior(), 54.0; got != want {
		t.Errorf("SumInterior = %v, want %v", got, want)
	}
	if got, want := f.MeanInterior(), 2.0; got != want {
		t.Errorf("MeanInterior = %v, want %v", got, want)
	}
	c := f.Clone()
	c.SetCell(0, 0, 0, 9)
	if f.Cell(0, 0, 0) != 2 {
		t.Error("Clone aliases")
	}
	if c.MaxDiff(f) != 7 {
		t.Errorf("MaxDiff = %v, want 7", c.MaxDiff(f))
	}
}

func TestField3DReflectHalos(t *testing.T) {
	g := UnitGrid(4, 4, 4, 2)
	f := NewField(g)
	for k := 0; k < 4; k++ {
		for j := 0; j < 4; j++ {
			for i := 0; i < 4; i++ {
				f.SetCell(i, j, k, float64(i+10*j+100*k))
			}
		}
	}
	f.ReflectHalos(2)
	for d := 1; d <= 2; d++ {
		if got, want := f.Cell(-d, 1, 1), f.Cell(d-1, 1, 1); got != want {
			t.Errorf("x- depth %d: %v != %v", d, got, want)
		}
		if got, want := f.Cell(1, 3+d, 1), f.Cell(1, 4-d, 1); got != want {
			t.Errorf("y+ depth %d: %v != %v", d, got, want)
		}
		if got, want := f.Cell(1, 1, -d), f.Cell(1, 1, d-1); got != want {
			t.Errorf("z- depth %d: %v != %v", d, got, want)
		}
	}
	// Constant field invariant.
	f.Fill(0)
	for k := 0; k < 4; k++ {
		for j := 0; j < 4; j++ {
			for i := 0; i < 4; i++ {
				f.SetCell(i, j, k, 1.5)
			}
		}
	}
	f.ReflectHalos(2)
	for k := -2; k < 6; k++ {
		for j := -2; j < 6; j++ {
			for i := -2; i < 6; i++ {
				if f.Cell(i, j, k) != 1.5 {
					t.Fatalf("constant not preserved at (%d,%d,%d): %v", i, j, k, f.Cell(i, j, k))
				}
			}
		}
	}
}

func TestGrid3DCellCenter(t *testing.T) {
	g, err := NewGrid3D(2, 2, 2, 1, 0, 2, 0, 2, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	x, y, z := g.CellCenterX(0), g.CellCenterY(1), g.CellCenterZ(1)
	if x != 0.5 || y != 1.5 || z != 1.5 {
		t.Errorf("CellCenter = (%v,%v,%v)", x, y, z)
	}
}
