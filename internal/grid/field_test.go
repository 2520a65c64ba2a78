package grid

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFieldAtSet(t *testing.T) {
	g := MustGrid(4, 3, 1, 2, 0, 1, 0, 1, 0, 1)
	f := NewField(g)
	f.Set(2, 1, 7.5)
	f.Set(-2, -2, 1.25) // deep halo corner
	f.Set(2, 1, f.At(2, 1)+0.5)
	if got := f.At(2, 1); got != 8.0 {
		t.Errorf("At(2,1) = %v, want 8", got)
	}
	if got := f.At(-2, -2); got != 1.25 {
		t.Errorf("halo corner = %v, want 1.25", got)
	}
	if got := f.At(0, 0); got != 0 {
		t.Errorf("untouched cell = %v, want 0", got)
	}
}

func TestFieldFillAndSums(t *testing.T) {
	g := MustGrid(5, 4, 1, 1, 0, 1, 0, 1, 0, 1)
	f := NewField(g)
	f.Fill(2.0)
	if got, want := f.SumInterior(), 40.0; got != want {
		t.Errorf("SumInterior = %v, want %v", got, want)
	}
	if got, want := f.MeanInterior(), 2.0; got != want {
		t.Errorf("MeanInterior = %v, want %v", got, want)
	}
	f.FillBounds(Bounds{1, 3, 1, 3, 0, 1}, 5)
	// 4 cells changed from 2 to 5.
	if got, want := f.SumInterior(), 40.0+4*3; got != want {
		t.Errorf("after FillBounds sum = %v, want %v", got, want)
	}
	lo, hi := f.MinMaxInterior()
	if lo != 2 || hi != 5 {
		t.Errorf("MinMax = %v,%v want 2,5", lo, hi)
	}
	f.Zero()
	if f.SumInterior() != 0 || f.At(-1, -1) != 0 {
		t.Error("Zero must clear everything")
	}
}

func TestFieldCloneCopyIndependence(t *testing.T) {
	g := MustGrid(3, 3, 1, 1, 0, 1, 0, 1, 0, 1)
	f := NewField(g)
	f.Set(1, 1, 3)
	c := f.Clone()
	c.Set(1, 1, 9)
	if f.At(1, 1) != 3 {
		t.Error("Clone must not alias")
	}
	f.CopyFrom(c)
	if f.At(1, 1) != 9 {
		t.Error("CopyFrom must copy")
	}
}

func TestFieldRowAliases(t *testing.T) {
	g := MustGrid(6, 2, 1, 2, 0, 1, 0, 1, 0, 1)
	f := NewField(g)
	row := f.Row(1, 0, -1, 4) // cells -1..3 of row 1
	if len(row) != 5 {
		t.Fatalf("row len = %d, want 5", len(row))
	}
	row[0] = 42
	if f.At(-1, 1) != 42 {
		t.Error("Row must alias field storage")
	}
}

func TestNorm2Interior(t *testing.T) {
	g := MustGrid(2, 2, 1, 1, 0, 1, 0, 1, 0, 1)
	f := NewField(g)
	f.Set(0, 0, 3)
	f.Set(1, 1, 4)
	f.Set(-1, -1, 100) // halo must not count
	if got, want := f.Norm2Interior(), 5.0; math.Abs(got-want) > 1e-15 {
		t.Errorf("Norm2 = %v, want %v", got, want)
	}
}

func TestApproxEqualAndMaxDiff(t *testing.T) {
	g := MustGrid(4, 4, 1, 1, 0, 1, 0, 1, 0, 1)
	a, b := NewField(g), NewField(g)
	a.Fill(1)
	b.Fill(1)
	b.Set(2, 2, 1.0+1e-9)
	if !a.ApproxEqual(b, 1e-8) {
		t.Error("fields equal within tol")
	}
	if a.ApproxEqual(b, 1e-10) {
		t.Error("fields differ beyond tol")
	}
	if got := a.MaxDiff(b); math.Abs(got-1e-9) > 1e-15 {
		t.Errorf("MaxDiff = %v", got)
	}
	g2 := MustGrid(5, 4, 1, 1, 0, 1, 0, 1, 0, 1)
	if a.ApproxEqual(NewField(g2), 1) {
		t.Error("shape mismatch must be unequal")
	}
}

func TestReflectHalosDepth1(t *testing.T) {
	g := MustGrid(3, 3, 1, 2, 0, 1, 0, 1, 0, 1)
	f := NewField(g)
	for k := 0; k < 3; k++ {
		for j := 0; j < 3; j++ {
			f.Set(j, k, float64(10*j+k))
		}
	}
	f.ReflectHalos(1)
	if f.At(-1, 1) != f.At(0, 1) {
		t.Error("left halo must mirror first column")
	}
	if f.At(3, 2) != f.At(2, 2) {
		t.Error("right halo must mirror last column")
	}
	if f.At(1, -1) != f.At(1, 0) {
		t.Error("bottom halo must mirror first row")
	}
	if f.At(1, 3) != f.At(1, 2) {
		t.Error("top halo must mirror last row")
	}
	// Corner: filled from the already-mirrored side halos.
	if f.At(-1, -1) != f.At(0, 0) {
		t.Error("corner halo must mirror interior corner")
	}
}

func TestReflectHalosDeep(t *testing.T) {
	g := MustGrid(6, 6, 1, 4, 0, 1, 0, 1, 0, 1)
	f := NewField(g)
	for k := 0; k < 6; k++ {
		for j := 0; j < 6; j++ {
			f.Set(j, k, float64(j)+100*float64(k))
		}
	}
	f.ReflectHalos(3)
	// Depth-d mirror: cell -d == cell d-1.
	for d := 1; d <= 3; d++ {
		if got, want := f.At(-d, 2), f.At(d-1, 2); got != want {
			t.Errorf("left depth %d: got %v want %v", d, got, want)
		}
		if got, want := f.At(5+d, 3), f.At(6-d, 3); got != want {
			t.Errorf("right depth %d: got %v want %v", d, got, want)
		}
		if got, want := f.At(1, -d), f.At(1, d-1); got != want {
			t.Errorf("bottom depth %d: got %v want %v", d, got, want)
		}
	}
	// Requesting more than the allocated halo is clamped, not a panic.
	f.ReflectHalos(10)
}

func TestReflectHalosZeroFluxInvariant(t *testing.T) {
	// Zero-flux mirror must conserve the operator's action on a constant
	// field: a constant extends to a constant.
	g := MustGrid(5, 5, 1, 3, 0, 1, 0, 1, 0, 1)
	f := NewField(g)
	f.FillBounds(g.Interior(), 3.7)
	f.ReflectHalos(3)
	for k := -3; k < 8; k++ {
		for j := -3; j < 8; j++ {
			if f.At(j, k) != 3.7 {
				t.Fatalf("cell (%d,%d) = %v, want 3.7", j, k, f.At(j, k))
			}
		}
	}
}

func TestReflectHalosSides(t *testing.T) {
	g := MustGrid(4, 4, 1, 2, 0, 1, 0, 1, 0, 1)
	f := NewField(g)
	f.FillBounds(g.Interior(), 1)
	f.ReflectHalosSides(2, Sides{Left: true, Up: true})
	if f.At(-1, 1) != 1 {
		t.Error("left side requested, must mirror")
	}
	if f.At(4, 1) != 0 {
		t.Error("right side not requested, must stay zero")
	}
	if f.At(1, -1) != 0 {
		t.Error("down side not requested, must stay zero")
	}
	if f.At(1, 4) != 1 {
		t.Error("up side requested, must mirror")
	}
}

func TestFieldSumBoundsQuick(t *testing.T) {
	g := MustGrid(9, 7, 1, 2, 0, 1, 0, 1, 0, 1)
	f := NewField(g)
	for k := -2; k < 9; k++ {
		for j := -2; j < 11; j++ {
			f.Set(j, k, float64(j*13+k))
		}
	}
	// SumBounds must equal the naive loop for arbitrary sub-bounds.
	prop := func(a, b, c, d uint8) bool {
		x0, x1 := int(a%9), int(b%9)
		y0, y1 := int(c%7), int(d%7)
		if x0 > x1 {
			x0, x1 = x1, x0
		}
		if y0 > y1 {
			y0, y1 = y1, y0
		}
		bd := Bounds{x0, x1, y0, y1, 0, 1}
		var want float64
		for k := y0; k < y1; k++ {
			for j := x0; j < x1; j++ {
				want += f.At(j, k)
			}
		}
		return math.Abs(f.SumBounds(bd)-want) < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
