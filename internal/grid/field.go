package grid

import (
	"fmt"
	"math"
)

// Field is a halo-padded, cell-centred scalar field on a Grid. Data is
// laid out x fastest, then y, then z, with the grid's padded strides; use
// the grid's Index to address cells, or Cell/SetCell for convenience
// (bounds unchecked in the hot accessors, as all kernels iterate Bounds
// that were validated once).
type Field struct {
	Grid *Grid
	Data []float64
}

// Field2D is the name the 2D solve path has always used for a field; its
// At and Set address the plane k = 0 with two indices.
type Field2D = Field

// Field3D is a Field addressed with three indices by At and Set: the
// name the 3D solve path has always used. It shares the Field's storage
// (convert with (*Field3D)(f) and (*Field)(f3)).
type Field3D Field

// NewField allocates a zeroed field on g.
func NewField(g *Grid) *Field {
	return &Field{Grid: g, Data: make([]float64, g.Len())}
}

// Cell returns the value at cell (i,j,k); any index may address a halo
// cell.
func (f *Field) Cell(i, j, k int) float64 { return f.Data[f.Grid.Index(i, j, k)] }

// SetCell stores v at cell (i,j,k).
func (f *Field) SetCell(i, j, k int, v float64) { f.Data[f.Grid.Index(i, j, k)] = v }

// At returns the value at cell (j,k) of the plane k = 0.
func (f *Field) At(j, k int) float64 { return f.Data[f.Grid.Index(j, k, 0)] }

// Set stores v at cell (j,k) of the plane k = 0.
func (f *Field) Set(j, k int, v float64) { f.Data[f.Grid.Index(j, k, 0)] = v }

// At returns the value at cell (i,j,k).
func (f *Field3D) At(i, j, k int) float64 { return (*Field)(f).Cell(i, j, k) }

// Set stores v at cell (i,j,k).
func (f *Field3D) Set(i, j, k int, v float64) { (*Field)(f).SetCell(i, j, k, v) }

// Fill sets every entry (including halos) to v.
func (f *Field) Fill(v float64) {
	for i := range f.Data {
		f.Data[i] = v
	}
}

// FillBounds sets every cell inside b to v.
func (f *Field) FillBounds(b Bounds, v float64) {
	f.eachRow(b, func(r []float64) {
		for i := range r {
			r[i] = v
		}
	})
}

// Zero clears the field, halos included.
func (f *Field) Zero() { f.Fill(0) }

// Clone returns a deep copy of f on the same grid.
func (f *Field) Clone() *Field {
	c := NewField(f.Grid)
	copy(c.Data, f.Data)
	return c
}

// CopyFrom copies src's data into f. The grids must have identical shape.
func (f *Field) CopyFrom(src *Field) {
	if len(f.Data) != len(src.Data) {
		panic(fmt.Sprintf("grid: CopyFrom shape mismatch: %d vs %d", len(f.Data), len(src.Data)))
	}
	copy(f.Data, src.Data)
}

// Row returns the slice of storage covering cells [x0,x1) of row (j,k).
// The slice aliases the field's data.
func (f *Field) Row(j, k, x0, x1 int) []float64 {
	base := f.Grid.Index(x0, j, k)
	return f.Data[base : base+(x1-x0)]
}

// eachRow calls fn on the storage of every row of b, x fastest, then y,
// then z.
func (f *Field) eachRow(b Bounds, fn func(r []float64)) {
	if b.Empty() {
		return
	}
	for k := b.Z0; k < b.Z1; k++ {
		for j := b.Y0; j < b.Y1; j++ {
			fn(f.Row(j, k, b.X0, b.X1))
		}
	}
}

// SumBounds returns the sum of the field over b, accumulated x fastest.
func (f *Field) SumBounds(b Bounds) float64 {
	var s float64
	for k := b.Z0; k < b.Z1; k++ {
		for j := b.Y0; j < b.Y1; j++ {
			for _, v := range f.Row(j, k, b.X0, b.X1) {
				s += v
			}
		}
	}
	return s
}

// SumInterior returns the sum of the field over the interior cells.
func (f *Field) SumInterior() float64 { return f.SumBounds(f.Grid.Interior()) }

// MeanInterior returns the arithmetic mean over interior cells.
func (f *Field) MeanInterior() float64 {
	return f.SumInterior() / float64(f.Grid.Cells())
}

// MinMaxInterior returns the extrema over interior cells.
func (f *Field) MinMaxInterior() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	f.eachRow(f.Grid.Interior(), func(r []float64) {
		for _, v := range r {
			lo, hi = min(lo, v), max(hi, v)
		}
	})
	return lo, hi
}

// Norm2Interior returns the Euclidean norm over interior cells.
func (f *Field) Norm2Interior() float64 {
	var s float64
	f.eachRow(f.Grid.Interior(), func(r []float64) {
		for _, v := range r {
			s += v * v
		}
	})
	return math.Sqrt(s)
}

// ApproxEqual reports whether the interiors of f and o agree to within tol
// in max-norm. Grids must have identical interior shape.
func (f *Field) ApproxEqual(o *Field, tol float64) bool {
	if f.Grid.NX != o.Grid.NX || f.Grid.NY != o.Grid.NY || f.Grid.NZ != o.Grid.NZ {
		return false
	}
	return f.MaxDiff(o) <= tol
}

// MaxDiff returns the maximum absolute interior difference between f and o.
func (f *Field) MaxDiff(o *Field) float64 {
	g := f.Grid
	var m float64
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			fr, or := f.Row(j, k, 0, g.NX), o.Row(j, k, 0, g.NX)
			for i := range fr {
				m = max(m, math.Abs(fr[i]-or[i]))
			}
		}
	}
	return m
}

// ReflectHalos fills halo cells with mirror copies of the nearest interior
// cells on every side (homogeneous Neumann boundary: zero normal flux).
// This is the physical boundary condition TeaLeaf applies on the outer
// domain edge; on internal rank boundaries the communicator overwrites
// halos with neighbour data instead.
func (f *Field) ReflectHalos(depth int) { f.ReflectHalosSides(depth, AllSides) }

// ReflectHalosSides mirrors only the requested sides (used on ranks whose
// sub-domain touches the physical boundary on some sides only). The fill
// order — x sides, then y sides spanning the x halos, then z sides
// spanning both — matches the phases of the exchange, so edge and corner
// halo cells are coherent for the deep stencils that read them. A flat
// grid has no z halo: its z sides are ignored.
func (f *Field) ReflectHalosSides(depth int, s Sides) {
	g := f.Grid
	if depth > g.Halo {
		depth = g.Halo
	}
	zd := min(depth, g.ZHalo())
	if s.Left || s.Right {
		for k := -zd; k < g.NZ+zd; k++ {
			for j := -depth; j < g.NY+depth; j++ {
				r := f.Row(j, k, -depth, g.NX+depth)
				for d := 1; d <= depth; d++ {
					if s.Left {
						r[depth-d] = r[depth+d-1]
					}
					if s.Right {
						r[depth+g.NX-1+d] = r[depth+g.NX-d]
					}
				}
			}
		}
	}
	if s.Down || s.Up {
		for k := -zd; k < g.NZ+zd; k++ {
			for d := 1; d <= depth; d++ {
				if s.Down {
					copy(f.Row(-d, k, -depth, g.NX+depth), f.Row(d-1, k, -depth, g.NX+depth))
				}
				if s.Up {
					copy(f.Row(g.NY-1+d, k, -depth, g.NX+depth), f.Row(g.NY-d, k, -depth, g.NX+depth))
				}
			}
		}
	}
	if (s.Back || s.Front) && zd > 0 {
		for d := 1; d <= zd; d++ {
			for j := -depth; j < g.NY+depth; j++ {
				if s.Back {
					copy(f.Row(j, -d, -depth, g.NX+depth), f.Row(j, d-1, -depth, g.NX+depth))
				}
				if s.Front {
					copy(f.Row(j, g.NZ-1+d, -depth, g.NX+depth), f.Row(j, g.NZ-d, -depth, g.NX+depth))
				}
			}
		}
	}
}
