// Package grid provides the structured, cell-centred grids that TeaLeaf
// solves on: rectangular meshes with halo padding, scalar fields stored in
// flat, stride-indexed arrays, and rectangular domain partitions used by
// the distributed solvers.
//
// There is one N-d grid. A 2D mesh is its flat case: a grid whose global
// mesh has a single z-cell. Flatness is fixed when the global grid is
// built and carried into every sub-grid cut from it — never inferred from
// one rank's local extent — and a flat grid allocates no z-halo planes, so
// its storage is exactly the (NX+2h)·(NY+2h) padded plane of the 2D mesh.
//
// Temperatures (and every other solver vector) live at cell centres.
// Every field is padded with a fixed halo depth on all sides (all but the
// two z sides, when flat) so that the matrix-free stencil operators and
// the deep-halo matrix-powers kernel can read neighbour data without
// bounds checks. Interior cell (0,0,0) is the low corner; halo cells carry
// negative indices down to -Halo.
package grid

import (
	"errors"
	"fmt"

	"tealeaf/internal/par"
)

// MaxHalo is the deepest halo the library supports. The paper's
// matrix-powers kernel uses depths up to 16 on GPUs, so the cap is set
// slightly above that.
const MaxHalo = 20

// Grid describes a rectangular, cell-centred grid with uniform spacing
// and a fixed halo depth on every side.
type Grid struct {
	// NX, NY, NZ are the interior cell counts (NZ is 1 on a flat grid).
	NX, NY, NZ int
	// Halo is the halo depth in cells on every side (the z sides of a flat
	// grid have none; see ZHalo).
	Halo int
	// Physical extents of the interior region.
	XMin, XMax, YMin, YMax, ZMin, ZMax float64
	// DX, DY, DZ are the uniform cell widths.
	DX, DY, DZ float64

	flat   bool
	sy, sz int // row and plane strides of padded storage
	origin int // flat index of interior cell (0,0,0)
}

// NewGrid constructs a grid with nx × ny × nz interior cells, halo-padded
// by halo cells per side, spanning [xmin,xmax] × [ymin,ymax] × [zmin,zmax].
// A grid with nz == 1 is flat: it is the 2D mesh, with no z halo.
func NewGrid(nx, ny, nz, halo int, xmin, xmax, ymin, ymax, zmin, zmax float64) (*Grid, error) {
	switch {
	case nx <= 0 || ny <= 0 || nz <= 0:
		return nil, fmt.Errorf("grid: cell counts must be positive, got %dx%dx%d", nx, ny, nz)
	case halo < 1 || halo > MaxHalo:
		return nil, fmt.Errorf("grid: halo depth %d outside [1,%d]", halo, MaxHalo)
	case xmax <= xmin || ymax <= ymin || zmax <= zmin:
		return nil, errors.New("grid: physical extents must be non-empty")
	}
	return newGrid(nx, ny, nz, halo, xmin, xmax, ymin, ymax, zmin, zmax, nz == 1), nil
}

func newGrid(nx, ny, nz, halo int, xmin, xmax, ymin, ymax, zmin, zmax float64, flat bool) *Grid {
	g := &Grid{
		NX: nx, NY: ny, NZ: nz, Halo: halo,
		XMin: xmin, XMax: xmax, YMin: ymin, YMax: ymax, ZMin: zmin, ZMax: zmax,
		DX:   (xmax - xmin) / float64(nx),
		DY:   (ymax - ymin) / float64(ny),
		DZ:   (zmax - zmin) / float64(nz),
		flat: flat,
	}
	g.sy = nx + 2*halo
	g.sz = g.sy * (ny + 2*halo)
	g.origin = g.ZHalo()*g.sz + halo*g.sy + halo
	return g
}

// NewGrid2D constructs a flat grid with nx × ny interior cells spanning
// [xmin,xmax] × [ymin,ymax] and one unit-depth z-cell.
func NewGrid2D(nx, ny, halo int, xmin, xmax, ymin, ymax float64) (*Grid, error) {
	return NewGrid(nx, ny, 1, halo, xmin, xmax, ymin, ymax, 0, 1)
}

// NewGrid3D is NewGrid under the name the 3D solve path has always used.
func NewGrid3D(nx, ny, nz, halo int, xmin, xmax, ymin, ymax, zmin, zmax float64) (*Grid, error) {
	return NewGrid(nx, ny, nz, halo, xmin, xmax, ymin, ymax, zmin, zmax)
}

// MustGrid is NewGrid that panics on error; for tests and examples.
func MustGrid(nx, ny, nz, halo int, xmin, xmax, ymin, ymax, zmin, zmax float64) *Grid {
	g, err := NewGrid(nx, ny, nz, halo, xmin, xmax, ymin, ymax, zmin, zmax)
	if err != nil {
		panic(err)
	}
	return g
}

// UnitGrid builds an nx × ny × nz grid over the unit square (nz == 1,
// flat) or cube with the given halo.
func UnitGrid(nx, ny, nz, halo int) *Grid {
	return MustGrid(nx, ny, nz, halo, 0, 1, 0, 1, 0, 1)
}

// Flat reports whether g is the flat (2D) case: its global mesh has one
// z-cell, so it has no z halo and no z coupling.
func (g *Grid) Flat() bool { return g.flat }

// ZHalo returns the halo depth on the two z sides: Halo, or 0 when flat.
func (g *Grid) ZHalo() int {
	if g.flat {
		return 0
	}
	return g.Halo
}

// Stride returns the padded row stride (the index distance of one y step).
func (g *Grid) Stride() int { return g.sy }

// PlaneStride returns the padded plane stride (one z step).
func (g *Grid) PlaneStride() int { return g.sz }

// Len returns the padded storage length for one field.
func (g *Grid) Len() int { return g.sz * (g.NZ + 2*g.ZHalo()) }

// Index maps cell coordinates (i,j,k) — halo cells have negative
// coordinates — to a flat storage index.
func (g *Grid) Index(i, j, k int) int { return g.origin + k*g.sz + j*g.sy + i }

// Coords is the inverse of Index.
func (g *Grid) Coords(idx int) (i, j, k int) {
	// Work in padded coordinates, which are non-negative.
	return idx%g.sy - g.Halo, idx%g.sz/g.sy - g.Halo, idx/g.sz - g.ZHalo()
}

// InPadded reports whether (i,j,k) is addressable (interior or halo).
func (g *Grid) InPadded(i, j, k int) bool {
	h, zh := g.Halo, g.ZHalo()
	return i >= -h && i < g.NX+h && j >= -h && j < g.NY+h && k >= -zh && k < g.NZ+zh
}

// InInterior reports whether (i,j,k) is an interior (non-halo) cell.
func (g *Grid) InInterior(i, j, k int) bool {
	return i >= 0 && i < g.NX && j >= 0 && j < g.NY && k >= 0 && k < g.NZ
}

// CellCenterX returns the x coordinate of the centre of column i.
func (g *Grid) CellCenterX(i int) float64 { return g.XMin + (float64(i)+0.5)*g.DX }

// CellCenterY returns the y coordinate of the centre of row j.
func (g *Grid) CellCenterY(j int) float64 { return g.YMin + (float64(j)+0.5)*g.DY }

// CellCenterZ returns the z coordinate of the centre of plane k.
func (g *Grid) CellCenterZ(k int) float64 { return g.ZMin + (float64(k)+0.5)*g.DZ }

// VertexX returns the x coordinate of the low face of column i.
func (g *Grid) VertexX(i int) float64 { return g.XMin + float64(i)*g.DX }

// VertexY returns the y coordinate of the low face of row j.
func (g *Grid) VertexY(j int) float64 { return g.YMin + float64(j)*g.DY }

// VertexZ returns the z coordinate of the low face of plane k.
func (g *Grid) VertexZ(k int) float64 { return g.ZMin + float64(k)*g.DZ }

// CellVolume returns the volume of one cell (its area times the unit
// depth of a flat grid built by NewGrid2D).
func (g *Grid) CellVolume() float64 { return g.DX * g.DY * g.DZ }

// Cells returns the number of interior cells.
func (g *Grid) Cells() int { return g.NX * g.NY * g.NZ }

func (g *Grid) String() string {
	if g.flat {
		return fmt.Sprintf("Grid(%dx%d, halo=%d, [%g,%g]x[%g,%g])",
			g.NX, g.NY, g.Halo, g.XMin, g.XMax, g.YMin, g.YMax)
	}
	return fmt.Sprintf("Grid(%dx%dx%d, halo=%d)", g.NX, g.NY, g.NZ, g.Halo)
}

// Sub returns the geometry of the sub-grid covering interior columns
// [x0,x1) × [y0,y1) of g, through its whole z extent.
func (g *Grid) Sub(x0, x1, y0, y1 int) (*Grid, error) {
	return g.SubExtent(Extent{X0: x0, X1: x1, Y0: y0, Y1: y1, Z0: 0, Z1: g.NZ})
}

// SubExtent returns the geometry of the box sub-grid covering interior
// cells e of g, with the same halo depth, cell widths and flatness. The
// sub-grid's physical extents are positioned so that its cell centres
// coincide with the parent's: this is the per-rank grid used by the
// distributed solvers.
func (g *Grid) SubExtent(e Extent) (*Grid, error) {
	if e.X0 < 0 || e.Y0 < 0 || e.Z0 < 0 || e.X1 > g.NX || e.Y1 > g.NY || e.Z1 > g.NZ ||
		e.X0 >= e.X1 || e.Y0 >= e.Y1 || e.Z0 >= e.Z1 {
		return nil, fmt.Errorf("grid: sub-extent %v outside %dx%dx%d", e, g.NX, g.NY, g.NZ)
	}
	return newGrid(e.NX(), e.NY(), e.NZ(), g.Halo,
		g.VertexX(e.X0), g.VertexX(e.X1), g.VertexY(e.Y0), g.VertexY(e.Y1),
		g.VertexZ(e.Z0), g.VertexZ(e.Z1), g.flat), nil
}

// Box is the scheduler iteration box for bounds b of g. The grid's
// flatness, not the box's extent, selects the outermost axis the untiled
// schedule splits into bands: y on a flat grid, z otherwise.
func (g *Grid) Box(b Bounds) par.Box {
	if g.flat {
		return par.Box2D(b.X0, b.X1, b.Y0, b.Y1)
	}
	return par.Box3D(b.X0, b.X1, b.Y0, b.Y1, b.Z0, b.Z1)
}

// ForRows runs fn on every row of b — o the storage index of the row's
// first cell, n its length — with the rows split across the pool's
// workers along the outermost axis. It serves the elementwise sweeps,
// whose result does not depend on the schedule.
func (g *Grid) ForRows(p *par.Pool, b Bounds, fn func(o, n int)) {
	if b.Empty() {
		return
	}
	p.ForTiles(g.Box(b), func(t par.Tile) {
		for k := t.Z0; k < t.Z1; k++ {
			for j := t.Y0; j < t.Y1; j++ {
				fn(g.Index(t.X0, j, k), t.X1-t.X0)
			}
		}
	})
}

// Bounds is a half-open index box [X0,X1) × [Y0,Y1) × [Z0,Z1) over cell
// coordinates. It is the unit of iteration for all kernels: the interior
// is Bounds{0, NX, 0, NY, 0, NZ}, and the matrix-powers kernel runs
// kernels on expanded bounds that shrink between halo exchanges. On a
// flat grid every box spans exactly the plane [0,1).
type Bounds struct {
	X0, X1, Y0, Y1, Z0, Z1 int
}

// Interior returns the interior bounds of g.
func (g *Grid) Interior() Bounds { return Bounds{0, g.NX, 0, g.NY, 0, g.NZ} }

// Expand grows b by d cells on every side, clamped to the padded region of g.
func (b Bounds) Expand(d int, g *Grid) Bounds {
	return b.ExpandSides(d, d, d, d, d, d, g)
}

// ExpandSides grows b by the given per-side amounts (clamped to padding).
// Sides that touch the physical domain boundary must not be expanded,
// which is what the per-side form is for.
func (b Bounds) ExpandSides(left, right, down, up, back, front int, g *Grid) Bounds {
	e := Bounds{b.X0 - left, b.X1 + right, b.Y0 - down, b.Y1 + up, b.Z0 - back, b.Z1 + front}
	return e.ClampPadded(g)
}

// ShrinkToward contracts b by d cells on each side, but never inside the
// target bounds t: sides already at or inside t's corresponding side stay.
// This is the matrix-powers schedule step — extended bounds shrink toward
// the interior as halo data goes stale, but never past the interior.
func (b Bounds) ShrinkToward(d int, t Bounds) Bounds {
	s := b
	if s.X0 < t.X0 {
		s.X0 = min(s.X0+d, t.X0)
	}
	if s.X1 > t.X1 {
		s.X1 = max(s.X1-d, t.X1)
	}
	if s.Y0 < t.Y0 {
		s.Y0 = min(s.Y0+d, t.Y0)
	}
	if s.Y1 > t.Y1 {
		s.Y1 = max(s.Y1-d, t.Y1)
	}
	if s.Z0 < t.Z0 {
		s.Z0 = min(s.Z0+d, t.Z0)
	}
	if s.Z1 > t.Z1 {
		s.Z1 = max(s.Z1-d, t.Z1)
	}
	return s
}

// ClampPadded clamps b to the padded (addressable) region of g.
func (b Bounds) ClampPadded(g *Grid) Bounds {
	h, zh := g.Halo, g.ZHalo()
	return Bounds{
		X0: max(b.X0, -h), X1: min(b.X1, g.NX+h),
		Y0: max(b.Y0, -h), Y1: min(b.Y1, g.NY+h),
		Z0: max(b.Z0, -zh), Z1: min(b.Z1, g.NZ+zh),
	}
}

// ClampInterior clamps b to the interior region of g.
func (b Bounds) ClampInterior(g *Grid) Bounds {
	return Bounds{
		X0: max(b.X0, 0), X1: min(b.X1, g.NX),
		Y0: max(b.Y0, 0), Y1: min(b.Y1, g.NY),
		Z0: max(b.Z0, 0), Z1: min(b.Z1, g.NZ),
	}
}

// Intersect returns the box common to b and o (empty if they are disjoint).
func (b Bounds) Intersect(o Bounds) Bounds {
	return Bounds{
		X0: max(b.X0, o.X0), X1: min(b.X1, o.X1),
		Y0: max(b.Y0, o.Y0), Y1: min(b.Y1, o.Y1),
		Z0: max(b.Z0, o.Z0), Z1: min(b.Z1, o.Z1),
	}
}

// Empty reports whether b contains no cells.
func (b Bounds) Empty() bool { return b.X0 >= b.X1 || b.Y0 >= b.Y1 || b.Z0 >= b.Z1 }

// Cells returns the number of cells in b (0 if empty).
func (b Bounds) Cells() int {
	if b.Empty() {
		return 0
	}
	return (b.X1 - b.X0) * (b.Y1 - b.Y0) * (b.Z1 - b.Z0)
}

// Contains reports whether (i,j,k) lies inside b.
func (b Bounds) Contains(i, j, k int) bool {
	return i >= b.X0 && i < b.X1 && j >= b.Y0 && j < b.Y1 && k >= b.Z0 && k < b.Z1
}

// Within reports whether b lies entirely inside outer.
func (b Bounds) Within(outer Bounds) bool {
	if b.Empty() {
		return true
	}
	return b.X0 >= outer.X0 && b.X1 <= outer.X1 &&
		b.Y0 >= outer.Y0 && b.Y1 <= outer.Y1 &&
		b.Z0 >= outer.Z0 && b.Z1 <= outer.Z1
}

// Eq reports bounds equality.
func (b Bounds) Eq(o Bounds) bool { return b == o }

func (b Bounds) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)x[%d,%d)", b.X0, b.X1, b.Y0, b.Y1, b.Z0, b.Z1)
}
