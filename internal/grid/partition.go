package grid

import (
	"fmt"
	"math"
)

// Side identifies one face of a box sub-domain.
type Side int

// The six sides of a sub-domain: TeaLeaf's CHUNK_LEFT.. order, then the
// two z sides. Back faces -z, Front faces +z; a flat partition has no
// neighbour across either.
const (
	Left Side = iota
	Right
	Down
	Up
	Back
	Front
	NumSides
)

// Opposite returns the facing side (Left<->Right, Down<->Up, Back<->Front).
func (s Side) Opposite() Side {
	if s < 0 || s >= NumSides {
		panic(fmt.Sprintf("grid: invalid side %d", int(s)))
	}
	return s ^ 1
}

func (s Side) String() string {
	names := [...]string{"left", "right", "down", "up", "back", "front"}
	if s < 0 || s >= NumSides {
		return fmt.Sprintf("side(%d)", int(s))
	}
	return names[s]
}

// Sides is one flag per side of a sub-domain: which sides lie on the
// physical domain boundary, or which have a rank neighbour.
type Sides struct {
	Left, Right, Down, Up, Back, Front bool
}

// AllSides sets every flag: the single-rank / global-grid case of the
// physical-boundary flags.
var AllSides = Sides{Left: true, Right: true, Down: true, Up: true, Back: true, Front: true}

// Not returns the complementary flags (neighbour sides from physical ones).
func (ss Sides) Not() Sides {
	return Sides{!ss.Left, !ss.Right, !ss.Down, !ss.Up, !ss.Back, !ss.Front}
}

// Extent is a rank's box of interior cells within the global grid, given
// as half-open ranges.
type Extent struct {
	X0, X1, Y0, Y1, Z0, Z1 int
}

// NX returns the sub-domain extent in x.
func (e Extent) NX() int { return e.X1 - e.X0 }

// NY returns the sub-domain extent in y.
func (e Extent) NY() int { return e.Y1 - e.Y0 }

// NZ returns the sub-domain extent in z.
func (e Extent) NZ() int { return e.Z1 - e.Z0 }

// Cells returns the cell count of the extent.
func (e Extent) Cells() int { return e.NX() * e.NY() * e.NZ() }

// Partition is a PX × PY × PZ box decomposition of an NX × NY × NZ global
// grid, mirroring TeaLeaf's chunk decomposition. Rank r sits at
// (r mod PX, (r/PX) mod PY, r/(PX·PY)); remainder cells are distributed
// one per low-index rank so extents differ by at most one cell per
// dimension. A partition of a flat mesh (NZ == 1) has PZ == 1.
type Partition struct {
	NX, NY, NZ int
	PX, PY, PZ int
	// xsplit[i] is the first global x-index owned by rank-column i;
	// xsplit[PX] == NX. Similarly ysplit, zsplit.
	xsplit, ysplit, zsplit []int
}

// NewPartition builds a partition of a flat nx × ny mesh over px × py
// ranks.
func NewPartition(nx, ny, px, py int) (*Partition, error) {
	return Decompose(nx, ny, 1, px, py, 1)
}

// Decompose builds a partition of an nx × ny × nz grid over px × py × pz
// ranks. Every rank must receive at least one cell in each dimension.
func Decompose(nx, ny, nz, px, py, pz int) (*Partition, error) {
	if nx <= 0 || ny <= 0 || nz <= 0 || px <= 0 || py <= 0 || pz <= 0 {
		return nil, fmt.Errorf("grid: partition dims must be positive (%dx%dx%d over %dx%dx%d)",
			nx, ny, nz, px, py, pz)
	}
	if px > nx || py > ny || pz > nz {
		return nil, fmt.Errorf("grid: more ranks than cells (%dx%dx%d over %dx%dx%d)",
			nx, ny, nz, px, py, pz)
	}
	return &Partition{
		NX: nx, NY: ny, NZ: nz, PX: px, PY: py, PZ: pz,
		xsplit: splits(nx, px), ysplit: splits(ny, py), zsplit: splits(nz, pz),
	}, nil
}

// MustPartition is Decompose that panics on error.
func MustPartition(nx, ny, nz, px, py, pz int) *Partition {
	p, err := Decompose(nx, ny, nz, px, py, pz)
	if err != nil {
		panic(err)
	}
	return p
}

func splits(n, p int) []int {
	s := make([]int, p+1)
	q, r := n/p, n%p
	for i := 0; i <= p; i++ {
		// Low-index ranks take the remainder cells, one each.
		s[i] = i*q + min(i, r)
	}
	return s
}

// Flat reports whether the partitioned mesh is flat (one z-cell).
func (p *Partition) Flat() bool { return p.NZ == 1 }

// Ranks returns the total rank count PX·PY·PZ.
func (p *Partition) Ranks() int { return p.PX * p.PY * p.PZ }

// CoordsOf returns rank r's (cx, cy, cz) in the process grid.
func (p *Partition) CoordsOf(r int) (cx, cy, cz int) {
	return r % p.PX, (r / p.PX) % p.PY, r / (p.PX * p.PY)
}

// RankAt returns the rank at process-grid coordinates (cx, cy, cz), or -1
// if the coordinates fall outside the process grid.
func (p *Partition) RankAt(cx, cy, cz int) int {
	if cx < 0 || cx >= p.PX || cy < 0 || cy >= p.PY || cz < 0 || cz >= p.PZ {
		return -1
	}
	return (cz*p.PY+cy)*p.PX + cx
}

// ExtentOf returns the global cell box owned by rank r.
func (p *Partition) ExtentOf(r int) Extent {
	cx, cy, cz := p.CoordsOf(r)
	return Extent{
		X0: p.xsplit[cx], X1: p.xsplit[cx+1],
		Y0: p.ysplit[cy], Y1: p.ysplit[cy+1],
		Z0: p.zsplit[cz], Z1: p.zsplit[cz+1],
	}
}

// Neighbor returns the rank adjacent to r across side s, or -1 at the
// physical domain boundary.
func (p *Partition) Neighbor(r int, s Side) int {
	cx, cy, cz := p.CoordsOf(r)
	switch s {
	case Left:
		return p.RankAt(cx-1, cy, cz)
	case Right:
		return p.RankAt(cx+1, cy, cz)
	case Down:
		return p.RankAt(cx, cy-1, cz)
	case Up:
		return p.RankAt(cx, cy+1, cz)
	case Back:
		return p.RankAt(cx, cy, cz-1)
	case Front:
		return p.RankAt(cx, cy, cz+1)
	}
	panic(fmt.Sprintf("grid: invalid side %d", int(s)))
}

// Physical reports which sides of rank r's sub-domain touch the physical
// domain boundary.
func (p *Partition) Physical(r int) Sides {
	on := func(s Side) bool { return p.Neighbor(r, s) == -1 }
	return Sides{on(Left), on(Right), on(Down), on(Up), on(Back), on(Front)}
}

// OwnerOf returns the rank owning global cell (i,j,k), or -1 outside the
// mesh.
func (p *Partition) OwnerOf(i, j, k int) int {
	if i < 0 || i >= p.NX || j < 0 || j >= p.NY || k < 0 || k >= p.NZ {
		return -1
	}
	return p.RankAt(p.ColumnOf(i), p.RowOf(j), p.PlaneOf(k))
}

func searchSplit(s []int, v int) int {
	lo, hi := 0, len(s)-1 // invariant: s[lo] <= v < s[hi]
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if s[mid] <= v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// ColumnOf returns the rank-column owning global x-index i (i must lie in
// [0, NX)). With RowOf and PlaneOf it gives per-axis ownership lookups,
// used by the deflation coarse space to map cells to blocks.
func (p *Partition) ColumnOf(i int) int { return searchSplit(p.xsplit, i) }

// RowOf returns the rank-row owning global y-index j (j must lie in [0, NY)).
func (p *Partition) RowOf(j int) int { return searchSplit(p.ysplit, j) }

// PlaneOf returns the rank-plane owning global z-index k (k must lie in
// [0, NZ)).
func (p *Partition) PlaneOf(k int) int { return searchSplit(p.zsplit, k) }

// OnBoundary reports whether rank r's sub-domain touches the physical
// domain boundary on side s.
func (p *Partition) OnBoundary(r int, s Side) bool { return p.Neighbor(r, s) == -1 }

// MinExtent returns the smallest per-rank cell counts in each dimension.
// Remainder cells go to low-index ranks, so the minimum is the floor
// division — identical on every rank, which lets collective operations
// validate against it without diverging.
func (p *Partition) MinExtent() (nx, ny, nz int) {
	return p.NX / p.PX, p.NY / p.PY, p.NZ / p.PZ
}

func (p *Partition) String() string {
	if p.Flat() {
		return fmt.Sprintf("Partition(%dx%d cells over %dx%d ranks)", p.NX, p.NY, p.PX, p.PY)
	}
	return fmt.Sprintf("Partition(%dx%dx%d cells over %dx%dx%d ranks)",
		p.NX, p.NY, p.NZ, p.PX, p.PY, p.PZ)
}

// FactorRanks splits n ranks into px × py × pz with px·py·pz == n,
// minimising the per-rank communication surface of an nx × ny × nz mesh —
// this mirrors TeaLeaf's tea_decompose chunk factorisation. A flat mesh
// (nz == 1) is never split in z; its surface is the sub-domain perimeter,
// and on a tie the wider-than-tall layout wins.
func FactorRanks(n, nx, ny, nz int) (px, py, pz int) {
	if n <= 0 {
		return 1, 1, 1
	}
	bestX, bestY, bestZ := n, 1, 1
	bestCost := math.Inf(1)
	for x := 1; x <= n; x++ {
		if n%x != 0 {
			continue
		}
		rest := n / x
		for y := 1; y <= rest; y++ {
			if rest%y != 0 {
				continue
			}
			z := rest / y
			if x > nx || y > ny || z > nz {
				continue
			}
			lx := float64(nx) / float64(x)
			ly := float64(ny) / float64(y)
			lz := float64(nz) / float64(z)
			cost := lx*ly + ly*lz + lx*lz
			if nz == 1 {
				cost = lx + ly
			}
			if cost < bestCost || (cost == bestCost && nz == 1 && x >= y && bestX < bestY) {
				bestCost, bestX, bestY, bestZ = cost, x, y, z
			}
		}
	}
	return bestX, bestY, bestZ
}
