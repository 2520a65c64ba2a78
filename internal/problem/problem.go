// Package problem builds TeaLeaf initial conditions: it paints input-deck
// states onto density/energy fields and provides canned generators for the
// paper's workloads — most importantly the "crooked pipe" heat-diffusion
// test of §V-B, a dense low-conduction material crossed by a kinked pipe of
// low-density, high-conduction material with a heat source at its inlet.
package problem

import (
	"fmt"

	"tealeaf/internal/deck"
	"tealeaf/internal/grid"
)

// Paint applies the deck states to the interior cells of density and
// energy. State 1 (no geometry) is the background; subsequent states
// overwrite cells whose centres fall inside their shape. On a 3D grid a
// rectangle state is an axis-aligned box — one with an empty z-range
// spans the whole domain in z, so 2D state definitions extrude naturally
// — and a circle state is a sphere around (CX, CY, CZ). A flat grid has
// no z structure: its states are the 2D shapes, their z attributes
// ignored. Because sub-grids carry true physical coordinates, the same
// call paints a rank-local grid correctly with no offset bookkeeping.
func Paint(states []deck.State, density, energy *grid.Field) error {
	if len(states) == 0 {
		return fmt.Errorf("problem: no states to paint")
	}
	if states[0].Geometry != deck.GeomNone {
		return fmt.Errorf("problem: first state must be the background (no geometry)")
	}
	g := density.Grid
	bg := states[0]
	density.FillBounds(g.Interior(), bg.Density)
	energy.FillBounds(g.Interior(), bg.Energy)
	for _, st := range states[1:] {
		for k := 0; k < g.NZ; k++ {
			for j := 0; j < g.NY; j++ {
				for i := 0; i < g.NX; i++ {
					if inside(st, g, i, j, k) {
						density.SetCell(i, j, k, st.Density)
						energy.SetCell(i, j, k, st.Energy)
					}
				}
			}
		}
	}
	return nil
}

// inside reports whether cell (i,j,k) of g lies in state st's shape.
func inside(st deck.State, g *grid.Grid, i, j, k int) bool {
	cx, cy, cz := g.CellCenterX(i), g.CellCenterY(j), g.CellCenterZ(k)
	zr := !g.Flat() && st.ZMax > st.ZMin // the shape is bounded in z
	switch st.Geometry {
	case deck.GeomRectangle:
		return cx >= st.XMin && cx <= st.XMax && cy >= st.YMin && cy <= st.YMax &&
			(!zr || cz >= st.ZMin && cz <= st.ZMax)
	case deck.GeomCircle:
		dx, dy := cx-st.CX, cy-st.CY
		if g.Flat() {
			return dx*dx+dy*dy <= st.Radius*st.Radius
		}
		dz := cz - st.CZ
		return dx*dx+dy*dy+dz*dz <= st.Radius*st.Radius
	case deck.GeomPoint:
		return st.CX >= g.VertexX(i) && st.CX < g.VertexX(i+1) &&
			st.CY >= g.VertexY(j) && st.CY < g.VertexY(j+1) &&
			(g.Flat() || st.CZ >= g.VertexZ(k) && st.CZ < g.VertexZ(k+1))
	case deck.GeomNone:
		return true
	}
	return false
}

// EnergyToU computes the solve variable u = density · energy (TeaLeaf's
// tea_leaf_init: the conserved quantity is energy density) over the
// interior.
func EnergyToU(density, energy, u *grid.Field) {
	g := density.Grid
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			d, e, us := density.Row(j, k, 0, g.NX), energy.Row(j, k, 0, g.NX), u.Row(j, k, 0, g.NX)
			for i := range us {
				us[i] = d[i] * e[i]
			}
		}
	}
}

// UToEnergy recovers energy = u / density after a solve.
func UToEnergy(density, u, energy *grid.Field) {
	g := density.Grid
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			d, us, e := density.Row(j, k, 0, g.NX), u.Row(j, k, 0, g.NX), energy.Row(j, k, 0, g.NX)
			for i := range e {
				e[i] = us[i] / d[i]
			}
		}
	}
}

// Domain extents of the canned problems. The crooked-pipe geometry
// matches the paper's Fig. 3 proportions; the physical units are chosen so
// the implicit operator's stiffness (rx = Δt/Δx²) at 4000² is in the same
// regime as the paper's reported run times imply.
const (
	DomainSize = 100.0
	// PipeDensity is the low-density pipe material. Under TeaLeaf's
	// standard "density" coefficient mode the face conduction is the
	// mean of 1/ρ, so the pipe conducts WallDensity/PipeDensity = 1000×
	// faster than the wall.
	PipeDensity = 0.01
	// WallDensity is the dense, low-conduction background.
	WallDensity = 10.0
	// ColdEnergy is the initial specific energy of the cold material.
	ColdEnergy = 1e-4
	// SourceEnergy is the hot inlet's specific energy.
	SourceEnergy = 25.0
	// PipeWidth is the pipe's cross-section (1/10 of the domain side,
	// matching the Fig. 3 aspect).
	PipeWidth = 10.0
)

// CrookedPipeDeck builds the §V-B strong-scaling workload at nx × ny
// cells: a dense cold wall material, a kinked low-density pipe traversing
// the domain left to right, and a hot source at the pipe inlet. The mesh
// resolution is the only parameter — the paper sweeps it up to 4000×4000
// (Fig. 4) and fixes 4000×4000 for the scaling studies (Figs. 5–8).
func CrookedPipeDeck(nx, ny int) *deck.Deck {
	d := deck.Default()
	d.XCells, d.YCells = nx, ny
	d.XMin, d.XMax = 0, DomainSize
	d.YMin, d.YMax = 0, DomainSize
	d.InitialTimestep = 0.04
	d.EndTime = 15.0
	d.EndStep = 375
	d.Solver = "ppcg"
	// TeaLeaf's "density" mode: face coefficient = mean of 1/ρ — the
	// low-density pipe is the fast conduction path (§V-B).
	d.Coefficient = "density"
	d.Eps = 1e-10

	w := PipeWidth / 2 // half-width
	const (
		inY  = 0.7 * DomainSize // inlet elevation
		midY = 0.3 * DomainSize // lower leg elevation
		x1   = 0.3 * DomainSize // first kink
		x2   = 0.7 * DomainSize // second kink
	)
	rect := func(idx int, den, en, xmin, xmax, ymin, ymax float64) deck.State {
		return deck.State{
			Index: idx, Density: den, Energy: en,
			Geometry: deck.GeomRectangle,
			XMin:     xmin, XMax: xmax, YMin: ymin, YMax: ymax,
		}
	}
	d.States = []deck.State{
		{Index: 1, Density: WallDensity, Energy: ColdEnergy},
		// The kinked pipe: left inlet leg, down-leg, bottom leg, up-leg,
		// right outlet leg. Segments overlap at the elbows.
		rect(2, PipeDensity, ColdEnergy, 0, x1+w, inY-w, inY+w),
		rect(3, PipeDensity, ColdEnergy, x1-w, x1+w, midY-w, inY+w),
		rect(4, PipeDensity, ColdEnergy, x1-w, x2+w, midY-w, midY+w),
		rect(5, PipeDensity, ColdEnergy, x2-w, x2+w, midY-w, inY+w),
		rect(6, PipeDensity, ColdEnergy, x2-w, DomainSize, inY-w, inY+w),
		// Hot source plugging the inlet.
		rect(7, PipeDensity, SourceEnergy, 0, 0.05*DomainSize, inY-w, inY+w),
	}
	return d
}

// StiffDeck is the near-steady stiff benchmark: uniform unit density on
// a unit domain with Δt = 10, so the per-step operator A = I + Δt·L has
// Δt·λ₂(L) ≫ 1 and the smooth low-energy subdomain modes are genuine
// spectral outliers. This is the regime where subdomain deflation
// (tl_use_deflation; §VII future work) pays — deflated CG needs
// substantially fewer iterations than plain CG here, while on the
// production-Δt decks the low modes sit at 1+ε and deflation is neutral.
func StiffDeck(n int) *deck.Deck {
	d := deck.Default()
	d.XCells, d.YCells = n, n
	d.XMin, d.XMax = 0, 1
	d.YMin, d.YMax = 0, 1
	d.InitialTimestep = 10
	d.EndStep = 2
	d.EndTime = 20
	d.Solver = "cg"
	d.Coefficient = "density"
	d.Eps = 1e-9
	d.States = []deck.State{
		{Index: 1, Density: 1, Energy: 0.1},
		// Hot corner quarter: a right-hand side rich in the smooth modes
		// deflation removes.
		{Index: 2, Density: 1, Energy: 1, Geometry: deck.GeomRectangle,
			XMin: 0, XMax: 0.25, YMin: 0, YMax: 0.25},
	}
	return d
}

// BenchmarkDeck is the stock tea.in two-state benchmark (the tea_bm
// series): background of dense cold material with one hot low-density
// rectangle in the corner. Useful as a quick-running validation problem.
func BenchmarkDeck(n int) *deck.Deck {
	d := deck.Default()
	d.XCells, d.YCells = n, n
	// The stock benchmark uses the original 10×10 domain (stiffer than
	// the rescaled crooked pipe — it exists to exercise solvers hard at
	// small mesh sizes).
	d.XMin, d.XMax = 0, 10
	d.YMin, d.YMax = 0, 10
	d.InitialTimestep = 0.004
	d.EndTime = 0.02
	d.EndStep = 5
	d.Solver = "cg"
	d.Coefficient = "density"
	d.Eps = 1e-10
	d.States = []deck.State{
		{Index: 1, Density: 100, Energy: 0.0001},
		{Index: 2, Density: 0.1, Energy: 25, Geometry: deck.GeomRectangle,
			XMin: 0, XMax: 1, YMin: 1, YMax: 3},
	}
	return d
}

// StiffDeck3D is the 3D twin of StiffDeck: uniform unit density on the
// unit cube with Δt = 10, putting the per-step operator A = I + Δt·L deep
// in the near-steady regime where the smooth subdomain modes are genuine
// spectral outliers and deflation pays. The hot corner octant makes the
// right-hand side rich in exactly those modes.
func StiffDeck3D(n int) *deck.Deck {
	d := deck.Default()
	d.Dims = 3
	d.XCells, d.YCells, d.ZCells = n, n, n
	d.XMin, d.XMax = 0, 1
	d.YMin, d.YMax = 0, 1
	d.ZMin, d.ZMax = 0, 1
	d.InitialTimestep = 10
	d.EndStep = 2
	d.EndTime = 20
	d.Solver = "cg"
	d.Coefficient = "density"
	d.Eps = 1e-9
	d.States = []deck.State{
		{Index: 1, Density: 1, Energy: 0.1},
		{Index: 2, Density: 1, Energy: 1, Geometry: deck.GeomRectangle,
			XMin: 0, XMax: 0.25, YMin: 0, YMax: 0.25, ZMin: 0, ZMax: 0.25},
	}
	return d
}

// BenchmarkDeck3D is the 3D extension of the stock two-state benchmark: a
// dense cold background with one hot low-density box in the corner, on a
// 10×10×10 domain. The solver default is PPCG — the configuration the 3D
// scaling experiment sweeps.
func BenchmarkDeck3D(n int) *deck.Deck {
	d := deck.Default()
	d.Dims = 3
	d.XCells, d.YCells, d.ZCells = n, n, n
	d.XMin, d.XMax = 0, 10
	d.YMin, d.YMax = 0, 10
	d.ZMin, d.ZMax = 0, 10
	d.InitialTimestep = 0.004
	d.EndTime = 0.02
	d.EndStep = 5
	d.Solver = "ppcg"
	d.Precond = "jac_diag"
	d.Coefficient = "density"
	d.Eps = 1e-10
	d.States = []deck.State{
		{Index: 1, Density: 100, Energy: 0.0001},
		{Index: 2, Density: 0.1, Energy: 25, Geometry: deck.GeomRectangle,
			XMin: 0, XMax: 1, YMin: 1, YMax: 3, ZMin: 1, ZMax: 3},
	}
	return d
}
