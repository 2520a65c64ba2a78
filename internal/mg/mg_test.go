package mg

import (
	"math"
	"math/rand"
	"testing"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/precond"
	"tealeaf/internal/solver"
	"tealeaf/internal/stencil"
)

func buildDensity(n int, seed int64) *grid.Field {
	g := grid.MustGrid(n, n, 1, 2, 0, 10, 0, 10, 0, 1)
	d := grid.NewField(g)
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			d.Set(j, k, 1+rng.Float64()*4)
		}
	}
	d.ReflectHalos(g.Halo)
	return d
}

func buildRHS(g *grid.Grid) *grid.Field {
	rhs := grid.NewField(g)
	for k := 0; k < g.NY; k++ {
		for j := 0; j < g.NX; j++ {
			v := 0.1
			if j < g.NX/3 && k > g.NY/2 {
				v = 5
			}
			rhs.Set(j, k, v)
		}
	}
	return rhs
}

func TestBuildHierarchyDepth(t *testing.T) {
	den := buildDensity(64, 1)
	h, err := Build(par.Serial, den, 0.04, stencil.Conductivity, Options{MinSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	// 64 → 32 → 16 → 8: four levels.
	if h.Levels() != 4 {
		t.Errorf("levels = %d, want 4", h.Levels())
	}
	cells := h.LevelCells()
	if cells[0] != 64*64 || cells[3] != 8*8 {
		t.Errorf("level cells = %v", cells)
	}
	if h.SetupWork <= int64(64*64) {
		t.Error("setup work must include coarse levels")
	}
	if h.Name() != "mg_vcycle" {
		t.Error("name")
	}
}

func TestBuildOddSizeStopsCoarsening(t *testing.T) {
	den := buildDensity(48, 2) // 48 → 24 → 12 → stop (12/2=6 < 8)
	h, err := Build(par.Serial, den, 0.04, stencil.Conductivity, Options{MinSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if h.Levels() != 3 {
		t.Errorf("levels = %d, want 3", h.Levels())
	}
	// Odd grid: single level.
	den2 := buildDensity(31, 3)
	h2, err := Build(par.Serial, den2, 0.04, stencil.Conductivity, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if h2.Levels() != 1 {
		t.Errorf("odd grid levels = %d, want 1", h2.Levels())
	}
}

func TestTransfersAdjoint(t *testing.T) {
	// <R f, c>_coarse · 4 == <f, P c>_fine  (R = ¼ Pᵀ for PC/FW pair).
	fg := grid.MustGrid(16, 16, 1, 1, 0, 1, 0, 1, 0, 1)
	cgr := grid.MustGrid(8, 8, 1, 1, 0, 1, 0, 1, 0, 1)
	rng := rand.New(rand.NewSource(4))
	f := grid.NewField(fg)
	c := grid.NewField(cgr)
	for i := range f.Data {
		f.Data[i] = rng.Float64()
	}
	for i := range c.Data {
		c.Data[i] = rng.Float64()
	}
	rf := grid.NewField(cgr)
	restrictFW(f, rf)
	pc := grid.NewField(fg)
	prolongPC(c, pc)
	var lhs, rhs float64
	for k := 0; k < 8; k++ {
		for j := 0; j < 8; j++ {
			lhs += rf.At(j, k) * c.At(j, k)
		}
	}
	for k := 0; k < 16; k++ {
		for j := 0; j < 16; j++ {
			rhs += f.At(j, k) * pc.At(j, k)
		}
	}
	if math.Abs(4*lhs-rhs) > 1e-10*math.Max(1, math.Abs(rhs)) {
		t.Errorf("transfers not adjoint: 4<Rf,c>=%v, <f,Pc>=%v", 4*lhs, rhs)
	}
}

func TestRestrictionPreservesConstants(t *testing.T) {
	fg := grid.MustGrid(8, 8, 1, 1, 0, 1, 0, 1, 0, 1)
	cgr := grid.MustGrid(4, 4, 1, 1, 0, 1, 0, 1, 0, 1)
	f := grid.NewField(fg)
	f.FillBounds(fg.Interior(), 3.5)
	c := grid.NewField(cgr)
	restrictFW(f, c)
	for k := 0; k < 4; k++ {
		for j := 0; j < 4; j++ {
			if c.At(j, k) != 3.5 {
				t.Fatalf("restriction broke constant at (%d,%d): %v", j, k, c.At(j, k))
			}
		}
	}
	// Prolongation too.
	f2 := grid.NewField(fg)
	prolongPC(c, f2)
	for k := 0; k < 8; k++ {
		for j := 0; j < 8; j++ {
			if f2.At(j, k) != 3.5 {
				t.Fatalf("prolongation broke constant")
			}
		}
	}
}

func TestSolveMGConverges(t *testing.T) {
	den := buildDensity(64, 5)
	h, err := Build(par.Serial, den, 0.04, stencil.Conductivity, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := den.Grid
	rhs := buildRHS(g)
	u := rhs.Clone()
	iters, rel, ok := h.SolveMG(u, rhs, 1e-10, 100)
	if !ok {
		t.Fatalf("MG did not converge: %d iters, rel %v", iters, rel)
	}
	if iters > 60 {
		t.Errorf("MG took %d V-cycles; expected mesh-independent fast convergence", iters)
	}
}

func TestMGIterationCountMeshIndependent(t *testing.T) {
	// The property that makes AMG-class methods win at low node counts:
	// V-cycle counts barely grow with mesh size (while CG grows ∝ n).
	counts := map[int]int{}
	for _, n := range []int{32, 64, 128} {
		den := buildDensity(n, int64(n))
		h, err := Build(par.Serial, den, 0.04, stencil.Conductivity, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rhs := buildRHS(den.Grid)
		u := rhs.Clone()
		iters, _, ok := h.SolveMG(u, rhs, 1e-8, 200)
		if !ok {
			t.Fatalf("n=%d did not converge", n)
		}
		counts[n] = iters
	}
	if counts[128] > 3*counts[32]+5 {
		t.Errorf("V-cycle count grows too fast with mesh: %v", counts)
	}
}

func TestMGAsPreconditionerForCG(t *testing.T) {
	// The Fig. 7 baseline configuration: CG + MG preconditioner must
	// converge in far fewer iterations than plain CG.
	den := buildDensity(64, 7)
	h, err := Build(par.Serial, den, 0.04, stencil.Conductivity, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := den.Grid
	op, err := stencil.BuildOperator(par.Serial, den, 0.04, stencil.Conductivity, grid.AllSides)
	if err != nil {
		t.Fatal(err)
	}
	rhs := buildRHS(g)

	var m precond.Preconditioner = h // interface satisfaction check
	pm := solver.Problem{Op: op, U: rhs.Clone(), RHS: rhs}
	resMG, err := solver.SolveCG(pm, solver.Options{Tol: 1e-10, Precond: m})
	if err != nil || !resMG.Converged {
		t.Fatalf("MG-PCG failed: %v %+v", err, resMG)
	}
	pp := solver.Problem{Op: op, U: rhs.Clone(), RHS: rhs}
	resCG, err := solver.SolveCG(pp, solver.Options{Tol: 1e-10})
	if err != nil || !resCG.Converged {
		t.Fatalf("CG failed: %v", err)
	}
	if resMG.Iterations*2 >= resCG.Iterations {
		t.Errorf("MG-PCG iterations %d not ≪ CG %d", resMG.Iterations, resCG.Iterations)
	}
	// Same answer.
	if d := pm.U.MaxDiff(pp.U); d > 1e-7 {
		t.Errorf("MG-PCG solution differs by %v", d)
	}
}

func TestApplyBoundsGuard(t *testing.T) {
	den := buildDensity(32, 8)
	h, err := Build(par.Serial, den, 0.04, stencil.Conductivity, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Apply with wrong bounds must panic")
		}
	}()
	r := grid.NewField(den.Grid)
	z := grid.NewField(den.Grid)
	h.Apply(par.Serial, grid.Bounds{X0: 0, X1: 4, Y0: 0, Y1: 4, Z0: 0, Z1: 1}, r, z)
}

func TestVCycleReducesResidual(t *testing.T) {
	den := buildDensity(64, 9)
	h, err := Build(par.Serial, den, 0.04, stencil.Conductivity, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := den.Grid
	rhs := buildRHS(g)
	u := grid.NewField(g)
	op := h.levels[0].op
	r := grid.NewField(g)
	op.Residual(par.Serial, g.Interior(), u, rhs, r)
	n0 := math.Sqrt(dotInterior(r))
	// One V-cycle.
	z := grid.NewField(g)
	h.Apply(par.Serial, g.Interior(), r, z)
	addInto(u, z, g.Interior())
	u.ReflectHalos(1)
	op.Residual(par.Serial, g.Interior(), u, rhs, r)
	n1 := math.Sqrt(dotInterior(r))
	if n1 >= 0.5*n0 {
		t.Errorf("one V-cycle only reduced residual %v -> %v", n0, n1)
	}
}
