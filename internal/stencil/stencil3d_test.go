package stencil

import (
	"math"
	"math/rand"
	"testing"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
)

func randomDensity3D(g *grid.Grid, seed int64) *grid.Field {
	d := grid.NewField(g)
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				d.SetCell(i, j, k, 0.1+rng.Float64()*5)
			}
		}
	}
	d.ReflectHalos(g.Halo)
	return d
}

func randomField3D(g *grid.Grid, seed int64) *grid.Field {
	f := grid.NewField(g)
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				f.SetCell(i, j, k, rng.Float64()*2-1)
			}
		}
	}
	return f
}

func dot3D(a, b *grid.Field) float64 {
	g := a.Grid
	var s float64
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				s += a.Cell(i, j, k) * b.Cell(i, j, k)
			}
		}
	}
	return s
}

func TestBuild3DValidation(t *testing.T) {
	g := grid.UnitGrid(4, 4, 4, 1)
	d := randomDensity3D(g, 1)
	if _, err := BuildOperator(par.Serial, d, -1, Conductivity, grid.AllSides); err == nil {
		t.Error("negative dt must error")
	}
	if _, err := BuildOperator(par.Serial, d, 0.1, Coefficient(0), grid.AllSides); err == nil {
		t.Error("bad coefficient must error")
	}
	bad := randomDensity3D(g, 2)
	bad.SetCell(0, 0, 0, 0)
	bad.ReflectHalos(1)
	if _, err := BuildOperator(par.Serial, bad, 0.1, Conductivity, grid.AllSides); err == nil {
		t.Error("zero density must error")
	}
}

func TestOperator3DRowSumsOne(t *testing.T) {
	g := grid.UnitGrid(6, 5, 4, 1)
	op, err := BuildOperator(par.Serial, randomDensity3D(g, 3), 0.05, RecipConductivity, grid.AllSides)
	if err != nil {
		t.Fatal(err)
	}
	ones := grid.NewField(g)
	ones.Fill(1)
	w := grid.NewField(g)
	op.Apply(par.Serial, g.Interior(), ones, w)
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				if math.Abs(w.Cell(i, j, k)-1) > 1e-13 {
					t.Fatalf("row sum at (%d,%d,%d) = %v", i, j, k, w.Cell(i, j, k))
				}
			}
		}
	}
}

func TestOperator3DSymmetricPositive(t *testing.T) {
	g := grid.UnitGrid(5, 5, 5, 1)
	op, err := BuildOperator(par.Serial, randomDensity3D(g, 4), 0.03, Conductivity, grid.AllSides)
	if err != nil {
		t.Fatal(err)
	}
	p := randomField3D(g, 5)
	q := randomField3D(g, 6)
	ap := grid.NewField(g)
	aq := grid.NewField(g)
	op.Apply(par.Serial, g.Interior(), p, ap)
	op.Apply(par.Serial, g.Interior(), q, aq)
	lhs, rhs := dot3D(ap, q), dot3D(p, aq)
	if math.Abs(lhs-rhs) > 1e-12*math.Max(1, math.Abs(lhs)) {
		t.Errorf("asymmetric: %v vs %v", lhs, rhs)
	}
	if pap := dot3D(p, ap); pap <= 0 {
		t.Errorf("<p,Ap> = %v, want > 0", pap)
	}
}

func TestApplyDot3DMatches(t *testing.T) {
	g := grid.UnitGrid(6, 6, 6, 1)
	op, err := BuildOperator(par.Serial, randomDensity3D(g, 7), 0.02, Conductivity, grid.AllSides)
	if err != nil {
		t.Fatal(err)
	}
	p := randomField3D(g, 8)
	w1 := grid.NewField(g)
	w2 := grid.NewField(g)
	op.Apply(par.Serial, g.Interior(), p, w1)
	want := dot3D(p, w1)
	got := op.ApplyDot(par.Serial, g.Interior(), p, w2)
	if math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
		t.Errorf("ApplyDot = %v, want %v", got, want)
	}
	if w1.MaxDiff(w2) > 1e-14 {
		t.Error("fused w differs")
	}
}

func TestResidual3D(t *testing.T) {
	g := grid.UnitGrid(4, 4, 4, 1)
	op, err := BuildOperator(par.Serial, randomDensity3D(g, 9), 0.04, Conductivity, grid.AllSides)
	if err != nil {
		t.Fatal(err)
	}
	u := randomField3D(g, 10)
	rhs := randomField3D(g, 11)
	r := grid.NewField(g)
	op.Residual(par.Serial, g.Interior(), u, rhs, r)
	au := grid.NewField(g)
	op.Apply(par.Serial, g.Interior(), u, au)
	for k := 0; k < 4; k++ {
		for j := 0; j < 4; j++ {
			for i := 0; i < 4; i++ {
				if math.Abs(r.Cell(i, j, k)+au.Cell(i, j, k)-rhs.Cell(i, j, k)) > 1e-13 {
					t.Fatal("3D residual identity broken")
				}
			}
		}
	}
}

func TestApplyDot23DMatches(t *testing.T) {
	g, err := grid.NewGrid3D(9, 7, 6, 1, 0, 1, 0, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	op, err := BuildOperator(par.Serial, randomDensity3D(g, 41), 0.05, Conductivity, grid.AllSides)
	if err != nil {
		t.Fatal(err)
	}
	p := randomField3D(g, 42)
	p.ReflectHalos(1)
	w1 := grid.NewField(g)
	op.Apply(par.Serial, g.Interior(), p, w1)
	wantPW := dot3D(p, w1)
	wantWW := dot3D(w1, w1)
	for _, workers := range []int{1, 2, 4, 7} {
		pool := par.NewPool(workers).WithGrain(1)
		w2 := grid.NewField(g)
		pw, ww := op.ApplyDot2(pool, g.Interior(), p, w2)
		if math.Abs(pw-wantPW) > 1e-12*math.Max(1, math.Abs(wantPW)) ||
			math.Abs(ww-wantWW) > 1e-12*math.Max(1, math.Abs(wantWW)) {
			t.Errorf("workers=%d: ApplyDot2 = (%v,%v), want (%v,%v)", workers, pw, ww, wantPW, wantWW)
		}
		if w1.MaxDiff(w2) > 1e-13 {
			t.Errorf("workers=%d: fused w differs", workers)
		}
	}
}

func TestApplyPreDot3DMatchesComposed(t *testing.T) {
	g := grid.UnitGrid(7, 6, 5, 2)
	op, err := BuildOperator(par.Serial, randomDensity3D(g, 50), 0.05, Conductivity, grid.AllSides)
	if err != nil {
		t.Fatal(err)
	}
	in := g.Interior()
	// A synthetic diagonal scaling, valid over the padded region.
	minv := grid.NewField(g)
	rng := rand.New(rand.NewSource(51))
	for i := range minv.Data {
		minv.Data[i] = 0.5 + rng.Float64()
	}
	r := randomField3D(g, 52)
	r.ReflectHalos(1)
	// Reference: u = minv ⊙ r materialised, then w = A·u, δ = u·w.
	u := grid.NewField(g)
	for i := range u.Data {
		u.Data[i] = minv.Data[i] * r.Data[i]
	}
	wRef := grid.NewField(g)
	op.Apply(par.Serial, in, u, wRef)
	wantDelta := dot3D(u, wRef)

	for _, workers := range []int{1, 2, 4} {
		pool := par.NewPool(workers).WithGrain(1)
		w := grid.NewField(g)
		delta := op.ApplyPreDot(pool, in, minv, r, w)
		if math.Abs(delta-wantDelta) > 1e-12*math.Max(1, math.Abs(wantDelta)) {
			t.Errorf("workers=%d: ApplyPreDot δ = %v, want %v", workers, delta, wantDelta)
		}
		if wRef.MaxDiff(w) > 1e-13 {
			t.Errorf("workers=%d: fused w differs by %v", workers, wRef.MaxDiff(w))
		}
		ga, de, rr := op.ApplyPreDotInit(pool, in, minv, r, w)
		if math.Abs(ga-dot3D(r, u)) > 1e-12*math.Abs(dot3D(r, u)) ||
			math.Abs(de-wantDelta) > 1e-12*math.Max(1, math.Abs(wantDelta)) ||
			math.Abs(rr-dot3D(r, r)) > 1e-12*dot3D(r, r) {
			t.Errorf("workers=%d: ApplyPreDotInit = (%v,%v,%v)", workers, ga, de, rr)
		}
		pool.Close()
	}
}

func TestDiagonal3DRowSumIdentity(t *testing.T) {
	g := grid.UnitGrid(6, 6, 6, 1)
	op, err := BuildOperator(par.Serial, randomDensity3D(g, 60), 0.04, Conductivity, grid.AllSides)
	if err != nil {
		t.Fatal(err)
	}
	d := grid.NewField(g)
	op.Diagonal(par.Serial, g.Interior(), d)
	// diag = 1 + sum of off-diagonal couplings: applying A to the
	// indicator of one interior cell must give diag at that cell.
	e := grid.NewField(g)
	e.SetCell(3, 3, 3, 1)
	w := grid.NewField(g)
	op.Apply(par.Serial, g.Interior(), e, w)
	if math.Abs(w.Cell(3, 3, 3)-d.Cell(3, 3, 3)) > 1e-14 {
		t.Errorf("diag(3,3,3) = %v, Apply gives %v", d.Cell(3, 3, 3), w.Cell(3, 3, 3))
	}
}

// A 2×1×1 rank split with exchanged density must produce, on each half,
// exactly the coefficients the global operator holds there: rank faces
// keep neighbour coupling, physical faces are zeroed.
func TestBuildOperator3DRankFacesKeepCoupling(t *testing.T) {
	g := grid.UnitGrid(8, 4, 4, 2)
	den := randomDensity3D(g, 70)
	opG, err := BuildOperator(par.Serial, den, 0.05, Conductivity, grid.AllSides)
	if err != nil {
		t.Fatal(err)
	}
	// Left half [0,4) with a live Right face.
	sub, err := g.SubExtent(grid.Extent{X0: 0, X1: 4, Y0: 0, Y1: 4, Z0: 0, Z1: 4})
	if err != nil {
		t.Fatal(err)
	}
	denL := grid.NewField(sub)
	for k := -2; k < 6; k++ {
		for j := -2; j < 6; j++ {
			for i := -2; i < 6; i++ {
				denL.SetCell(i, j, k, den.Cell(i, j, k)) // includes the neighbour's cells
			}
		}
	}
	opL, err := BuildOperator(par.Serial, denL, 0.05, Conductivity,
		grid.Sides{Left: true, Down: true, Up: true, Back: true, Front: true})
	if err != nil {
		t.Fatal(err)
	}
	// The x-face at the rank boundary (i=4 globally, i=4 locally) must
	// carry the global coupling, not zero.
	if got, want := opL.Kx.Cell(4, 2, 2), opG.Kx.Cell(4, 2, 2); math.Abs(got-want) > 1e-14 {
		t.Errorf("rank-boundary Kx = %v, want %v", got, want)
	}
	if opL.Kx.Cell(0, 2, 2) != 0 {
		t.Error("physical Left face must be zeroed")
	}
}
