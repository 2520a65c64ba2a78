package solver

import (
	"math"
	"testing"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/stencil"
)

// Smooth uniform-coefficient problems whose residual is dominated by the
// lowest modes: a short CG bootstrap's Lanczos matrix then underestimates
// λmax badly, and the resulting Chebyshev polynomial amplifies the top of
// the spectrum — the divergence ROADMAP flags for EigenCGIters < ~20.
// (Verified against the pre-guard code at commit 4670adc: the 2D case
// below runs to MaxIters with FinalResidual = +Inf.)

func smoothProblem2D(t *testing.T, n int) Problem {
	t.Helper()
	g := grid.UnitGrid(n, n, 1, 2)
	den := grid.NewField(g)
	den.Fill(1)
	den.ReflectHalos(2)
	op, err := stencil.BuildOperator(par.Serial, den, 0.5, stencil.Conductivity, grid.AllSides)
	if err != nil {
		t.Fatal(err)
	}
	rhs := grid.NewField(g)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			x := (float64(j) + 0.5) / float64(n)
			y := (float64(k) + 0.5) / float64(n)
			rhs.Set(j, k, 1+0.5*math.Sin(math.Pi*x)*math.Sin(math.Pi*y))
		}
	}
	return Problem{Op: op, U: rhs.Clone(), RHS: rhs}
}

func smoothProblem3D(t *testing.T, n int) Problem {
	t.Helper()
	g := grid.UnitGrid(n, n, n, 2)
	den := grid.NewField(g)
	den.Fill(1)
	den.ReflectHalos(2)
	op, err := stencil.BuildOperator(par.Serial, den, 0.5, stencil.Conductivity, grid.AllSides)
	if err != nil {
		t.Fatal(err)
	}
	rhs := grid.NewField(g)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				x := (float64(i) + 0.5) / float64(n)
				y := (float64(j) + 0.5) / float64(n)
				z := (float64(k) + 0.5) / float64(n)
				rhs.SetCell(i, j, k, 1+0.5*math.Sin(math.Pi*x)*math.Sin(math.Pi*y)*math.Sin(math.Pi*z))
			}
		}
	}
	return Problem{Op: op, U: rhs.Clone(), RHS: rhs}
}

// The bootstrap guard regression, 2D: with EigenCGIters well under 20 on
// the smooth problem the unguarded Chebyshev iteration diverges; the
// residual-growth guard must detect it, re-bootstrap with more CG
// iterations, and still converge — in both the fused and unfused loops.
func TestChebyBootstrapGuard2D(t *testing.T) {
	for _, eng := range []Engine{EngineFused, EngineClassic} {
		p := smoothProblem2D(t, 32)
		res, err := SolveChebyshev(p, Options{
			Tol: 1e-10, EigenCGIters: 8, MaxIters: 2000, Engine: eng,
		})
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if !res.Converged {
			t.Fatalf("%v: did not converge: %+v", eng, res)
		}
		if res.Rebootstraps < 1 {
			t.Errorf("%v: guard did not fire (Rebootstraps=0) — the λmax underestimate went undetected", eng)
		}
		if rr := trueRelResidual(t, p); rr > 1e-8 {
			t.Errorf("%v: true residual %v", eng, rr)
		}
		t.Logf("%v: converged in %d iterations after %d re-bootstrap(s)",
			eng, res.Iterations, res.Rebootstraps)
	}
}

// The same regression in 3D, plus the negative control: with a healthy
// bootstrap (EigenCGIters = 25) the guard must stay silent.
func TestChebyBootstrapGuard3D(t *testing.T) {
	p := smoothProblem3D(t, 16)
	res, err := SolveChebyshev(p, Options{Tol: 1e-10, EigenCGIters: 8, MaxIters: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if res.Rebootstraps < 1 {
		t.Error("guard did not fire (Rebootstraps=0) — the λmax underestimate went undetected")
	}
	t.Logf("converged in %d iterations after %d re-bootstrap(s)", res.Iterations, res.Rebootstraps)

	healthy := smoothProblem3D(t, 16)
	res, err = SolveChebyshev(healthy, Options{Tol: 1e-10, EigenCGIters: 25, MaxIters: 2000})
	if err != nil || !res.Converged {
		t.Fatalf("healthy bootstrap: %v %+v", err, res)
	}
	if res.Rebootstraps != 0 {
		t.Errorf("guard fired on a healthy bootstrap (%d re-bootstraps)", res.Rebootstraps)
	}
}
