package solver_test

import (
	"fmt"
	"log"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/precond"
	"tealeaf/internal/solver"
	"tealeaf/internal/stencil"
)

// ExampleSolve shows the smallest complete stand-alone solve: build a
// matrix-free operator over a density field, pick an algorithm, and run
// A·u = rhs to a relative tolerance. With no Comm option the solve is
// single-rank; passing a comm.RankComm or comm.TCP runs the identical
// code distributed.
func ExampleSolve() {
	// A 32x32 unit-square grid with a 2-cell halo (enough for the
	// operator build plus classic depth-1 exchanges).
	g := grid.UnitGrid(32, 32, 1, 2)

	// Uniform density, a hot square patch as the right-hand side.
	den := grid.NewField(g)
	rhs := grid.NewField(g)
	for k := 0; k < g.NY; k++ {
		for j := 0; j < g.NX; j++ {
			den.Set(j, k, 1.0)
			if j >= 8 && j < 16 && k >= 8 && k < 16 {
				rhs.Set(j, k, 10.0)
			} else {
				rhs.Set(j, k, 1.0)
			}
		}
	}
	den.ReflectHalos(g.Halo) // coefficients read one cell into the halo

	// The implicit heat operator A = I + dt·L with conductivity = density
	// and zero-flux physical boundaries on all four sides.
	op, err := stencil.BuildOperator(par.Serial, den, 0.04, stencil.Conductivity, grid.AllSides)
	if err != nil {
		log.Fatal(err)
	}

	// Solve with point-Jacobi preconditioned CG. U is the initial guess
	// on entry and the solution on exit.
	p := solver.Problem{Op: op, U: rhs.Clone(), RHS: rhs}
	res, err := solver.Solve(solver.KindCG, p, solver.Options{
		Tol:     1e-10,
		Precond: precond.NewJacobi(par.Serial, op),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converged: %v (relative residual <= 1e-10: %v)\n",
		res.Converged, res.FinalResidual <= 1e-10)
	// Output:
	// converged: true (relative residual <= 1e-10: true)
}
