package solver

import "tealeaf/internal/grid"

// SolveJacobi runs the point-Jacobi fixed-point iteration
//
//	u⁺(j,k) = (rhs(j,k) + Σ K·u(neighbours)) / diag(j,k),
//
// TeaLeaf's simplest solver. Convergence is monitored the way TeaLeaf
// does: the global L1 norm of the update Σ|u⁺−u|, relative to the first
// sweep's value, plus a final true-residual measurement for the Result.
// The sweep is the operator's (stencil.Operator.JacobiSweep), 5-point on
// a flat grid and 7-point in 3D.
func SolveJacobi(p Problem, o Options) (Result, error) {
	o = o.withDefaults()
	if err := o.validate(p); err != nil {
		return Result{}, err
	}
	if err := o.requireNoDeflation(KindJacobi); err != nil {
		return Result{}, err
	}
	e := newEngine(p, o)
	g := p.Op.Grid
	in := e.in
	var result Result
	un := grid.NewField(g)

	var err0 float64
	for it := 0; it < o.MaxIters; it++ {
		if err := e.exchange(1, p.U); err != nil {
			return result, err
		}
		un.CopyFrom(p.U)
		e.vectorPass(in)

		localErr := p.Op.JacobiSweep(o.Pool, in, un, p.RHS, p.U)
		e.tr.AddMatvec(in.Cells())
		e.tr.AddDot(in.Cells())
		gerr := e.reduce(localErr)
		result.Iterations++
		if it == 0 {
			err0 = gerr
			if err0 == 0 {
				result.Converged = true
				break
			}
		}
		rel := gerr / err0
		result.History = append(result.History, rel)
		if rel <= o.Tol {
			result.Converged = true
			break
		}
	}

	// True relative residual for reporting (one extra matvec + reduction).
	r := grid.NewField(g)
	rr, err := e.initialResidual(p.U, p.RHS, r)
	if err != nil {
		return result, err
	}
	rhs2 := e.dot(p.RHS, p.RHS)
	result.FinalResidual = relResidual(rr, rhs2)
	return result, nil
}
