package solver

import "tealeaf/internal/grid"

// SolveCG runs (preconditioned) conjugate gradients. With the default
// identity preconditioner this is the paper's baseline "CG - 1"
// configuration. The default engine (EngineFused) restructures the
// iteration Chronopoulos–Gear style so that one reduction round carries
// every dot product and the whole iteration is three grid sweeps; the
// classic engine keeps the seed's two reductions and five-to-seven
// sweeps, which is exactly the communication pattern whose log(P) latency
// dominates strong scaling (§III-A) and which §VII proposes to fix.
// Result.Plan reports the engine that ran and any fallback taken.
//
// With Options.Deflation set, every engine runs deflated CG: the
// iteration operates on the projected operator P·A with the coarse
// subdomain modes removed from the spectrum, and coarse corrections
// before and after the loop recover them exactly (see internal/deflate).
// The projection is fully distributed and costs one extra reduction
// round per iteration on every engine.
//
// The iteration body itself lives in loops.go (runCGCore) and is shared
// verbatim with SolveCG3D.
func SolveCG(p Problem, o Options) (Result, error) {
	o = o.withDefaults()
	if err := o.validate(p); err != nil {
		return Result{}, err
	}
	e := newEngine[*grid.Field2D, grid.Bounds](newSys2D(p, o), o, p.U, p.RHS)
	res, _, err := runCGCore(e, o.MaxIters, o.Tol)
	return res, err
}
