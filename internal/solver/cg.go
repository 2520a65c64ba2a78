package solver

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
// The iteration body itself lives in loops.go (runCGCore), and runs on
// flat and 3D grids alike.
func SolveCG(p Problem, o Options) (Result, error) {
	o = o.withDefaults()
	if err := o.validate(p); err != nil {
		return Result{}, err
	}
	res, _, err := runCGCore(newEngine(p, o), o.MaxIters, o.Tol)
	return res, err
}
