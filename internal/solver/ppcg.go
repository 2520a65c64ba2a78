package solver

// SolvePPCG runs the paper's headline solver: CG preconditioned by a
// shifted and scaled Chebyshev polynomial (CPPCG, §III), with the
// matrix-powers kernel (§IV-C2) at HaloDepth > 1. The iteration body —
// outer PCG, inner Chebyshev smoothing, fused kernels — lives in
// solvePPCGCore in loops.go.
//
// With Options.Deflation set, the outer PCG (and its CG bootstrap) runs
// on the projected operator P·A, composing the §VII coarse-space
// projector with the polynomial preconditioner: deflation removes the
// lowest subdomain modes, the Chebyshev inner steps smooth the rest.
func SolvePPCG(p Problem, o Options) (Result, error) {
	o = o.withDefaults()
	if err := o.validate(p); err != nil {
		return Result{}, err
	}
	return solvePPCGCore(newEngine(p, o))
}
