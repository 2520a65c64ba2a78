package solver

// SolveChebyshev runs the stand-alone Chebyshev iteration: EigenCGIters
// of CG estimate the extremal eigenvalues (§III-D), then the main loop
//
//	u ← u + p,  r ← r − A·p,  p ← α_k·p + β_k·M⁻¹r
//
// performs no global reductions at all — only halo exchanges — except for
// a convergence check every CheckEvery iterations; that communication
// profile is why Chebyshev (and its use as the CPPCG preconditioner)
// scales so well. A residual-growth guard re-bootstraps automatically
// when the eigenvalue estimate proves divergent; see solveChebyCore in
// loops.go.
func SolveChebyshev(p Problem, o Options) (Result, error) {
	o = o.withDefaults()
	if err := o.validate(p); err != nil {
		return Result{}, err
	}
	if err := o.requireNoDeflation(KindCheby); err != nil {
		return Result{}, err
	}
	return solveChebyCore(newEngine(p, o))
}
