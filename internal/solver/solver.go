// Package solver implements TeaLeaf's stand-alone matrix-free iterative
// solvers (§II of the paper): Jacobi, CG, Chebyshev, and the
// communication-avoiding Chebyshev Polynomially Preconditioned CG
// (PPCG/CPPCG, §III) with optional block-Jacobi preconditioning, the
// matrix-powers deep-halo kernel (§IV-C), and subdomain deflation as a
// composable outer projector (§VII future work).
//
// Every solver runs the same code path single-rank and distributed: all
// neighbour data flows through comm.Communicator.Exchange and every global
// scalar through AllReduceSum, so the communication structure the paper
// analyses is explicit in the code and recorded in the run's stats.Trace.
//
// The iteration bodies are dimension-agnostic: loops.go holds the single
// implementation of each solver loop, written against the system in
// system.go, and the entry points (SolveCG, SolvePPCG, ...) are thin
// constructors. A 2D problem is the flat case of a 3D one: the same
// loops run both, the operator choosing its 5- or 7-point row kernels.
package solver

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"tealeaf/internal/comm"
	"tealeaf/internal/eigen"
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/precond"
	"tealeaf/internal/stencil"
)

// Kind names a solver algorithm.
type Kind string

// The solver algorithms TeaLeaf integrates.
const (
	KindJacobi Kind = "jacobi"
	KindCG     Kind = "cg"
	KindCheby  Kind = "chebyshev"
	KindPPCG   Kind = "ppcg"
)

// ParseKind maps a TeaLeaf input-deck solver name to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "jacobi", "tl_use_jacobi":
		return KindJacobi, nil
	case "cg", "tl_use_cg":
		return KindCG, nil
	case "chebyshev", "cheby", "tl_use_chebyshev":
		return KindCheby, nil
	case "ppcg", "cppcg", "tl_use_ppcg":
		return KindPPCG, nil
	}
	return "", fmt.Errorf("solver: unknown solver %q", s)
}

// Deflator is the outer deflation projector Options.Deflation carries,
// satisfied by *deflate.Deflation (the contract is defined here rather
// than importing internal/deflate so any coarse-space projector can be
// composed in): CoarseCorrect applies u += W·E⁻¹·Wᵀ·r, zeroing the
// deflation-space component of the residual; ProjectW applies
// w ← P·w = w − A·W·E⁻¹·Wᵀ·w in place. Both are collective: in a
// distributed solve every rank must reach them together (each performs
// exactly one reduction round through the solve's communicator).
type Deflator interface {
	CoarseCorrect(r, u *grid.Field)
	ProjectW(w *grid.Field)
}

// Problem is one linear solve A·u = rhs on a rank-local grid. U holds the
// initial guess on entry and the solution on exit. The operator's
// coefficient fields must be valid over the padded region (see
// stencil.BuildOperator), and RHS over the interior. The same code runs
// single-rank (comm.Serial) and distributed, on a flat grid or a 3D one.
type Problem struct {
	Op  *stencil.Operator
	U   *grid.Field
	RHS *grid.Field
}

// Options configures a solve. The zero value picks TeaLeaf-like defaults;
// see the field comments.
type Options struct {
	// Tol is the relative residual tolerance ‖r‖₂/‖r₀‖₂ (default 1e-10).
	Tol float64
	// MaxIters bounds the outer iterations (default 10000).
	MaxIters int
	// Pool is the node-level thread team (default par.Serial).
	Pool *par.Pool
	// Comm is the rank communicator (default a fresh comm.Serial).
	Comm comm.Communicator
	// Precond is the inner preconditioner M (default identity). For PPCG
	// this is the preconditioner applied inside the Chebyshev smoothing
	// steps, as in TeaLeaf.
	Precond precond.Preconditioner
	// Deflation composes subdomain deflation (the §VII future-work
	// direction) as an outer projector around the CG or PPCG solve:
	// the Krylov iteration runs on P·A with the low-energy subdomain
	// modes projected out, and coarse corrections before/after the loop
	// recover them exactly. Build one with deflate.New over the solve
	// operator (*deflate.Deflation satisfies Deflator); the projector is
	// fully distributed — restriction and prolongation are rank-local and
	// each projection costs one extra reduction round per iteration,
	// on the fused and classic engines alike.
	Deflation Deflator
	// EigenCGIters is the number of bootstrap CG iterations used to
	// estimate the extremal eigenvalues before Chebyshev/PPCG take over
	// (default 20; §III-D). The Chebyshev solver re-bootstraps with twice
	// as many iterations when its residual-growth guard detects a
	// divergent λmax underestimate (see Result.Rebootstraps).
	EigenCGIters int
	// InnerSteps is the PPCG Chebyshev inner-step count per outer
	// iteration (default 10, TeaLeaf's tl_ppcg_inner_steps).
	InnerSteps int
	// HaloDepth is the matrix-powers exchange depth (default 1 = classic
	// exchange-per-application; §IV-C2). Depth d > 1 drives the PPCG inner
	// Chebyshev smoothing's powers schedule AND the fused/pipelined CG
	// engines' deep-halo cycle (one depth-d exchange of the recurrence
	// vectors per d iterations, sweeps on extended bounds), including
	// deflated solves — iterates are unchanged from depth 1 to within
	// round-off. It is incompatible with preconditioners whose registry
	// entry is not deep-halo compatible (jac_block),
	// and the classic (unfused) CG loop ignores it.
	HaloDepth int
	// Engine selects the CG engine (see Engine; the zero value is
	// EngineFused). EnginePipelined is tl_pipelined. The fused and
	// pipelined engines need a diagonal-foldable preconditioner, and a
	// folded non-identity one needs grid halo >= 2 on multi-rank runs;
	// otherwise the solve falls back to EngineClassic and says so in
	// Result.Plan. Deflated solves run on every engine: fused and classic
	// project the matvec result, pipelined projects after its split-phase
	// round finishes (no other collective may run while it is in flight).
	Engine Engine
	// CheckEvery is the Chebyshev convergence-test cadence in iterations
	// (default 10): the stand-alone Chebyshev solver is reduction-free
	// except for these periodic checks.
	CheckEvery int
}

func (o Options) withDefaults() Options {
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 10000
	}
	if o.Pool == nil {
		o.Pool = par.Serial
	}
	if o.Comm == nil {
		o.Comm = comm.NewSerial()
	}
	if o.Precond == nil {
		o.Precond = precond.NewNone()
	}
	if o.EigenCGIters <= 0 {
		o.EigenCGIters = 20
	}
	if o.InnerSteps <= 0 {
		o.InnerSteps = 10
	}
	if o.HaloDepth <= 0 {
		o.HaloDepth = 1
	}
	if o.CheckEvery <= 0 {
		o.CheckEvery = 10
	}
	return o
}

// validateCommon checks the dimension-independent option constraints:
// halo depth against the grid, preconditioner capability against the
// unified registry, and the deflation composition rules.
func (o Options) validateCommon(gridHalo int, precondName string) error {
	if o.Engine < EngineFused || o.Engine > EngineClassic {
		return fmt.Errorf("solver: unknown engine %v", o.Engine)
	}
	if o.HaloDepth > gridHalo {
		return fmt.Errorf("solver: halo depth %d exceeds grid halo %d", o.HaloDepth, gridHalo)
	}
	if o.HaloDepth > 1 {
		// §IV-C2: block preconditioners need up-to-date whole strips every
		// application, which would force an exchange per inner step and
		// cancel the matrix-powers benefit. The registry's DeepHalo flag
		// records exactly that, for both dimensionalities.
		if spec, ok := precond.Lookup(precondName); ok && !spec.DeepHalo {
			var compatible []string
			for _, s := range precond.Specs() {
				if s.DeepHalo {
					compatible = append(compatible, s.Name)
				}
			}
			return fmt.Errorf("solver: preconditioner %q is incompatible with matrix-powers halo depth %d > 1 (it needs fresh strip data every application); deep-halo-compatible preconditioners: %s",
				precondName, o.HaloDepth, strings.Join(compatible, ", "))
		}
	}
	// Deflation is dimension-agnostic and distributed; the only remaining
	// rule is that the projector's dimensionality must match the solve's.
	return nil
}

func (o Options) validate(p Problem) error {
	if p.Op == nil || p.U == nil || p.RHS == nil {
		return errors.New("solver: problem needs operator, solution and RHS fields")
	}
	g := p.Op.Grid
	if p.U.Grid != g || p.RHS.Grid != g {
		return errors.New("solver: all problem fields must share the operator's grid")
	}
	return o.validateCommon(g.Halo, o.Precond.Name())
}

// ErrBreakdown reports that a Krylov solver observed a non-positive (or
// NaN) curvature scalar at startup — the operator or preconditioner is
// not positive definite as seen from the initial residual, so no
// iteration can proceed. In-loop breakdowns (conjugacy lost after useful
// progress) do not error; they stop the iteration and set
// Result.Breakdown, like TeaLeaf's pw == 0 guard.
var ErrBreakdown = errors.New("solver: lost positive definiteness (breakdown)")

// Result reports a solve's outcome and the op counts the scaling model
// consumes.
type Result struct {
	// Converged reports whether the tolerance was met within MaxIters.
	Converged bool
	// Breakdown reports that the iteration stopped early because a
	// curvature or conjugacy scalar lost positivity (see ErrBreakdown).
	// FinalResidual still holds the best residual reached, so callers can
	// distinguish "diverged" from "broke down after partial progress".
	Breakdown bool
	// Iterations is the number of outer iterations, including any
	// eigenvalue-bootstrap CG iterations.
	Iterations int
	// BootstrapIters is the CG iterations spent estimating eigenvalues
	// (Chebyshev/PPCG only), across all bootstrap attempts.
	BootstrapIters int
	// Rebootstraps counts Chebyshev bootstrap retries: the residual-growth
	// guard detected a divergent λmax underestimate and re-ran the CG
	// bootstrap with twice the iterations (§III-D robustness).
	Rebootstraps int
	// TotalInner is the total Chebyshev inner steps (PPCG) or main
	// Chebyshev iterations (Chebyshev solver).
	TotalInner int
	// FinalResidual is the final relative residual ‖r‖/‖r₀‖.
	FinalResidual float64
	// History is the relative residual after each outer iteration (as
	// observed by the solver; the Chebyshev solver only samples it every
	// CheckEvery iterations).
	History []float64
	// Alphas, Betas are the recorded CG step scalars (CG and the
	// bootstrap phase of Chebyshev/PPCG); they define the Lanczos matrix.
	Alphas, Betas []float64
	// Eigen is the extremal eigenvalue estimate used (Chebyshev/PPCG).
	Eigen *eigen.Estimate
	// Plan is the engine configuration the solve resolved and ran
	// (CG, Chebyshev and PPCG), with every fallback it took.
	Plan Plan
}

// isNone reports whether m is the identity preconditioner.
func isNone(m precond.Preconditioner) bool {
	_, ok := m.(precond.None)
	return ok
}

// Solve dispatches on kind.
func Solve(kind Kind, p Problem, o Options) (Result, error) {
	switch kind {
	case KindJacobi:
		return SolveJacobi(p, o)
	case KindCG:
		return SolveCG(p, o)
	case KindCheby:
		return SolveChebyshev(p, o)
	case KindPPCG:
		return SolvePPCG(p, o)
	}
	return Result{}, fmt.Errorf("solver: unknown kind %q", kind)
}

// requireNoDeflation rejects deflation for the solver kinds it does not
// compose with: CG and PPCG run on the projected operator (flat or 3D,
// single- or multi-rank); Jacobi and the stand-alone Chebyshev iteration
// do not.
func (o Options) requireNoDeflation(kind Kind) error {
	if o.Deflation != nil {
		return fmt.Errorf("solver: deflation composes with the cg and ppcg solvers only (got %s); drop tl_use_deflation or switch to tl_use_cg / tl_use_ppcg", kind)
	}
	return nil
}

// relResidual converts a squared norm and baseline into a relative
// residual, guarding the zero-RHS case.
func relResidual(rr, rr0 float64) float64 {
	if rr0 == 0 {
		return 0
	}
	return math.Sqrt(rr / rr0)
}
