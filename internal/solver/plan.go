package solver

import (
	"fmt"
	"strings"

	"tealeaf/internal/grid"
	"tealeaf/internal/precond"
)

// Engine selects the CG iteration engine a solve runs: the CG solver
// itself, and the eigenvalue bootstrap of Chebyshev and PPCG. The zero
// value is the default.
type Engine int

const (
	// EngineFused is the Chronopoulos–Gear single-reduction CG
	// (runCGFusedCore): three grid sweeps and one reduction round per
	// iteration, with a diagonal preconditioner folded into the sweeps.
	EngineFused Engine = iota
	// EnginePipelined is the Ghysels–Vanroose pipelined CG
	// (runCGPipelinedCore, tl_pipelined): extra s = A·M⁻¹p and z = A·M⁻¹s
	// recurrences let each iteration start its single reduction round
	// before the matvec sweep and finish it after, hiding the allreduce
	// latency (§III-A's scaling bottleneck) behind a full sweep.
	EnginePipelined
	// EngineClassic is the seed's multi-pass PCG (runCGClassicCore): the
	// preconditioner applied in its own pass, one reduction round for the
	// curvature and one shared by ρ = r·z and ‖r‖². It is the reference
	// path of the equivalence tests, and the fallback for preconditioners
	// the other two engines cannot fold.
	EngineClassic
)

var engineNames = [...]string{EngineFused: "fused", EnginePipelined: "pipelined", EngineClassic: "classic"}

func (e Engine) String() string {
	if e < 0 || int(e) >= len(engineNames) {
		return fmt.Sprintf("Engine(%d)", int(e))
	}
	return engineNames[e]
}

// Plan is what a solve resolved, once, from its Options, preconditioner,
// deflator, communicator and pool: the engine that actually runs, the
// optimisations in effect, and one line for every requested setting it
// could not honour. Every loop reads the plan instead of re-deciding, and
// Result carries it so a run can report its configuration.
type Plan struct {
	// Engine is the CG engine that runs, after fallbacks.
	Engine Engine
	// Folded reports that the diagonal preconditioner (or the identity)
	// is folded into the fused sweeps: the Chebyshev and PPCG inner
	// updates, and the CG sweeps whenever Engine is not classic.
	Folded bool
	// CycleDepth is the fused or pipelined CG matrix-powers cycle depth:
	// one depth-d exchange of the recurrence vectors per d iterations
	// (1 = a depth-1 exchange every iteration, always so on the classic
	// engine).
	CycleDepth int
	// Fallbacks holds one line per fallback taken, e.g.
	// "pipelined→classic: ...".
	Fallbacks []string
}

func (p Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine=%s folded=%t cycle-depth=%d",
		p.Engine, p.Folded, p.CycleDepth)
	for _, f := range p.Fallbacks {
		b.WriteString("; fallback ")
		b.WriteString(f)
	}
	return b.String()
}

// resolvePlan decides the solve's plan (see Plan) and the folded inverse
// diagonal (zero = identity).
//
// Folding a diagonal preconditioner into the CG matvec sweep needs minv
// valid one cell beyond the interior. The Jacobi constructors can only
// evaluate the matrix diagonal on the padded region minus its outermost
// layer, so on a halo-1 grid the ring the fused matvec reads is exactly
// that missing layer. Single-rank that is harmless (physical-boundary
// face coefficients are zero, so the ring is multiplied away), but across
// rank boundaries the coupling is real: the CG engine falls back to the
// classic loop rather than silently dropping it. The Chebyshev and PPCG
// inner updates apply minv pointwise and keep it folded.
func resolvePlan(sys *system, o Options, ranks int) (Plan, *grid.Field) {
	p := Plan{Engine: o.Engine, CycleDepth: 1}
	minv, foldable := precond.FoldableDiag(sys.m)
	if o.Engine != EngineClassic {
		p.Folded = foldable
		why := ""
		switch {
		case !foldable:
			why = "preconditioner " + sys.m.Name() + " is not a diagonal scaling and cannot fold into the sweeps"
		case minv != nil && ranks > 1 && sys.op.Grid.Halo < 2:
			why = "folded " + sys.m.Name() + " needs grid halo >= 2 on multi-rank runs"
		}
		if why != "" {
			p.fallback("%s→classic: %s", o.Engine, why)
			p.Engine = EngineClassic
		}
	}

	defl := sys.defl
	if p.Engine != EngineClassic && o.HaloDepth > 1 {
		p.CycleDepth = o.HaloDepth
		if _, ok := defl.(deepDeflator); defl != nil && !ok {
			p.CycleDepth = 1
			p.fallback("cycle depth %d→1: the deflator cannot project on extended bounds", o.HaloDepth)
		}
	}
	return p, minv
}

func (p *Plan) fallback(format string, args ...any) {
	p.Fallbacks = append(p.Fallbacks, fmt.Sprintf(format, args...))
}
