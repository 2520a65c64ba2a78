package solver

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"tealeaf/internal/comm"
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/precond"
	"tealeaf/internal/stats"
	"tealeaf/internal/stencil"
)

// TestPlanResolution pins the engine every solve resolves, and the
// fallback it reports, over Engine × preconditioner × ranks × grid halo ×
// deflation. The rules: the classic engine is always honoured; fused and
// pipelined fall back to classic for a preconditioner that is not a
// diagonal scaling (jac_block), and for a folded jac_diag on a halo-1
// grid in a multi-rank run (the fused matvec reads minv one cell into the
// halo, where the Jacobi constructor cannot evaluate it). The EngineFused
// rows run with the zero Engine value, so the zero Options resolve to
// fused.
func TestPlanResolution(t *testing.T) {
	for _, eng := range []Engine{EngineFused, EnginePipelined, EngineClassic} {
		for _, pc := range []string{"none", "jac_diag", "jac_block"} {
			for _, ranks := range []int{1, 2} {
				for _, halo := range []int{1, 2} {
					for _, deflated := range []bool{false, true} {
						label := fmt.Sprintf("%v/%s/ranks=%d/halo=%d/deflated=%v", eng, pc, ranks, halo, deflated)
						p := buildProblem(t, 16, 16, halo, 21)
						o := Options{Tol: 1e-9, MaxIters: 3, Engine: eng, Precond: fusedPrecondFor(pc, p)}
						if ranks == 2 {
							o.Comm = &fakeMultiRank{comm.NewSerial()}
						}
						if deflated {
							o.Deflation = newDeflation(t, p.Op, 4, 1)
						}
						res, err := SolveCG(p, o)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}

						wantEngine, why := eng, ""
						if eng != EngineClassic {
							switch {
							case pc == "jac_block":
								why = "preconditioner jac_block is not a diagonal scaling"
							case pc == "jac_diag" && ranks == 2 && halo == 1:
								why = "folded jac_diag needs grid halo >= 2 on multi-rank runs"
							}
							if why != "" {
								wantEngine = EngineClassic
							}
						}
						got := res.Plan
						if got.Engine != wantEngine {
							t.Errorf("%s: engine %v, want %v (plan %v)", label, got.Engine, wantEngine, got)
						}
						if wantFolded := eng != EngineClassic && pc != "jac_block"; got.Folded != wantFolded {
							t.Errorf("%s: folded %v, want %v", label, got.Folded, wantFolded)
						}
						switch {
						case why == "" && len(got.Fallbacks) != 0:
							t.Errorf("%s: unexpected fallbacks %q", label, got.Fallbacks)
						case why != "" && (len(got.Fallbacks) != 1 ||
							!strings.HasPrefix(got.Fallbacks[0], eng.String()+"→classic: "+why)):
							t.Errorf("%s: fallbacks %q, want one starting %q", label, got.Fallbacks, eng.String()+"→classic: "+why)
						}
						if got.CycleDepth != 1 {
							t.Errorf("%s: depth-1 plan expected, got %v", label, got)
						}
					}
				}
			}
		}
	}
}

// TestClassicPairsRhoAndResidual: the classic engine with a
// preconditioner whose z ≠ r (jac_block) shares ρ = r·z and ‖r‖² in one
// reduction round. Each iteration costs exactly two rounds — the
// curvature p·A·p and the (ρ, ‖r‖²) pair, three scalars — at 1 rank and
// 2 ranks, the true residual meets the tolerance, and 2 TCP ranks
// reproduce 2 Hub ranks bit for bit.
func TestClassicPairsRhoAndResidual(t *testing.T) {
	const n = 24
	const tol = 1e-10
	gg := grid.UnitGrid(n, n, 1, 1)
	type run struct {
		u     *grid.Field
		iters int
		tr    stats.Trace
	}
	solve := func(part *grid.Partition, runner func(fn func(c comm.Communicator) error) error) run {
		t.Helper()
		out := run{u: grid.NewField(gg)}
		err := runner(func(c comm.Communicator) error {
			ext := part.ExtentOf(c.Rank())
			sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1)
			if err != nil {
				return err
			}
			den, rhs := grid.NewField(sub), grid.NewField(sub)
			for k := 0; k < sub.NY; k++ {
				for j := 0; j < sub.NX; j++ {
					den.Set(j, k, denAt2D(ext.X0+j, ext.Y0+k))
					rhs.Set(j, k, rhsAt2D(ext.X0+j, ext.Y0+k))
				}
			}
			if err := c.Exchange(sub.Halo, den); err != nil {
				return err
			}
			phys := c.Physical()
			op, err := stencil.BuildOperator(par.Serial, den, 0.04, stencil.Conductivity,
				grid.Sides{Left: phys.Left, Right: phys.Right, Down: phys.Down, Up: phys.Up})
			if err != nil {
				return err
			}
			p := Problem{Op: op, U: rhs.Clone(), RHS: rhs}
			c.Trace().Reset() // drop the setup-time density exchange
			res, err := SolveCG(p, Options{Tol: tol, Comm: c, Engine: EngineClassic,
				Precond: precond.NewBlockJacobi(par.Serial, op, 0)})
			if err != nil {
				return err
			}
			if !res.Converged || res.Plan.Engine != EngineClassic {
				return fmt.Errorf("rank %d: converged=%v plan %v", c.Rank(), res.Converged, res.Plan)
			}
			var dst *grid.Field
			if c.Rank() == 0 {
				dst = out.u
				out.iters, out.tr = res.Iterations, *c.Trace()
			}
			return c.GatherInterior(p.U, dst)
		})
		if err != nil {
			t.Fatalf("ranks=%d: %v", part.Ranks(), err)
		}
		return out
	}

	// The true residual of the gathered solution, against the solver's
	// stop baseline max(‖r₀‖, ‖b‖) for the initial guess u = b.
	den, rhs := grid.NewField(gg), grid.NewField(gg)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			den.Set(j, k, denAt2D(j, k))
			rhs.Set(j, k, rhsAt2D(j, k))
		}
	}
	den.ReflectHalos(1)
	op, err := stencil.BuildOperator(par.Serial, den, 0.04, stencil.Conductivity, grid.AllSides)
	if err != nil {
		t.Fatal(err)
	}
	residual := func(u *grid.Field) float64 {
		r, uu := grid.NewField(gg), u.Clone()
		uu.ReflectHalos(1)
		op.Residual(par.Serial, gg.Interior(), uu, rhs, r)
		return r.Norm2Interior()
	}
	base := math.Max(residual(rhs), rhs.Norm2Interior())

	check := func(label string, r run) {
		t.Helper()
		// Setup: ‖r₀‖², the ‖b‖² stop baseline and the first (ρ, ‖r‖²)
		// pair; then the curvature and the pair every iteration.
		if want := 2*r.iters + 3; r.tr.Reductions != want {
			t.Errorf("%s: %d reduction rounds over %d iterations, want %d", label, r.tr.Reductions, r.iters, want)
		}
		if want := 3*r.iters + 4; r.tr.ReducedValues != want {
			t.Errorf("%s: %d reduced scalars over %d iterations, want %d", label, r.tr.ReducedValues, r.iters, want)
		}
		if rel := residual(r.u) / base; rel > 10*tol {
			t.Errorf("%s: true relative residual %.3e, tolerance %.0e", label, rel, tol)
		}
	}

	one := grid.MustPartition(n, n, 1, 1, 1, 1)
	check("ranks=1", solve(one, func(fn func(c comm.Communicator) error) error { return fn(comm.NewSerial()) }))
	two := grid.MustPartition(n, n, 1, 2, 1, 1)
	hub := solve(two, func(fn func(c comm.Communicator) error) error {
		return comm.Run(two, func(c *comm.RankComm) error { return fn(c) })
	})
	check("hub ranks=2", hub)
	tcp := solve(two, func(fn func(c comm.Communicator) error) error { return comm.RunTCP(two, fn) })
	if tcp.iters != hub.iters || tcp.u.MaxDiff(hub.u) != 0 {
		t.Errorf("tcp ranks=2: %d iterations and solution diff %v against hub's %d iterations, want bit-identical",
			tcp.iters, tcp.u.MaxDiff(hub.u), hub.iters)
	}
}
