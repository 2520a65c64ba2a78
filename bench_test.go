// Benchmark harness: one benchmark per paper table/figure plus the kernel
// and ablation benchmarks DESIGN.md lists. Figure benchmarks report the
// headline numbers (best time, knee position, speedups) as custom metrics
// so `go test -bench` output reads like the paper's evaluation.
package tealeaf

import (
	"math/rand"
	"sync"
	"testing"

	"tealeaf/internal/comm"
	"tealeaf/internal/core"
	"tealeaf/internal/deflate"
	"tealeaf/internal/eigen"
	"tealeaf/internal/grid"
	"tealeaf/internal/kernels"
	"tealeaf/internal/machine"
	"tealeaf/internal/mg"
	"tealeaf/internal/model"
	"tealeaf/internal/par"
	"tealeaf/internal/precond"
	"tealeaf/internal/problem"
	"tealeaf/internal/solver"
	"tealeaf/internal/stencil"
	"tealeaf/internal/tridiag"
)

// calOnce caches the real-solve calibration shared by the figure benches.
var (
	calOnce sync.Once
	calVal  *model.Calibration
	calErr  error
)

func calibration(b *testing.B) *model.Calibration {
	b.Helper()
	calOnce.Do(func() {
		calVal, calErr = model.Calibrate([]int{32, 48, 64}, 1, 10)
	})
	if calErr != nil {
		b.Fatal(calErr)
	}
	return calVal
}

// ---- Table I ----

func BenchmarkTable1Machines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		total := 0
		for _, m := range machine.All() {
			total += m.TotalCores()
		}
		if total != 40080+115984+560640 {
			b.Fatal("Table I core totals changed")
		}
	}
}

// ---- Fig. 3: crooked-pipe field ----

func BenchmarkFig3CrookedPipe(b *testing.B) {
	d := problem.CrookedPipeDeck(96, 96)
	d.Eps = 1e-8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := core.NewSerial(d, par.Serial)
		if err != nil {
			b.Fatal(err)
		}
		sum, err := inst.Run(4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(sum.TotalIterations)/float64(sum.Steps), "iters/step")
	}
}

// ---- Fig. 4: mesh convergence ----

func BenchmarkFig4MeshConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var prev, diff float64
		for _, n := range []int{32, 48, 64} {
			d := problem.CrookedPipeDeck(n, n)
			d.Eps = 1e-8
			inst, err := core.NewSerial(d, par.Serial)
			if err != nil {
				b.Fatal(err)
			}
			sum, err := inst.Run(4)
			if err != nil {
				b.Fatal(err)
			}
			diff = sum.AvgTemperature - prev
			prev = sum.AvgTemperature
		}
		b.ReportMetric(diff, "last-deltaT")
	}
}

// ---- Figs 5-8: strong-scaling figures ----

func benchFigure(b *testing.B, build func(*model.Calibration) model.Figure, keyLabel string, keyNodes int) {
	cal := calibration(b)
	var fig model.Figure
	for i := 0; i < b.N; i++ {
		fig = build(cal)
	}
	s, err := fig.FindSeries(keyLabel)
	if err != nil {
		b.Fatal(err)
	}
	best, at := s.BestTime()
	b.ReportMetric(best, "best-seconds")
	b.ReportMetric(float64(at), "best-at-nodes")
	if v, ok := s.At(keyNodes); ok {
		b.ReportMetric(v, "value-at-key-nodes")
	}
}

func BenchmarkFig5TitanScaling(b *testing.B) {
	benchFigure(b, func(c *model.Calibration) model.Figure { return model.Fig5Titan(c, 0, 0) }, "PPCG - 16", 8192)
}

func BenchmarkFig6PizDaintScaling(b *testing.B) {
	benchFigure(b, func(c *model.Calibration) model.Figure { return model.Fig6PizDaint(c, 0, 0) }, "PPCG - 16", 2048)
}

func BenchmarkFig7SpruceScaling(b *testing.B) {
	benchFigure(b, func(c *model.Calibration) model.Figure { return model.Fig7Spruce(c, 0, 0) }, "PPCG - 1 (MPI)", 512)
}

func BenchmarkFig8Efficiency(b *testing.B) {
	benchFigure(b, func(c *model.Calibration) model.Figure { return model.Fig8Efficiency(c, 0, 0) }, "Spruce - PPCG - 1 (MPI)", 512)
}

// ---- Kernel benchmarks (the memory-bandwidth-bound primitives) ----

func benchField(n int, seed int64) (*grid.Grid2D, *grid.Field2D) {
	g := grid.UnitGrid2D(n, n, 2)
	f := grid.NewField2D(g)
	rng := rand.New(rand.NewSource(seed))
	for i := range f.Data {
		f.Data[i] = rng.Float64()
	}
	return g, f
}

func BenchmarkKernelMatvec256(b *testing.B) {
	g, p := benchField(256, 1)
	den := grid.NewField2D(g)
	den.Fill(1)
	op, err := stencil.BuildOperator2D(par.Serial, den, 0.04, stencil.Conductivity, stencil.AllPhysical)
	if err != nil {
		b.Fatal(err)
	}
	w := grid.NewField2D(g)
	cells := int64(g.Cells())
	b.SetBytes(cells * 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.Apply(par.Serial, g.Interior(), p, w)
	}
}

func BenchmarkKernelMatvecDotFused256(b *testing.B) {
	g, p := benchField(256, 2)
	den := grid.NewField2D(g)
	den.Fill(1)
	op, err := stencil.BuildOperator2D(par.Serial, den, 0.04, stencil.Conductivity, stencil.AllPhysical)
	if err != nil {
		b.Fatal(err)
	}
	w := grid.NewField2D(g)
	b.SetBytes(int64(g.Cells()) * 40)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += op.ApplyDot(par.Serial, g.Interior(), p, w)
	}
	_ = sink
}

func BenchmarkKernelDot256(b *testing.B) {
	g, x := benchField(256, 3)
	_, y := benchField(256, 4)
	b.SetBytes(int64(g.Cells()) * 16)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += kernels.Dot(par.Serial, g.Interior(), x, y)
	}
	_ = sink
}

func BenchmarkKernelAxpy256(b *testing.B) {
	g, x := benchField(256, 5)
	_, y := benchField(256, 6)
	b.SetBytes(int64(g.Cells()) * 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.Axpy(par.Serial, g.Interior(), 0.5, x, y)
	}
}

func BenchmarkKernelBlockJacobiApply(b *testing.B) {
	g, r := benchField(256, 7)
	den := grid.NewField2D(g)
	den.Fill(2)
	op, err := stencil.BuildOperator2D(par.Serial, den, 0.04, stencil.Conductivity, stencil.AllPhysical)
	if err != nil {
		b.Fatal(err)
	}
	m := precond.NewBlockJacobi(par.Serial, op, 4)
	z := grid.NewField2D(g)
	b.SetBytes(int64(g.Cells()) * 48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Apply(par.Serial, g.Interior(), r, z)
	}
}

func BenchmarkHaloExchangeDepth1(b *testing.B)  { benchExchange(b, 1) }
func BenchmarkHaloExchangeDepth16(b *testing.B) { benchExchange(b, 16) }

func benchExchange(b *testing.B, depth int) {
	part := grid.MustPartition(128, 128, 2, 2)
	gg := grid.MustGrid2D(128, 128, 16, 0, 1, 0, 1)
	b.ResetTimer()
	err := comm.Run(part, func(c *comm.RankComm) error {
		ext := part.ExtentOf(c.Rank())
		sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1)
		if err != nil {
			return err
		}
		f := grid.NewField2D(sub)
		for i := 0; i < b.N; i++ {
			if err := c.Exchange(depth, f); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// ---- Solver benchmarks (one implicit step per configuration) ----

func benchSolveStep(b *testing.B, solverName string, haloDepth int, precondName string) {
	d := problem.CrookedPipeDeck(64, 64)
	d.Solver = solverName
	d.Eps = 1e-8
	d.HaloDepth = haloDepth
	d.Precond = precondName
	d.MaxIters = 500000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		inst, err := core.NewSerial(d, par.Serial)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := inst.Step()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Iterations), "iters")
	}
}

func BenchmarkSolveStepCG(b *testing.B)         { benchSolveStep(b, "cg", 1, "none") }
func BenchmarkSolveStepCGBlockJac(b *testing.B) { benchSolveStep(b, "cg", 1, "jac_block") }
func BenchmarkSolveStepPPCG(b *testing.B)       { benchSolveStep(b, "ppcg", 1, "none") }
func BenchmarkSolveStepPPCGDepth8(b *testing.B) { benchSolveStep(b, "ppcg", 8, "none") }
func BenchmarkSolveStepChebyshev(b *testing.B)  { benchSolveStep(b, "chebyshev", 1, "none") }
func BenchmarkSolveStepJacobi(b *testing.B)     { benchSolveStep(b, "jacobi", 1, "none") }
func BenchmarkSolveStepMGBaseline(b *testing.B) {
	d := problem.CrookedPipeDeck(64, 64)
	d.Solver = "cg"
	d.Eps = 1e-8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		inst, err := core.NewSerial(d, par.Serial)
		if err != nil {
			b.Fatal(err)
		}
		h, err := mg.Build(inst.Pool, inst.Density, d.InitialTimestep, stencil.Conductivity, mg.Options{})
		if err != nil {
			b.Fatal(err)
		}
		inst.Options().Precond = h
		b.StartTimer()
		res, err := inst.Step()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Iterations), "iters")
	}
}

// ---- Ablations ----

// BenchmarkAblationPrecond measures condition numbers and iteration counts
// per preconditioner (§IV-C1: block-Jacobi cuts κ by ≈40%).
func BenchmarkAblationPrecond(b *testing.B) {
	for _, name := range []string{"none", "jac_diag", "jac_block"} {
		b.Run(name, func(b *testing.B) {
			d := problem.CrookedPipeDeck(64, 64)
			d.Solver = "cg"
			d.Eps = 1e-9
			d.Precond = name
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				inst, err := core.NewSerial(d, par.Serial)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := inst.Step()
				if err != nil {
					b.Fatal(err)
				}
				est, err := eigen.EstimateFromCG(res.Alphas, res.Betas)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(est.RawMax/est.RawMin, "kappa")
				b.ReportMetric(float64(res.Iterations), "iters")
			}
		})
	}
}

// BenchmarkAblationHaloDepth measures real CPPCG solves per matrix-powers
// depth; the metrics show exchanges falling ~1/depth while iteration
// counts stay flat (§IV-C2).
func BenchmarkAblationHaloDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 8, 16} {
		b.Run(label2(depth), func(b *testing.B) {
			d := problem.CrookedPipeDeck(64, 64)
			d.Solver = "ppcg"
			d.Eps = 1e-8
			d.HaloDepth = depth
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				inst, err := core.NewSerial(d, par.Serial)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := inst.Step()
				if err != nil {
					b.Fatal(err)
				}
				tr := inst.Comm.Trace()
				b.ReportMetric(float64(tr.HaloExchanges), "exchanges")
				b.ReportMetric(float64(res.Iterations), "iters")
			}
		})
	}
}

func label2(d int) string {
	return map[int]string{1: "depth1", 2: "depth2", 4: "depth4", 8: "depth8", 16: "depth16"}[d]
}

// BenchmarkAblationTridiag compares the Thomas algorithm against cyclic
// reduction at the preconditioner's block size (§IV-C1: serial Thomas wins
// at size 4).
func BenchmarkAblationTridiag(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{4, 64, 1024} {
		a := make([]float64, n)
		diag := make([]float64, n)
		c := make([]float64, n)
		d := make([]float64, n)
		x := make([]float64, n)
		w := make([]float64, n)
		for i := 0; i < n; i++ {
			if i > 0 {
				a[i] = -rng.Float64()
			}
			if i < n-1 {
				c[i] = -rng.Float64()
			}
			diag[i] = 2 + rng.Float64()
			d[i] = rng.Float64()
		}
		b.Run("thomas-"+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := tridiag.Thomas(a, diag, c, d, x, w); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("cyclic-"+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tridiag.CyclicReduction(a, diag, c, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(n int) string {
	switch n {
	case 4:
		return "4"
	case 64:
		return "64"
	default:
		return "1024"
	}
}

// BenchmarkAblationDeflation measures the §VII future-work deflation in
// its two regimes: neutral at TeaLeaf's production Δt (λmin(A)=1 floor),
// strongly accelerating in the stiff near-steady regime.
func BenchmarkAblationDeflation(b *testing.B) {
	g := grid.MustGrid2D(64, 64, 2, 0, 1, 0, 1)
	den := grid.NewField2D(g)
	den.Fill(1)
	op, err := stencil.BuildOperator2D(par.Serial, den, 10.0, stencil.Conductivity, stencil.AllPhysical)
	if err != nil {
		b.Fatal(err)
	}
	rhs := grid.NewField2D(g)
	rhs.FillBounds(grid.Bounds{X0: 0, X1: 16, Y0: 0, Y1: 16}, 1)
	b.Run("plain-cg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := solver.Problem{Op: op, U: rhs.Clone(), RHS: rhs}
			res, err := solver.SolveCG(p, solver.Options{Tol: 1e-9})
			if err != nil || !res.Converged {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Iterations), "iters")
		}
	})
	b.Run("deflated-8x8", func(b *testing.B) {
		defl, err := deflate.New(par.Serial, nil, op, deflate.Geometry{}, deflate.Config{BX: 8, BY: 8})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			u := rhs.Clone()
			iters, _, ok, err := defl.SolveDeflatedCG(u, rhs, 1e-9, 10000)
			if err != nil || !ok {
				b.Fatal("no convergence: ", err)
			}
			b.ReportMetric(float64(iters), "iters")
		}
	})
}

// BenchmarkDistributed4Ranks times a real 4-goroutine-rank solve end to
// end — the full comm stack under load.
func BenchmarkDistributed4Ranks(b *testing.B) {
	d := problem.CrookedPipeDeck(96, 96)
	d.Solver = "ppcg"
	d.Eps = 1e-8
	d.HaloDepth = 4
	for i := 0; i < b.N; i++ {
		if _, err := core.RunDistributed(d, 2, 2, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}
