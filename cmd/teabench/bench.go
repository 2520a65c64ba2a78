package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"tealeaf/internal/grid"
	"tealeaf/internal/kernels"
	"tealeaf/internal/par"
	"tealeaf/internal/precond"
	"tealeaf/internal/solver"
	"tealeaf/internal/stencil"
)

// The bench experiment measures the node-level hot path — the fused
// kernels and one full CG iteration, fused versus unfused versus the
// frozen seed baseline — and dumps the results as machine-readable JSON
// (default BENCH_kernels.json) so future PRs can track the perf
// trajectory on the same machine. All timings are min-of-reps, the
// standard noise-robust estimator on shared machines.

type kernelBench struct {
	Name string  `json:"name"`
	Mesh int     `json:"mesh"`
	NsOp float64 `json:"ns_op"`
	GBps float64 `json:"gb_per_s"`
}

type cgIterBench struct {
	Mesh      int     `json:"mesh"`
	Impl      string  `json:"impl"`
	Precond   string  `json:"precond"`
	NsPerIter float64 `json:"ns_per_iter"`
}

type benchReport struct {
	Generated  string             `json:"generated"`
	GoVersion  string             `json:"go_version"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	IterBudget int                `json:"cg_iters_per_rep"`
	Reps       int                `json:"reps"`
	Notes      []string           `json:"notes"`
	Kernels    []kernelBench      `json:"kernels"`
	CGIter     []cgIterBench      `json:"cg_iteration"`
	Summary    map[string]float64 `json:"summary"`
}

const (
	benchCGIters = 48
	benchReps    = 4
)

// minTime runs f reps times and returns the fastest wall time.
func minTime(reps int, f func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

func benchRandomProblem(n int, seed int64) solver.Problem {
	g := grid.UnitGrid(n, n, 1, 2)
	den := grid.NewField(g)
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			den.Set(j, k, 0.5+rng.Float64()*4)
		}
	}
	den.ReflectHalos(g.Halo)
	op, err := stencil.BuildOperator(par.Serial, den, 0.04, stencil.Conductivity, grid.AllSides)
	if err != nil {
		panic(err)
	}
	rhs := grid.NewField(g)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			v := 0.1
			if j > n/4 && j < n/2 && k > n/4 && k < n/2 {
				v = 10
			}
			rhs.Set(j, k, v)
		}
	}
	return solver.Problem{Op: op, U: rhs.Clone(), RHS: rhs}
}

func benchField(g *grid.Grid, seed int64) *grid.Field {
	f := grid.NewField(g)
	rng := rand.New(rand.NewSource(seed))
	for i := range f.Data {
		f.Data[i] = rng.Float64()*2 - 1
	}
	return f
}

// runKernelBenches times the individual kernels; traffic is the per-sweep
// field-visit count used to convert to effective GB/s.
func runKernelBenches(meshes []int) []kernelBench {
	var out []kernelBench
	var sink float64
	for _, n := range meshes {
		g := grid.UnitGrid(n, n, 1, 2)
		den := grid.NewField(g)
		den.Fill(1.7)
		op, err := stencil.BuildOperator(par.Serial, den, 0.04, stencil.Conductivity, grid.AllSides)
		if err != nil {
			panic(err)
		}
		a, b, c, d, e := benchField(g, 1), benchField(g, 2), benchField(g, 3), benchField(g, 4), benchField(g, 5)
		in := g.Interior()
		cases := []struct {
			name    string
			traffic int
			f       func()
		}{
			{"dot", 2, func() { sink += kernels.Dot(par.Serial, in, a, b) }},
			{"axpy", 3, func() { kernels.Axpy(par.Serial, in, 1e-9, a, b) }},
			{"xpay", 3, func() { kernels.Xpay(par.Serial, in, a, 1e-9, b) }},
			{"apply", 5, func() { op.Apply(par.Serial, in, a, c) }},
			{"apply_dot", 5, func() { sink += op.ApplyDot(par.Serial, in, a, c) }},
			{"apply_dot2", 5, func() {
				pw, ww := op.ApplyDot2(par.Serial, in, a, c)
				sink += pw + ww
			}},
			{"precond_dot", 4, func() { sink += kernels.PrecondDot(par.Serial, in, d, a, c) }},
			{"fused_cg_directions", 7, func() { kernels.FusedCGDirections(par.Serial, in, d, a, b, 0.5, c, e) }},
			{"fused_cg_update", 7, func() {
				g1, g2 := kernels.FusedCGUpdate(par.Serial, in, 1e-9, c, e, b, a, d)
				sink += g1 + g2
			}},
			// The whole inner PPCG step, matvec included: Kx, Ky, sd, minv,
			// rtemp (read and write), the new sd, z (read and write).
			{"fused_ppcg_inner", 9, func() { op.ApplyPPCGInner(par.Serial, in, in, 0.9, 0.1, d, c, b, a, e) }},
		}
		for _, cs := range cases {
			dur := minTime(benchReps, cs.f)
			bytes := float64(n) * float64(n) * 8 * float64(cs.traffic)
			out = append(out, kernelBench{
				Name: cs.name, Mesh: n,
				NsOp: float64(dur.Nanoseconds()),
				GBps: bytes / dur.Seconds() / 1e9,
			})
		}
	}
	_ = sink
	return out
}

// runCGIterBenches times benchCGIters CG iterations per rep for each
// implementation and preconditioner. The implementations are interleaved
// round-robin within each rep — on shared machines the achievable
// bandwidth drifts over minutes, so measuring impls in adjacent time
// slices (and taking per-impl mins across rounds) is what makes the
// fused/unfused comparison meaningful.
func runCGIterBenches(meshes []int) []cgIterBench {
	impls := []string{"fused", "unfused"}
	var out []cgIterBench
	for _, n := range meshes {
		p := benchRandomProblem(n, 42)
		u0 := p.U.Clone()
		for _, precondName := range []string{"none", "jac_diag"} {
			var m precond.Preconditioner
			if precondName == "jac_diag" {
				m = precond.NewJacobi(par.Serial, p.Op)
			}
			runOne := func(impl string) {
				p.U.CopyFrom(u0)
				o := solver.Options{Tol: 1e-300, MaxIters: benchCGIters, Precond: m}
				if impl == "unfused" {
					o.Engine = solver.EngineClassic
				}
				if _, err := solver.SolveCG(p, o); err != nil {
					panic(err)
				}
			}
			best := map[string]time.Duration{}
			for rep := 0; rep < benchReps; rep++ {
				for _, impl := range impls {
					t0 := time.Now()
					runOne(impl)
					if d := time.Since(t0); best[impl] == 0 || d < best[impl] {
						best[impl] = d
					}
				}
			}
			for _, impl := range impls {
				out = append(out, cgIterBench{
					Mesh: n, Impl: impl, Precond: precondName,
					NsPerIter: float64(best[impl].Nanoseconds()) / benchCGIters,
				})
			}
		}
	}
	return out
}

func benchExperiment(cfg config) error {
	meshes := []int{1024, 2048}
	fmt.Println("== bench: fused-kernel and CG-iteration timings ==")
	rep := benchReport{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		IterBudget: benchCGIters,
		Reps:       benchReps,
		Notes: []string{
			"impl=fused: the default single-reduction (Chronopoulos-Gear) CG loop on the fused kernels.",
			"impl=unfused: the classic multi-pass CG loop (solver.EngineClassic) on the current optimised kernels.",
			"impl=seed rows are no longer measured: the frozen pre-optimisation seed loop was deleted. The impl=seed rows and *_vs_seed_pct summaries recorded in the committed BENCH_kernels.json stay the historical baseline (regenerating this file drops them).",
			"summary pct values are (unfused - fused) / unfused * 100 for the 2048^2 CG iteration; the classic loop can be FASTER than fused (the single-reduction loop trades an extra s=A*p recurrence for one reduction round per iteration).",
			"gb_per_s is effective bandwidth from the kernel's nominal field-visit traffic.",
		},
		Summary: map[string]float64{},
	}

	fmt.Println("-- kernels --")
	rep.Kernels = runKernelBenches(meshes)
	for _, k := range rep.Kernels {
		fmt.Printf("%-22s %5d²  %12.0f ns/op  %7.2f GB/s\n", k.Name, k.Mesh, k.NsOp, k.GBps)
	}

	fmt.Println("-- cg iteration --")
	rep.CGIter = runCGIterBenches(meshes)
	perIter := map[string]float64{}
	for _, c := range rep.CGIter {
		fmt.Printf("%5d²  %-8s %-9s %12.0f ns/iter\n", c.Mesh, c.Impl, c.Precond, c.NsPerIter)
		perIter[fmt.Sprintf("%d/%s/%s", c.Mesh, c.Impl, c.Precond)] = c.NsPerIter
	}

	for _, pc := range []string{"none", "jac_diag"} {
		f, u := perIter["2048/fused/"+pc], perIter["2048/unfused/"+pc]
		if u > 0 {
			rep.Summary["cg_iter_2048_"+pc+"_fused_vs_unfused_tuned_pct"] = (u - f) / u * 100
		}
	}

	for k, v := range rep.Summary {
		fmt.Printf("summary %-46s %6.1f%%\n", k, v)
	}

	outPath := cfg.benchOut
	if outPath == "" {
		outPath = "BENCH_kernels.json"
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", outPath)
	return nil
}
