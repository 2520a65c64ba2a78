package solver

import (
	"testing"

	"tealeaf/internal/comm"
	"tealeaf/internal/deflate"
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/precond"
	"tealeaf/internal/stencil"
)

// The pipelined-engine acceptance suite: golden equivalence against the
// fused and classic engines (solution within 1e-10, iterations within
// ±2), across dimensionalities, rank counts, comm backends and deflation,
// plus the trace regression pinning the engine to exactly one reduction
// round per iteration.

func TestPipelinedCGMatchesFusedSerial(t *testing.T) {
	for _, precondName := range []string{"none", "jac_diag"} {
		ref := buildProblem(t, 24, 24, 2, 11)
		oRef := Options{Tol: 1e-12}
		if precondName == "jac_diag" {
			oRef.Precond = precondJacobi(t, ref.Op)
		}
		refRes, err := SolveCG(ref, oRef)
		if err != nil || !refRes.Converged {
			t.Fatalf("%s fused reference: %v %+v", precondName, err, refRes)
		}
		classic := buildProblem(t, 24, 24, 2, 11)
		oCl := oRef
		if precondName == "jac_diag" {
			oCl.Precond = precondJacobi(t, classic.Op)
		}
		oCl.Engine = EngineClassic
		clRes, err := SolveCG(classic, oCl)
		if err != nil || !clRes.Converged {
			t.Fatalf("%s classic reference: %v %+v", precondName, err, clRes)
		}

		for _, split := range []bool{false, true} {
			p := buildProblem(t, 24, 24, 2, 11)
			o := Options{Tol: 1e-12, Engine: EnginePipelined, SplitSweeps: split}
			if precondName == "jac_diag" {
				o.Precond = precondJacobi(t, p.Op)
			}
			res, err := SolveCG(p, o)
			if err != nil || !res.Converged {
				t.Fatalf("%s split=%v pipelined: %v %+v", precondName, split, err, res)
			}
			for name, refU := range map[string]*grid.Field2D{"fused": ref.U, "classic": classic.U} {
				if d := p.U.MaxDiff(refU); d > 1e-10 {
					t.Errorf("%s split=%v: pipelined solution differs from %s by %v", precondName, split, name, d)
				}
			}
			if d := res.Iterations - refRes.Iterations; d < -2 || d > 2 {
				t.Errorf("%s split=%v: pipelined took %d iterations, fused %d (want ±2)",
					precondName, split, res.Iterations, refRes.Iterations)
			}
		}
	}
}

func TestPipelinedCG3DMatchesFused(t *testing.T) {
	refRes, refU := solveSerial3D(t, KindCG, 12, 2, 1)
	for _, split := range []bool{false, true} {
		g := grid.UnitGrid3D(12, 12, 12, 2)
		den := grid.NewField3D(g)
		rhs := grid.NewField3D(g)
		for k := 0; k < 12; k++ {
			for j := 0; j < 12; j++ {
				for i := 0; i < 12; i++ {
					den.Set(i, j, k, denAt3D(i, j, k))
					rhs.Set(i, j, k, rhsAt3D(i, j, k))
				}
			}
		}
		den.ReflectHalos(2)
		op, err := stencil.BuildOperator3D(par.Serial, den, 0.04, stencil.Conductivity, stencil.AllPhysical3D)
		if err != nil {
			t.Fatal(err)
		}
		p := Problem3D{Op: op, U: rhs.Clone(), RHS: rhs}
		res, err := SolveCG3D(p, Options{
			Tol: 1e-12, Engine: EnginePipelined, SplitSweeps: split,
			Precond3D: precond.NewJacobi3D(par.Serial, op),
		})
		if err != nil || !res.Converged {
			t.Fatalf("split=%v: %v %+v", split, err, res)
		}
		if d := p.U.MaxDiff(refU); d > 1e-10 {
			t.Errorf("split=%v: 3D pipelined solution differs from fused by %v", split, d)
		}
		if d := res.Iterations - refRes.Iterations; d < -2 || d > 2 {
			t.Errorf("split=%v: 3D pipelined took %d iterations, fused %d (want ±2)",
				split, res.Iterations, refRes.Iterations)
		}
	}
}

// TestPipelinedCGTraceCounts is the trace regression of ISSUE 6: the
// pipelined engine performs EXACTLY one reduction round per iteration —
// never serialised against the matvec — plus the single startup round
// that carries the init scalars and the one-time ‖b‖² baseline dot. Totals are pinned exactly: per loop pass
// one round, one w exchange and one speculative matvec; passes =
// iterations + 1 (the startup scalars ride the first pass's round).
func TestPipelinedCGTraceCounts(t *testing.T) {
	for _, precondName := range []string{"none", "jac_diag"} {
		for _, split := range []bool{false, true} {
			p := buildProblem(t, 16, 16, 2, 17)
			c := comm.NewSerial()
			o := Options{Tol: 1e-9, Comm: c, Engine: EnginePipelined, SplitSweeps: split}
			if precondName == "jac_diag" {
				o.Precond = precondJacobi(t, p.Op)
			}
			res, err := SolveCG(p, o)
			if err != nil || !res.Converged {
				t.Fatalf("%s split=%v: %v (converged=%v)", precondName, split, err, res.Converged)
			}
			tr := c.Trace()
			iters := res.Iterations
			if tr.Reductions != iters+2 {
				t.Errorf("%s split=%v: reductions = %d, want %d (one round per iteration + startup + ‖b‖² baseline)",
					precondName, split, tr.Reductions, iters+2)
			}
			if tr.ReducedValues != 3*(iters+1)+1 {
				t.Errorf("%s split=%v: reduced values = %d, want %d (γ, δ, rr per round + ‖b‖²)",
					precondName, split, tr.ReducedValues, 3*(iters+1)+1)
			}
			// Matvecs: startup residual + init sweep, then one speculative
			// n = A·M⁻¹w per pass. Exchanges: startup u and r, then one of
			// w per pass.
			if tr.Matvecs != iters+3 {
				t.Errorf("%s split=%v: matvecs = %d, want %d", precondName, split, tr.Matvecs, iters+3)
			}
			if tr.HaloExchanges != iters+3 {
				t.Errorf("%s split=%v: exchanges = %d, want %d", precondName, split, tr.HaloExchanges, iters+3)
			}
		}
	}
}

// TestPipelinedDeflatedTraceRounds pins the deflated pipelined iteration
// to exactly TWO rounds (the scalar round + the projector's), measured as
// the slope of rounds over iterations like
// TestDeflationTraceExtraReductionRound.
func TestPipelinedDeflatedTraceRounds(t *testing.T) {
	rounds := func(deflated bool, iters int) (reductions, itersRan int) {
		t.Helper()
		p := stiffProblem(t, 32)
		c := comm.NewSerial()
		o := Options{Tol: 1e-30, MaxIters: iters, Comm: c, Engine: EnginePipelined}
		if deflated {
			defl, err := deflate.New(par.Serial, c, p.Op, deflate.Geometry{},
				deflate.Config{BX: 4, BY: 4})
			if err != nil {
				t.Fatal(err)
			}
			o.Deflation = defl
		}
		res, err := SolveCG(p, o)
		if err != nil {
			t.Fatal(err)
		}
		return c.Trace().Reductions, res.Iterations
	}
	slope := func(deflated bool) int {
		r1, i1 := rounds(deflated, 10)
		r2, i2 := rounds(deflated, 20)
		if i2 == i1 {
			t.Fatalf("iteration counts did not differ (%d vs %d)", i1, i2)
		}
		if (r2-r1)%(i2-i1) != 0 {
			t.Fatalf("non-integral slope: Δrounds=%d Δiters=%d", r2-r1, i2-i1)
		}
		return (r2 - r1) / (i2 - i1)
	}
	if got := slope(false); got != 1 {
		t.Errorf("plain pipelined CG: %d reduction rounds/iteration, want exactly 1", got)
	}
	if got := slope(true); got != 2 {
		t.Errorf("deflated pipelined CG: %d reduction rounds/iteration, want exactly 2 (scalars + projector)", got)
	}
}

func TestPipelinedDeflatedMatchesFused(t *testing.T) {
	const tol = 1e-9
	ref := stiffProblem(t, 32)
	refRes, err := SolveCG(ref, Options{Tol: tol, Deflation: newDeflation(t, ref.Op, 4, 1)})
	if err != nil || !refRes.Converged {
		t.Fatalf("deflated fused reference: %v %+v", err, refRes)
	}
	for _, split := range []bool{false, true} {
		p := stiffProblem(t, 32)
		res, err := SolveCG(p, Options{
			Tol: tol, Engine: EnginePipelined, SplitSweeps: split,
			Deflation: newDeflation(t, p.Op, 4, 1),
		})
		if err != nil || !res.Converged {
			t.Fatalf("split=%v deflated pipelined: %v %+v", split, err, res)
		}
		if d := p.U.MaxDiff(ref.U); d > 1e-8 {
			t.Errorf("split=%v: deflated pipelined solution differs by %v", split, d)
		}
		if d := res.Iterations - refRes.Iterations; d < -2 || d > 2 {
			t.Errorf("split=%v: deflated pipelined took %d iterations, fused %d (want ±2)",
				split, res.Iterations, refRes.Iterations)
		}
	}
}

// solvePipelinedRank2D builds the rank-local problem on c's extent and
// solves it with the pipelined engine, gathering into dst on rank 0.
func solvePipelinedRank2D(t *testing.T, c comm.Communicator, part *grid.Partition,
	gg *grid.Grid2D, split bool, precondName string, iters []int, dst *grid.Field2D) error {
	t.Helper()
	ext := part.ExtentOf(c.Rank())
	sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1)
	if err != nil {
		return err
	}
	den := grid.NewField2D(sub)
	rhs := grid.NewField2D(sub)
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
	op, err := stencil.BuildOperator2D(par.Serial, den, 0.04, stencil.Conductivity,
		stencil.PhysicalSides{Left: phys.Left, Right: phys.Right, Down: phys.Down, Up: phys.Up})
	if err != nil {
		return err
	}
	o := Options{Tol: 1e-12, Comm: c, Engine: EnginePipelined, SplitSweeps: split}
	if precondName == "jac_diag" {
		o.Precond = precond.NewJacobi(par.Serial, op)
	}
	p := Problem{Op: op, U: rhs.Clone(), RHS: rhs}
	res, err := SolveCG(p, o)
	if err != nil {
		return err
	}
	if !res.Converged {
		t.Errorf("rank %d: pipelined not converged: %+v", c.Rank(), res)
	}
	iters[c.Rank()] = res.Iterations
	if rc, ok := c.(*comm.RankComm); ok {
		var d *grid.Field2D
		if c.Rank() == 0 {
			d = dst
		}
		return rc.GatherInterior(p.U, d)
	}
	if tc, ok := c.(*comm.TCP); ok {
		var d *grid.Field2D
		if c.Rank() == 0 {
			d = dst
		}
		return tc.GatherInterior(p.U, d)
	}
	t.Fatalf("unknown communicator %T", c)
	return nil
}

// serialFused2DBaseline is the single-rank fused-engine golden solution
// on the shared deterministic fields.
func serialFused2DBaseline(t *testing.T, nx, ny, halo int, precondName string) (Result, *grid.Field2D) {
	t.Helper()
	g := grid.UnitGrid2D(nx, ny, halo)
	den := grid.NewField2D(g)
	rhs := grid.NewField2D(g)
	for k := 0; k < ny; k++ {
		for j := 0; j < nx; j++ {
			den.Set(j, k, denAt2D(j, k))
			rhs.Set(j, k, rhsAt2D(j, k))
		}
	}
	den.ReflectHalos(halo)
	op, err := stencil.BuildOperator2D(par.Serial, den, 0.04, stencil.Conductivity, stencil.AllPhysical)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Tol: 1e-12}
	if precondName == "jac_diag" {
		o.Precond = precond.NewJacobi(par.Serial, op)
	}
	p := Problem{Op: op, U: rhs.Clone(), RHS: rhs}
	res, err := SolveCG(p, o)
	if err != nil || !res.Converged {
		t.Fatalf("serial fused baseline: %v %+v", err, res)
	}
	return res, p.U
}

// Golden equivalence, distributed: the pipelined engine on the in-process
// hub at ranks {1, 2, 4} matches the single-rank fused engine, both plain
// and Jacobi-preconditioned (folded diagonal needs halo 2 multi-rank),
// split sweeps on and off.
func TestPipelinedCGHubMatchesSerialFused(t *testing.T) {
	const nx, ny, halo = 24, 24, 2
	layouts := map[int][2]int{1: {1, 1}, 2: {2, 1}, 4: {2, 2}}
	for _, precondName := range []string{"none", "jac_diag"} {
		refRes, refU := serialFused2DBaseline(t, nx, ny, halo, precondName)
		for ranks, pxpy := range layouts {
			for _, split := range []bool{false, true} {
				part := grid.MustPartition(nx, ny, pxpy[0], pxpy[1])
				gg := grid.UnitGrid2D(nx, ny, halo)
				gathered := grid.NewField2D(gg)
				iters := make([]int, part.Ranks())
				err := comm.Run(part, func(c *comm.RankComm) error {
					return solvePipelinedRank2D(t, c, part, gg, split, precondName, iters, gathered)
				})
				if err != nil {
					t.Fatalf("%s ranks=%d split=%v: %v", precondName, ranks, split, err)
				}
				for r, it := range iters {
					if d := it - refRes.Iterations; d < -2 || d > 2 {
						t.Errorf("%s ranks=%d split=%v rank %d: %d iterations vs fused serial %d (want ±2)",
							precondName, ranks, split, r, it, refRes.Iterations)
					}
				}
				if d := gathered.MaxDiff(refU); d > 1e-10 {
					t.Errorf("%s ranks=%d split=%v: solution differs from fused serial by %v",
						precondName, ranks, split, d)
				}
			}
		}
	}
}

// Golden equivalence over real sockets: 4 TCP ranks, pipelined + split,
// against the single-rank fused baseline. This exercises the split-phase
// butterfly reduction concurrently with slab exchanges on shared
// connections.
func TestPipelinedCGTCPMatchesSerialFused(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP solver test in -short mode")
	}
	const nx, ny, halo = 16, 16, 2
	refRes, refU := serialFused2DBaseline(t, nx, ny, halo, "jac_diag")
	for _, split := range []bool{false, true} {
		part := grid.MustPartition(nx, ny, 2, 2)
		gg := grid.UnitGrid2D(nx, ny, halo)
		gathered := grid.NewField2D(gg)
		iters := make([]int, part.Ranks())
		err := comm.RunTCP(part, func(c comm.Communicator) error {
			return solvePipelinedRank2D(t, c, part, gg, split, "jac_diag", iters, gathered)
		})
		if err != nil {
			t.Fatalf("split=%v: %v", split, err)
		}
		for r, it := range iters {
			if d := it - refRes.Iterations; d < -2 || d > 2 {
				t.Errorf("split=%v rank %d: %d iterations vs fused serial %d (want ±2)",
					split, r, it, refRes.Iterations)
			}
		}
		if d := gathered.MaxDiff(refU); d > 1e-10 {
			t.Errorf("split=%v: TCP pipelined solution differs from fused serial by %v", split, d)
		}
	}
}

// 3D golden equivalence on the hub at 2 ranks, pipelined + split.
func TestPipelinedCG3DHubMatchesSerialFused(t *testing.T) {
	const n, halo = 12, 2
	refRes, refU := solveSerial3D(t, KindCG, n, halo, 1)
	part := grid.MustPartition3D(n, n, n, 2, 1, 1)
	for _, split := range []bool{false, true} {
		gg := grid.UnitGrid3D(n, n, n, halo)
		gathered := grid.NewField3D(gg)
		iters := make([]int, part.Ranks())
		err := comm.Run3D(part, func(c *comm.RankComm) error {
			ext := part.ExtentOf(c.Rank())
			sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1, ext.Z0, ext.Z1)
			if err != nil {
				return err
			}
			den := grid.NewField3D(sub)
			rhs := grid.NewField3D(sub)
			for k := 0; k < sub.NZ; k++ {
				for j := 0; j < sub.NY; j++ {
					for i := 0; i < sub.NX; i++ {
						den.Set(i, j, k, denAt3D(ext.X0+i, ext.Y0+j, ext.Z0+k))
						rhs.Set(i, j, k, rhsAt3D(ext.X0+i, ext.Y0+j, ext.Z0+k))
					}
				}
			}
			if err := c.Exchange3D(sub.Halo, den); err != nil {
				return err
			}
			phys := c.Physical3D()
			op, err := stencil.BuildOperator3D(par.Serial, den, 0.04, stencil.Conductivity,
				stencil.PhysicalSides3D{Left: phys.Left, Right: phys.Right, Down: phys.Down,
					Up: phys.Up, Back: phys.Back, Front: phys.Front})
			if err != nil {
				return err
			}
			p := Problem3D{Op: op, U: rhs.Clone(), RHS: rhs}
			res, err := SolveCG3D(p, Options{
				Tol: 1e-12, Comm: c, Engine: EnginePipelined, SplitSweeps: split,
				Precond3D: precond.NewJacobi3D(par.Serial, op),
			})
			if err != nil {
				return err
			}
			if !res.Converged {
				t.Errorf("rank %d: not converged: %+v", c.Rank(), res)
			}
			iters[c.Rank()] = res.Iterations
			var dst *grid.Field3D
			if c.Rank() == 0 {
				dst = gathered
			}
			return c.GatherInterior3D(p.U, dst)
		})
		if err != nil {
			t.Fatalf("split=%v: %v", split, err)
		}
		for r, it := range iters {
			if d := it - refRes.Iterations; d < -2 || d > 2 {
				t.Errorf("split=%v rank %d: %d iterations vs fused serial %d (want ±2)",
					split, r, it, refRes.Iterations)
			}
		}
		if d := gathered.MaxDiff(refU); d > 1e-10 {
			t.Errorf("split=%v: 3D pipelined solution differs from fused serial by %v", split, d)
		}
	}
}
