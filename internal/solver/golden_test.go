package solver

import (
	"fmt"
	"math"
	"os"
	"sort"
	"testing"

	"tealeaf/internal/comm"
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/precond"
	"tealeaf/internal/stencil"
)

// Golden equivalence tests: these pin the unified dimension-agnostic
// solver loops against the behaviour of the pre-refactor per-dimension
// paths (the cg/cg3d, cheby/cheby3d, ppcg/ppcg3d twins). The table below
// was generated by running this harness against the duplicated loops
// immediately before they were collapsed; the refactored code must
// reproduce every entry to iteration count ±1 and solution L2 norm within
// a 1e-10 relative tolerance, across {CG, Chebyshev, PPCG} × {2D, 3D} ×
// ranks {1, 4} × {fused, unfused}.
//
// Regenerate (e.g. after an intentional numerical change) with:
//
//	GOLDEN_GEN=1 go test ./internal/solver -run TestGoldenEquivalence -v

type goldenKey struct {
	kind  Kind
	dims  int
	ranks int
	fused bool
}

type goldenVal struct {
	iters int
	norm  float64 // L2 norm of the gathered interior solution
}

func (k goldenKey) String() string {
	f := "unfused"
	if k.fused {
		f = "fused"
	}
	return fmt.Sprintf("%s/%dD/ranks=%d/%s", k.kind, k.dims, k.ranks, f)
}

// goldenTable holds the pre-refactor behaviour, generated at commit
// 4670adc (the last commit with separate 2D/3D loop bodies).
var goldenTable = map[goldenKey]goldenVal{
	{"cg", 2, 1, true}:         {86, 61.3053574334986},
	{"cg", 2, 1, false}:        {86, 61.3053574334986},
	{"cg", 2, 4, true}:         {86, 61.3053574334986},
	{"cg", 2, 4, false}:        {86, 61.3053574334986},
	{"cg", 3, 1, true}:         {54, 106.271376985618},
	{"cg", 3, 1, false}:        {54, 106.271376985618},
	{"cg", 3, 4, true}:         {54, 106.271376985618},
	{"cg", 3, 4, false}:        {54, 106.271376985618},
	{"chebyshev", 2, 1, true}:  {340, 61.3053572496858},
	{"chebyshev", 2, 1, false}: {340, 61.3053572496858},
	{"chebyshev", 2, 4, true}:  {340, 61.3053572496858},
	{"chebyshev", 2, 4, false}: {340, 61.3053572496858},
	{"chebyshev", 3, 1, true}:  {130, 106.271376920425},
	{"chebyshev", 3, 1, false}: {130, 106.271376920425},
	{"chebyshev", 3, 4, true}:  {130, 106.271376920425},
	{"chebyshev", 3, 4, false}: {130, 106.271376920425},
	{"ppcg", 2, 1, true}:       {29, 61.3053574334739},
	{"ppcg", 2, 1, false}:      {29, 61.3053574334738},
	{"ppcg", 2, 4, true}:       {29, 61.3053574334739},
	{"ppcg", 2, 4, false}:      {29, 61.3053574334739},
	{"ppcg", 3, 1, true}:       {21, 106.271376985734},
	{"ppcg", 3, 1, false}:      {21, 106.271376985734},
	{"ppcg", 3, 4, true}:       {21, 106.271376985734},
	{"ppcg", 3, 4, false}:      {21, 106.271376985734},
}

const (
	goldenN2D  = 24
	goldenN3D  = 12
	goldenHalo = 2
	goldenTol  = 1e-10
)

func goldenOpts(c comm.Communicator, m precond.Preconditioner, fused bool) Options {
	engine := EngineFused
	if !fused {
		engine = EngineClassic
	}
	return Options{
		Tol: goldenTol, Comm: c,
		Precond:      m,
		EigenCGIters: 10, InnerSteps: 4, HaloDepth: 1,
		Engine: engine,
	}
}

// goldenSolve2D runs one 2D combo on the deterministic denAt2D/rhsAt2D
// fields and returns rank 0's iteration count and the gathered solution
// L2 norm.
func goldenSolve2D(t *testing.T, kind Kind, ranks int, fused bool) (int, float64) {
	t.Helper()
	const n = goldenN2D
	if ranks == 1 {
		g := grid.UnitGrid(n, n, 1, goldenHalo)
		den, rhs := grid.NewField(g), grid.NewField(g)
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				den.Set(j, k, denAt2D(j, k))
				rhs.Set(j, k, rhsAt2D(j, k))
			}
		}
		den.ReflectHalos(goldenHalo)
		op, err := stencil.BuildOperator(par.Serial, den, 0.04, stencil.Conductivity, grid.AllSides)
		if err != nil {
			t.Fatal(err)
		}
		p := Problem{Op: op, U: rhs.Clone(), RHS: rhs}
		res, err := Solve(kind, p, goldenOpts(nil, precond.NewJacobi(par.Serial, op), fused))
		if err != nil {
			t.Fatalf("serial 2D %s: %v", kind, err)
		}
		if !res.Converged {
			t.Fatalf("serial 2D %s did not converge: %+v", kind, res)
		}
		return res.Iterations, p.U.Norm2Interior()
	}

	part := grid.MustPartition(n, n, 1, 2, 2, 1)
	gg := grid.UnitGrid(n, n, 1, goldenHalo)
	gathered := grid.NewField(gg)
	iters := make([]int, part.Ranks())
	err := comm.Run(part, func(c *comm.RankComm) error {
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
		res, err := Solve(kind, p, goldenOpts(c, precond.NewJacobi(par.Serial, op), fused))
		if err != nil {
			return err
		}
		if !res.Converged {
			t.Errorf("2D %s ranks=4 rank %d: not converged: %+v", kind, c.Rank(), res)
		}
		iters[c.Rank()] = res.Iterations
		var dst *grid.Field
		if c.Rank() == 0 {
			dst = gathered
		}
		return c.GatherInterior(p.U, dst)
	})
	if err != nil {
		t.Fatalf("2D %s ranks=4: %v", kind, err)
	}
	return iters[0], gathered.Norm2Interior()
}

func norm3D(f *grid.Field) float64 {
	g := f.Grid
	var s float64
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				v := f.Cell(i, j, k)
				s += v * v
			}
		}
	}
	return math.Sqrt(s)
}

// goldenSolve3D is the 3D twin of goldenSolve2D on the denAt3D/rhsAt3D
// fields.
func goldenSolve3D(t *testing.T, kind Kind, ranks int, fused bool) (int, float64) {
	t.Helper()
	const n = goldenN3D
	if ranks == 1 {
		g := grid.UnitGrid(n, n, n, goldenHalo)
		den, rhs := grid.NewField(g), grid.NewField(g)
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					den.SetCell(i, j, k, denAt3D(i, j, k))
					rhs.SetCell(i, j, k, rhsAt3D(i, j, k))
				}
			}
		}
		den.ReflectHalos(goldenHalo)
		op, err := stencil.BuildOperator(par.Serial, den, 0.04, stencil.Conductivity, grid.AllSides)
		if err != nil {
			t.Fatal(err)
		}
		p := Problem{Op: op, U: rhs.Clone(), RHS: rhs}
		res, err := Solve(kind, p, goldenOpts(nil, precond.NewJacobi(par.Serial, op), fused))
		if err != nil {
			t.Fatalf("serial 3D %s: %v", kind, err)
		}
		if !res.Converged {
			t.Fatalf("serial 3D %s did not converge: %+v", kind, res)
		}
		return res.Iterations, norm3D(p.U)
	}

	part := grid.MustPartition(n, n, n, 2, 2, 1)
	gg := grid.UnitGrid(n, n, n, goldenHalo)
	gathered := grid.NewField(gg)
	iters := make([]int, part.Ranks())
	err := comm.Run(part, func(c *comm.RankComm) error {
		ext := part.ExtentOf(c.Rank())
		sub, err := gg.SubExtent(grid.Extent{X0: ext.X0, X1: ext.X1, Y0: ext.Y0, Y1: ext.Y1, Z0: ext.Z0, Z1: ext.Z1})
		if err != nil {
			return err
		}
		den, rhs := grid.NewField(sub), grid.NewField(sub)
		for k := 0; k < sub.NZ; k++ {
			for j := 0; j < sub.NY; j++ {
				for i := 0; i < sub.NX; i++ {
					den.SetCell(i, j, k, denAt3D(ext.X0+i, ext.Y0+j, ext.Z0+k))
					rhs.SetCell(i, j, k, rhsAt3D(ext.X0+i, ext.Y0+j, ext.Z0+k))
				}
			}
		}
		if err := c.Exchange(sub.Halo, den); err != nil {
			return err
		}
		phys := c.Physical()
		op, err := stencil.BuildOperator(par.Serial, den, 0.04, stencil.Conductivity,
			grid.Sides{Left: phys.Left, Right: phys.Right, Down: phys.Down,
				Up: phys.Up, Back: phys.Back, Front: phys.Front})
		if err != nil {
			return err
		}
		p := Problem{Op: op, U: rhs.Clone(), RHS: rhs}
		res, err := Solve(kind, p, goldenOpts(c, precond.NewJacobi(par.Serial, op), fused))
		if err != nil {
			return err
		}
		if !res.Converged {
			t.Errorf("3D %s ranks=4 rank %d: not converged: %+v", kind, c.Rank(), res)
		}
		iters[c.Rank()] = res.Iterations
		var dst *grid.Field
		if c.Rank() == 0 {
			dst = gathered
		}
		return c.GatherInterior(p.U, dst)
	})
	if err != nil {
		t.Fatalf("3D %s ranks=4: %v", kind, err)
	}
	return iters[0], norm3D(gathered)
}

func TestGoldenEquivalence(t *testing.T) {
	gen := os.Getenv("GOLDEN_GEN") != ""
	var keys []goldenKey
	for _, kind := range []Kind{KindCG, KindCheby, KindPPCG} {
		for _, dims := range []int{2, 3} {
			for _, ranks := range []int{1, 4} {
				for _, fused := range []bool{true, false} {
					keys = append(keys, goldenKey{kind, dims, ranks, fused})
				}
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })

	for _, key := range keys {
		key := key
		t.Run(key.String(), func(t *testing.T) {
			var iters int
			var norm float64
			if key.dims == 2 {
				iters, norm = goldenSolve2D(t, key.kind, key.ranks, key.fused)
			} else {
				iters, norm = goldenSolve3D(t, key.kind, key.ranks, key.fused)
			}
			if gen {
				fmt.Printf("\t{%q, %d, %d, %v}: {%d, %.15g},\n", key.kind, key.dims, key.ranks, key.fused, iters, norm)
				return
			}
			want, ok := goldenTable[key]
			if !ok {
				t.Fatalf("no golden entry for %s (run with GOLDEN_GEN=1 to generate)", key)
			}
			if d := iters - want.iters; d < -1 || d > 1 {
				t.Errorf("%s: %d iterations, golden %d (want ±1)", key, iters, want.iters)
			}
			if rel := math.Abs(norm-want.norm) / want.norm; rel > 1e-10 {
				t.Errorf("%s: solution norm %.15g differs from golden %.15g by %v (want ≤1e-10)",
					key, norm, want.norm, rel)
			}
		})
	}
}
