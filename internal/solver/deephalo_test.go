package solver

import (
	"fmt"
	"reflect"
	"testing"

	"tealeaf/internal/comm"
	"tealeaf/internal/deflate"
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/precond"
	"tealeaf/internal/stats"
	"tealeaf/internal/stencil"
)

// deepHaloVariant names one deep-halo CG engine combination under test.
type deepHaloVariant struct {
	name     string
	engine   Engine
	deflated bool
}

var deepHaloVariants = []deepHaloVariant{
	{"fused", EngineFused, false},
	{"pipelined", EnginePipelined, false},
	{"deflated-fused", EngineFused, true},
	{"deflated-pipelined", EnginePipelined, true},
}

// deepHaloPool builds a rank's tiled worker pool with short tile rows, so
// the fixed tile-order folds span several tiles even on the test meshes.
func deepHaloPool(workers, dims int) *par.Pool {
	p := par.NewPool(workers).WithGrain(1)
	if dims == 3 {
		return p.WithTiles(0, 0, 4)
	}
	return p.WithTiles(0, 4, 0)
}

// deepHaloRun solves the deterministic denAt2D/rhsAt2D problem (24², or
// denAt3D/rhsAt3D on 12³ when dims is 3) with Jacobi and the given engine
// variant at the given halo depth on a tiled pool, and returns the
// iteration count, the gathered solution and rank 0's solver-only trace.
func deepHaloRun(t *testing.T, v deepHaloVariant, dims, ranks, workers, depth int) (int, *grid.Field, stats.Trace) {
	t.Helper()
	label := fmt.Sprintf("%dD %s ranks=%d workers=%d depth=%d", dims, v.name, ranks, workers, depth)
	n, nz := 24, 1
	layouts := map[int][3]int{1: {1, 1, 1}, 2: {2, 1, 1}, 4: {2, 2, 1}}
	if dims == 3 {
		n, nz = 12, 12
		layouts = map[int][3]int{1: {1, 1, 1}, 2: {1, 1, 2}, 4: {1, 2, 2}}
	}
	pl, ok := layouts[ranks]
	if !ok {
		t.Fatalf("%s: no layout", label)
	}
	part := grid.MustPartition(n, n, nz, pl[0], pl[1], pl[2])
	gg := grid.UnitGrid(n, n, nz, max(depth, 2))
	gathered := grid.NewField(gg)
	var iters int
	var tr stats.Trace
	err := comm.Run(part, func(c *comm.RankComm) error {
		ext := part.ExtentOf(c.Rank())
		sub, err := gg.SubExtent(ext)
		if err != nil {
			return err
		}
		den, rhs := grid.NewField(sub), grid.NewField(sub)
		for k := 0; k < sub.NZ; k++ {
			for j := 0; j < sub.NY; j++ {
				for i := 0; i < sub.NX; i++ {
					x, y, z := ext.X0+i, ext.Y0+j, ext.Z0+k
					if dims == 3 {
						den.SetCell(i, j, k, denAt3D(x, y, z))
						rhs.SetCell(i, j, k, rhsAt3D(x, y, z))
					} else {
						den.SetCell(i, j, k, denAt2D(x, y))
						rhs.SetCell(i, j, k, rhsAt2D(x, y))
					}
				}
			}
		}
		if err := c.Exchange(sub.Halo, den); err != nil {
			return err
		}
		pool := deepHaloPool(workers, dims)
		phys := c.Physical()
		if dims != 3 {
			phys.Back, phys.Front = false, false
		}
		op, err := stencil.BuildOperator(pool, den, 0.04, stencil.Conductivity, phys)
		if err != nil {
			return err
		}
		opts := Options{
			Tol: 1e-10, Comm: c, Pool: pool,
			HaloDepth: depth, Engine: v.engine,
			Precond: precond.NewJacobi(pool, op),
		}
		if v.deflated {
			geom := deflate.Geometry{GlobalNX: n, GlobalNY: n, OffsetX: ext.X0, OffsetY: ext.Y0}
			cfg := deflate.Config{BX: 4, BY: 4, Levels: 1}
			if dims == 3 {
				geom.GlobalNZ, geom.OffsetZ = n, ext.Z0
				cfg = deflate.Config{BX: 3, BY: 3, BZ: 3, Levels: 1}
			}
			defl, err := deflate.New(par.Serial, c, op, geom, cfg)
			if err != nil {
				return err
			}
			opts.Deflation = defl
		}
		p := Problem{Op: op, U: rhs.Clone(), RHS: rhs}
		c.Trace().Reset() // setup exchanges are not part of the solve
		res, err := SolveCG(p, opts)
		if err != nil {
			return err
		}
		if !res.Converged {
			t.Errorf("%s: not converged: %+v", label, res)
		}
		if res.Plan.Engine != v.engine || res.Plan.CycleDepth != depth {
			t.Errorf("%s: plan %v, want engine=%s cycle-depth=%d", label, res.Plan, v.engine, depth)
		}
		var dst *grid.Field
		if c.Rank() == 0 {
			iters = res.Iterations
			tr = *c.Trace()
			dst = gathered
		}
		return c.GatherInterior(p.U, dst)
	})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return iters, gathered, tr
}

// TestDeepHaloWorkerInvariance: the deep-halo fused and pipelined CG
// cycles, plain and deflated, on tiled pools must not depend on the
// worker count. For every variant × {2D depth 3, 3D depth 2} × ranks
// {1,2,4}, runs on 2, 4 and 7 workers must match the 1-worker run bit
// for bit, with equal iteration counts and equal trace counters: the
// sweeps on extended bounds and the fixed tile-order reduction folds
// leave no room for a scheduling-dependent bit.
func TestDeepHaloWorkerInvariance(t *testing.T) {
	for _, dd := range []struct{ dims, depth int }{{2, 3}, {3, 2}} {
		for _, v := range deepHaloVariants {
			for _, ranks := range []int{1, 2, 4} {
				refIters, refU, refTr := deepHaloRun(t, v, dd.dims, ranks, 1, dd.depth)
				if deepEx := refTr.ExchangesByDepth[dd.depth]; deepEx == 0 || deepEx > (refIters+dd.depth-1)/dd.depth+3 {
					t.Errorf("%dD %s ranks=%d: %d depth-%d exchanges over %d iterations, want at least one and at most one per %d iterations",
						dd.dims, v.name, ranks, deepEx, dd.depth, refIters, dd.depth)
				}
				for _, workers := range []int{2, 4, 7} {
					label := fmt.Sprintf("%dD/%s/ranks=%d/workers=%d", dd.dims, v.name, ranks, workers)
					iters, u, tr := deepHaloRun(t, v, dd.dims, ranks, workers, dd.depth)
					if iters != refIters {
						t.Errorf("%s: %d iterations, 1 worker took %d", label, iters, refIters)
					}
					if d := u.MaxDiff(refU); d != 0 {
						t.Errorf("%s: solution differs from 1 worker by %v (want bit-identical)", label, d)
					}
					if !reflect.DeepEqual(tr, refTr) {
						t.Errorf("%s: trace %+v differs from 1 worker's %+v", label, tr, refTr)
					}
				}
			}
		}
	}
}
