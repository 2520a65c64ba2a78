package core

import (
	"math"
	"testing"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/problem"
)

// The CG-family engines the cache-tiled scheduler must leave golden.
// PPCG rides along because its bootstrap and inner smoothing reuse the
// fused machinery.
type tiledVariant struct {
	name      string
	solver    string
	pipelined bool
}

var tiledVariants = []tiledVariant{
	{"cg-fused", "cg", false},
	{"cg-pipelined", "cg", true},
	{"ppcg", "ppcg", false},
}

func runTiled2D(t *testing.T, v tiledVariant, tile bool, workers int) *grid.Field2D {
	t.Helper()
	d := problem.BenchmarkDeck(48)
	d.Solver = v.solver
	d.Pipelined = v.pipelined
	d.Eps = 1e-11
	d.EigenCGIters = 10
	if tile {
		d.Tiling = true
		d.TileY = 8
	}
	pool := par.Serial
	if workers > 1 {
		pool = par.NewPool(workers)
		defer pool.Close()
	}
	inst, err := NewSerial(d, pool)
	if err != nil {
		t.Fatalf("%s tile=%v w%d: %v", v.name, tile, workers, err)
	}
	if _, err := inst.Run(2); err != nil {
		t.Fatalf("%s tile=%v w%d: %v", v.name, tile, workers, err)
	}
	return inst.Energy
}

func runTiled3D(t *testing.T, v tiledVariant, tile bool, workers int) *grid.Field3D {
	t.Helper()
	d := problem.BenchmarkDeck3D(16)
	d.Solver = v.solver
	d.Pipelined = v.pipelined
	d.Eps = 1e-11
	d.EigenCGIters = 10
	if tile {
		d.Tiling = true
		d.TileY = 5
		d.TileZ = 3
	}
	pool := par.Serial
	if workers > 1 {
		pool = par.NewPool(workers)
		defer pool.Close()
	}
	inst, err := NewSerial3D(d, pool)
	if err != nil {
		t.Fatalf("%s tile=%v w%d: %v", v.name, tile, workers, err)
	}
	if _, err := inst.Run(2); err != nil {
		t.Fatalf("%s tile=%v w%d: %v", v.name, tile, workers, err)
	}
	return inst.Energy
}

// TestTiled2DGoldenAndWorkerInvariant pins the tiled execution contract
// end-to-end from a deck: with tl_tiling on, the energy field is
// BIT-IDENTICAL across worker counts (the fixed-order tile fold), and
// matches the untiled golden within solver tolerance.
func TestTiled2DGoldenAndWorkerInvariant(t *testing.T) {
	for _, v := range tiledVariants {
		ref := runTiled2D(t, v, false, 1)
		base := runTiled2D(t, v, true, 1)
		if d := base.MaxDiff(ref); d > 1e-8 {
			t.Errorf("%s: tiled energy differs from untiled golden by %v", v.name, d)
		}
		for _, w := range []int{2, 4, 7} {
			got := runTiled2D(t, v, true, w)
			for k := 0; k < 48; k++ {
				for j := 0; j < 48; j++ {
					if got.At(j, k) != base.At(j, k) {
						t.Fatalf("%s: tiled run with %d workers is not bit-identical to 1 worker at (%d,%d): %v != %v",
							v.name, w, j, k, got.At(j, k), base.At(j, k))
					}
				}
			}
		}
	}
}

// TestTiled3DGoldenAndWorkerInvariant is the 3D twin.
func TestTiled3DGoldenAndWorkerInvariant(t *testing.T) {
	for _, v := range tiledVariants {
		ref := runTiled3D(t, v, false, 1)
		base := runTiled3D(t, v, true, 1)
		if d := base.MaxDiff(ref); d > 1e-8 {
			t.Errorf("%s: tiled energy differs from untiled golden by %v", v.name, d)
		}
		for _, w := range []int{2, 4, 7} {
			got := runTiled3D(t, v, true, w)
			for k := 0; k < 16; k++ {
				for j := 0; j < 16; j++ {
					for i := 0; i < 16; i++ {
						if got.At(i, j, k) != base.At(i, j, k) {
							t.Fatalf("%s: tiled run with %d workers is not bit-identical to 1 worker at (%d,%d,%d): %v != %v",
								v.name, w, i, j, k, got.At(i, j, k), base.At(i, j, k))
						}
					}
				}
			}
		}
	}
}

// TestTiledAutoShapeFromDeck exercises the auto-tuned path: tl_tiling
// with no explicit edges resolves a shape from the host cache model (or
// stays untiled when the sweep is LLC-resident) and still runs golden.
func TestTiledAutoShapeFromDeck(t *testing.T) {
	v := tiledVariants[0]
	ref := runTiled2D(t, v, false, 1)
	d := problem.BenchmarkDeck(48)
	d.Solver = v.solver
	d.Eps = 1e-11
	d.Tiling = true // all edges 0 = auto
	inst, err := NewSerial(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Run(2); err != nil {
		t.Fatal(err)
	}
	if diff := inst.Energy.MaxDiff(ref); diff > 1e-8 {
		t.Errorf("auto-tiled energy differs from untiled golden by %v", diff)
	}
}

// TestSetTimestepReusesCoarseOperator pins the deflation E-cache
// contract: while dt (and hence the operator) is unchanged, stepping and
// same-dt SetTimestep calls perform NO coarse re-assembly — the cached
// E = WᵀAW and its factorization carry over, saving the assembly's
// reduction round — and a genuine dt change re-assembles exactly once.
func TestSetTimestepReusesCoarseOperator(t *testing.T) {
	d := problem.BenchmarkDeck(32)
	d.Solver = "cg"
	d.UseDeflation = true
	d.DeflationBlocks = 4
	inst, err := NewSerial(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := inst.Comm.Trace()

	base := tr.Reductions
	if err := inst.SetTimestep(d.InitialTimestep); err != nil {
		t.Fatal(err)
	}
	if tr.Reductions != base {
		t.Errorf("same-dt SetTimestep must keep the cached coarse operator (zero reduction rounds), added %d",
			tr.Reductions-base)
	}

	if err := inst.SetTimestep(d.InitialTimestep * 2); err != nil {
		t.Fatal(err)
	}
	if got := tr.Reductions - base; got != 1 {
		t.Errorf("changed-dt SetTimestep reduction rounds = %d, want exactly 1 (the E re-assembly)", got)
	}

	// The refreshed projector must still solve, and time must advance by
	// the new dt.
	if _, err := inst.Step(); err != nil {
		t.Fatal(err)
	}
	if want := 2 * d.InitialTimestep; math.Abs(inst.Time()-want) > 1e-15 {
		t.Errorf("sim time after one doubled step = %v, want %v", inst.Time(), want)
	}
	if err := inst.SetTimestep(-1); err == nil {
		t.Error("non-positive dt must be rejected")
	}
}

// TestSetTimestep3DRefreshesProjector is the 3D twin: a dt change
// re-assembles E exactly once and the run stays convergent.
func TestSetTimestep3DRefreshesProjector(t *testing.T) {
	d := problem.BenchmarkDeck3D(12)
	d.Solver = "cg"
	d.UseDeflation = true
	d.DeflationBlocks = 3
	inst, err := NewSerial3D(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := inst.Comm.Trace()
	base := tr.Reductions
	if err := inst.SetTimestep(d.InitialTimestep); err != nil {
		t.Fatal(err)
	}
	if tr.Reductions != base {
		t.Error("same-dt SetTimestep must not re-assemble the 3D coarse operator")
	}
	if err := inst.SetTimestep(d.InitialTimestep * 0.5); err != nil {
		t.Fatal(err)
	}
	if got := tr.Reductions - base; got != 1 {
		t.Errorf("changed-dt SetTimestep reduction rounds = %d, want 1", got)
	}
	if _, err := inst.Step(); err != nil {
		t.Fatal(err)
	}
}

// TestDeepHaloFusedCGDeckTrace pins the matrix-powers cadence for the
// fused CG engine from a deck: with tl_ppcg_halo_depth=3 the recurrence
// vectors are exchanged once per 3 iterations (not per iteration), and
// the solution matches the depth-1 golden.
func TestDeepHaloFusedCGDeckTrace(t *testing.T) {
	run := func(depth int) (*Instance, int) {
		d := problem.BenchmarkDeck(32)
		d.Solver = "cg"
		d.HaloDepth = depth
		d.Eps = 1e-11
		inst, err := NewSerial(d, nil)
		if err != nil {
			t.Fatal(err)
		}
		inst.Comm.Trace().Reset() // drop the setup-time density exchange
		res, err := inst.Step()
		if err != nil {
			t.Fatal(err)
		}
		return inst, res.Iterations
	}
	ref, _ := run(1)
	deep, iters := run(3)
	if d := deep.Energy.MaxDiff(ref.Energy); d > 1e-10 {
		t.Errorf("depth-3 fused CG energy differs from depth-1 by %v", d)
	}
	tr := deep.Comm.Trace()
	got := tr.ExchangesByDepth[3]
	want := (iters + 2) / 3 // one cycle-top exchange per 3 iterations
	if got == 0 || got > want+1 {
		t.Errorf("depth-3 exchanges = %d over %d iterations, want about %d (one per 3 sweeps, not per sweep); byDepth=%v",
			got, iters, want, tr.ExchangesByDepth)
	}
	if tr.ExchangesByDepth[1] >= iters {
		t.Errorf("deep cycle still exchanging every iteration: %d depth-1 exchanges over %d iterations",
			tr.ExchangesByDepth[1], iters)
	}
}

// TestDeepHaloDeflatedCGDeckTrace proves depth s>1 is reachable from a
// DEFLATED fused-CG deck: the projector's extended-bounds path keeps the
// one-exchange-per-s-sweeps cadence and the depth-1 golden.
func TestDeepHaloDeflatedCGDeckTrace(t *testing.T) {
	run := func(depth int) (*Instance, int) {
		d := problem.BenchmarkDeck(32)
		d.Solver = "cg"
		d.UseDeflation = true
		d.DeflationBlocks = 4
		d.HaloDepth = depth
		d.Eps = 1e-11
		inst, err := NewSerial(d, nil)
		if err != nil {
			t.Fatal(err)
		}
		inst.Comm.Trace().Reset()
		res, err := inst.Step()
		if err != nil {
			t.Fatal(err)
		}
		return inst, res.Iterations
	}
	ref, _ := run(1)
	deep, iters := run(2)
	if d := deep.Energy.MaxDiff(ref.Energy); d > 1e-10 {
		t.Errorf("depth-2 deflated CG energy differs from depth-1 by %v", d)
	}
	tr := deep.Comm.Trace()
	got := tr.ExchangesByDepth[2]
	want := (iters + 1) / 2
	if got == 0 || got > want+1 {
		t.Errorf("depth-2 exchanges = %d over %d iterations, want about %d; byDepth=%v",
			got, iters, want, tr.ExchangesByDepth)
	}
}
