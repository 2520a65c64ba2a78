package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"tealeaf/internal/comm"
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/precond"
	"tealeaf/internal/solver"
	"tealeaf/internal/stencil"
)

// The overlap experiment measures what PR 6 buys: the pipelined CG
// engine (the per-iteration reduction round overlapped with the matvec)
// against the fused engine, across rank counts and comm backends. Each
// (backend, ranks, mesh) cell runs both engines round-robin inside ONE
// communicator session, so the comparison shares its time slice on a
// bandwidth-drifting host; timings are min-of-reps of rank-0 wall time
// between barriers.

type overlapRow struct {
	Backend   string  `json:"backend"` // serial | hub | tcp
	Ranks     int     `json:"ranks"`
	Mesh      int     `json:"mesh"` // global cells per side
	Impl      string  `json:"impl"` // fused | pipelined
	Iters     int     `json:"iters_per_rep"`
	NsPerIter float64 `json:"ns_per_iter"`
	NsPerCell float64 `json:"ns_per_cell_iter"`
}

type overlapReport struct {
	Generated  string             `json:"generated"`
	GoVersion  string             `json:"go_version"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Reps       int                `json:"reps"`
	Notes      []string           `json:"notes"`
	Rows       []overlapRow       `json:"cg_iteration"`
	Summary    map[string]float64 `json:"summary"`
}

const overlapReps = 3

// overlapDen and overlapRHS paint the measured problem from global
// coordinates, so every decomposition solves the identical system.
func overlapDen(i, j int) float64 { return 0.5 + 4*float64((i*37+j*61)%101)/101 }

func overlapRHS(i, j, n int) float64 {
	if i > n/4 && i < n/2 && j > n/4 && j < n/2 {
		return 10
	}
	return 0.1
}

// runOverlapCell measures every engine at one (backend, ranks, mesh)
// point. The rank function builds this rank's slice of the global
// problem, warms up, then times cfgs round-robin; rank 0's
// barrier-to-barrier wall time is the cell's cost.
func runOverlapCell(backend string, px, py, n, iters int, cfgs []solver.Engine) ([]overlapRow, error) {
	best := make([]time.Duration, len(cfgs))
	ranks := px * py
	rankFn := func(c comm.Communicator) error {
		var part *grid.Partition
		var ext grid.Extent
		gg := grid.UnitGrid(n, n, 1, 2)
		sub := gg
		if ranks > 1 {
			part = grid.MustPartition(n, n, 1, px, py, 1)
			ext = part.ExtentOf(c.Rank())
			var err error
			sub, err = gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1)
			if err != nil {
				return err
			}
		}
		den := grid.NewField(sub)
		rhs := grid.NewField(sub)
		for k := 0; k < sub.NY; k++ {
			for j := 0; j < sub.NX; j++ {
				den.Set(j, k, overlapDen(ext.X0+j, ext.Y0+k))
				rhs.Set(j, k, overlapRHS(ext.X0+j, ext.Y0+k, n))
			}
		}
		if ranks > 1 {
			if err := c.Exchange(sub.Halo, den); err != nil {
				return err
			}
		} else {
			den.ReflectHalos(sub.Halo)
		}
		phys := c.Physical()
		op, err := stencil.BuildOperator(par.Serial, den, 0.04, stencil.Conductivity,
			grid.Sides{Left: phys.Left, Right: phys.Right, Down: phys.Down, Up: phys.Up})
		if err != nil {
			return err
		}
		u0 := rhs.Clone()
		p := solver.Problem{Op: op, U: rhs.Clone(), RHS: rhs}
		solveOne := func(cfg solver.Engine, nIters int) error {
			p.U.CopyFrom(u0)
			_, err := solver.SolveCG(p, solver.Options{
				Tol: 1e-300, MaxIters: nIters, Comm: c,
				Precond: precond.NewJacobi(par.Serial, op),
				Engine:  cfg,
			})
			return err
		}
		// Warm up page faults and the TCP connections before timing.
		if err := solveOne(cfgs[0], 4); err != nil {
			return err
		}
		for rep := 0; rep < overlapReps; rep++ {
			for ci, cfg := range cfgs {
				c.Barrier()
				t0 := time.Now()
				if err := solveOne(cfg, iters); err != nil {
					return err
				}
				c.Barrier()
				if d := time.Since(t0); c.Rank() == 0 && (best[ci] == 0 || d < best[ci]) {
					best[ci] = d
				}
			}
		}
		return nil
	}

	var err error
	switch backend {
	case "serial":
		err = rankFn(comm.NewSerial())
	case "hub":
		err = comm.Run(grid.MustPartition(n, n, 1, px, py, 1), func(c *comm.RankComm) error { return rankFn(c) })
	case "tcp":
		err = comm.RunTCP(grid.MustPartition(n, n, 1, px, py, 1), rankFn)
	default:
		err = fmt.Errorf("unknown backend %q", backend)
	}
	if err != nil {
		return nil, err
	}
	rows := make([]overlapRow, len(cfgs))
	for ci, cfg := range cfgs {
		perIter := float64(best[ci].Nanoseconds()) / float64(iters)
		rows[ci] = overlapRow{
			Backend: backend, Ranks: ranks, Mesh: n, Impl: cfg.String(),
			Iters: iters, NsPerIter: perIter, NsPerCell: perIter / float64(n*n),
		}
	}
	return rows, nil
}

func overlapExperiment(cfg config) error {
	fmt.Println("== overlap: pipelined CG vs the fused engine ==")
	rep := overlapReport{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Reps:       overlapReps,
		Notes: []string{
			"impl=fused: the Chronopoulos-Gear single-reduction CG engine (the PR 2 baseline).",
			"impl=pipelined: Ghysels-Vanroose pipelined CG (tl_pipelined) — the iteration's one reduction round is started before the matvec and finished after it. Its whole vector phase is ONE fused sweep (kernels.PipelinedCGStep), which keeps its memory traffic at parity with the fused engine; what remains extra is the z/n recurrences and the delta dot, strictly additional FLOPs that buy the overlapped round.",
			"READ THIS before comparing impls: this host has ONE core. Overlap cannot win wall time here — while a rank waits in a blocking reduction the scheduler runs another rank's compute, so the fused engine's reduction latency is already hidden by oversubscription, and the pipelined engine's extra recurrences are pure cost. The pipelined rows are expected to trail fused by roughly their extra-FLOP fraction on this machine. The property this PR ships is structural and trace-verified (exactly one reduction round per iteration, never serialised against the matvec — see TestPipelinedCGTraceCounts): it pays off when ranks own cores and the allreduce costs real network latency, the paper's strong-scaling regime (section III-A), which a 1-core VM cannot reproduce.",
			"Both engines of a (backend, ranks, mesh) cell run round-robin inside one communicator session and share one operator; timings are rank-0 barrier-to-barrier wall time, min over reps. jac_diag preconditioner throughout (the foldable-diagonal regime both engines require).",
			"tcp ranks are in-process over loopback sockets; hub ranks are goroutines over channels. The host is a 1-core VM whose achievable bandwidth drifts tens of percent between runs — cross-row comparisons within a cell are meaningful, absolute GB/s and cross-cell deltas are weather.",
			"summary pct values are (base - new) / base * 100, positive = the new path is faster.",
		},
		Summary: map[string]float64{},
	}

	cfgs := []solver.Engine{solver.EngineFused, solver.EnginePipelined}
	cells := []struct {
		backend string
		px, py  int
		mesh    int
		iters   int
	}{
		{"serial", 1, 1, 1024, 48},
		{"serial", 1, 1, 2048, 24},
		{"hub", 2, 2, 1024, 48},
		{"hub", 2, 2, 2048, 24},
		{"tcp", 2, 2, 1024, 48},
		{"tcp", 2, 2, 2048, 24},
	}

	fmt.Println("-- cg iteration --")
	key := func(backend string, ranks, mesh int, impl string) string {
		return fmt.Sprintf("%s/%d/%d/%s", backend, ranks, mesh, impl)
	}
	perCell := map[string]float64{}
	for _, cell := range cells {
		rows, err := runOverlapCell(cell.backend, cell.px, cell.py, cell.mesh, cell.iters, cfgs)
		if err != nil {
			return fmt.Errorf("overlap %s %dx%d mesh %d: %w", cell.backend, cell.px, cell.py, cell.mesh, err)
		}
		for _, r := range rows {
			fmt.Printf("%-6s ranks=%d %5d²  %-9s %12.0f ns/iter  %6.3f ns/cell\n",
				r.Backend, r.Ranks, r.Mesh, r.Impl, r.NsPerIter, r.NsPerCell)
			perCell[key(r.Backend, r.Ranks, r.Mesh, r.Impl)] = r.NsPerCell
		}
		rep.Rows = append(rep.Rows, rows...)
	}

	pct := func(newer, base float64) float64 {
		if base <= 0 {
			return 0
		}
		return (base - newer) / base * 100
	}
	for _, mesh := range []int{1024, 2048} {
		for _, backend := range []string{"hub", "tcp"} {
			rep.Summary[fmt.Sprintf("pipelined_vs_fused_%s4_pct_%d", backend, mesh)] =
				pct(perCell[key(backend, 4, mesh, "pipelined")], perCell[key(backend, 4, mesh, "fused")])
		}
	}

	for k, v := range rep.Summary {
		fmt.Printf("summary %-42s %6.1f%%\n", k, v)
	}

	outPath := cfg.overlapOut
	if outPath == "" {
		outPath = "BENCH_overlap.json"
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
