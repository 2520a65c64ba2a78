// Package model is the strong-scaling engine behind the paper's Figures
// 5–8: it prices one time step of a given solver configuration on a
// machine.Machine at any node count, using iteration counts measured on
// real solves (calibrate.go) and the communication/computation structure
// of the solvers in internal/solver.
//
// The model is deliberately analytic — the same five effects the machine
// package parameterises — because the quantities it multiplies (matvecs,
// vector passes, reductions, exchanges, message sizes, redundant
// matrix-powers cells) are exactly what the instrumented solvers record.
// Absolute seconds depend on nominal hardware constants; the reproduction
// targets the curve shapes: who wins, by what factor, where the
// crossovers and plateaus fall.
package model

import (
	"fmt"
	"math"

	"tealeaf/internal/grid"
	"tealeaf/internal/machine"
)

// Bytes-per-cell coefficients of the bandwidth-bound kernels (8-byte
// reals; loads+stores per cell, assuming streaming reuse of stencil
// neighbours as in §III-A's "two loads and one store" characterisation).
const (
	bytesMatvec     = 40.0 // p, w, Kx, Ky + diagonal reuse
	bytesVectorPass = 24.0 // AXPY-class triad
	bytesDot        = 16.0
	bytesCopy       = 16.0
	bytesPrecond    = 48.0 // block-Jacobi strip solve
	bytesSmooth     = 64.0 // MG smoother: residual + correction
	bytesTransfer   = 24.0 // MG restriction/prolongation
	bytesJacobiIt   = 56.0 // Jacobi sweep: matvec-like + copy + error
)

// SolverKind names a priced configuration.
type SolverKind string

// Configurations the figures sweep.
const (
	CG        SolverKind = "cg"
	PPCG      SolverKind = "ppcg"
	Jacobi    SolverKind = "jacobi"
	BoomerAMG SolverKind = "boomeramg" // CG + AMG-like V-cycle baseline
)

// Config describes one solver configuration to price.
type Config struct {
	Kind SolverKind
	// HaloDepth is the matrix-powers exchange depth (PPCG; 1 = classic).
	HaloDepth int
	// InnerSteps is PPCG's Chebyshev steps per outer iteration.
	InnerSteps int
	// Hybrid selects one rank per node with a thread team (§IV-A);
	// false is flat MPI with one rank per core.
	Hybrid bool
	// MGLevels / MGCoarseIters parameterise the BoomerAMG-like baseline's
	// V-cycle (levels ≈ log₂(N/8); coarse CG iterations per cycle).
	MGLevels      int
	MGCoarseIters int
}

// Label renders the figure-legend name ("PPCG - 16", "CG - 1", ...).
func (c Config) Label() string {
	switch c.Kind {
	case PPCG:
		return fmt.Sprintf("PPCG - %d", c.HaloDepth)
	case CG:
		return fmt.Sprintf("CG - %d", max(1, c.HaloDepth))
	case BoomerAMG:
		return "BoomerAMG"
	}
	return string(c.Kind)
}

// Workload is the problem being strong-scaled.
type Workload struct {
	// Mesh is N for an N×N grid (the paper fixes 4000).
	Mesh int
	// Steps is the number of implicit time steps (375 for 15 µs).
	Steps int
	// ItersPerStep is the average outer iterations per time step at this
	// mesh, from calibration.
	ItersPerStep float64
}

// Breakdown decomposes one step's modelled time.
type Breakdown struct {
	Compute float64 // bandwidth-bound kernel time
	Launch  float64 // fixed kernel-invocation overhead
	Halo    float64 // point-to-point exchanges (incl. PCIe staging)
	Reduce  float64 // global reductions
	Setup   float64 // amortised per-step setup (BoomerAMG hierarchy)
}

// Total sums the components.
func (b Breakdown) Total() float64 {
	return b.Compute + b.Launch + b.Halo + b.Reduce + b.Setup
}

// TimeToSolution prices the full run (Steps × per-step time) on nodes
// nodes of m. It returns the total seconds and the per-step breakdown.
func TimeToSolution(m machine.Machine, cfg Config, w Workload, nodes int) (float64, Breakdown) {
	step := StepTime(m, cfg, w, nodes)
	return float64(w.Steps) * step.Total(), step
}

// StepTime prices one implicit time step.
func StepTime(m machine.Machine, cfg Config, w Workload, nodes int) Breakdown {
	// Rank geometry. Hybrid: one rank per node; flat: one per core
	// (GPU machines are always "hybrid" in this sense — one rank drives
	// the device).
	ranksPerNode := 1
	if !cfg.Hybrid && m.Device.HostTransferBW == 0 {
		ranksPerNode = m.CoresPerNode
	}
	ranks := nodes * ranksPerNode
	if ranks > w.Mesh*w.Mesh {
		ranks = w.Mesh * w.Mesh
	}
	px, py, _ := grid.FactorRanks(ranks, w.Mesh, w.Mesh, 1)
	subX := float64(w.Mesh) / float64(px)
	subY := float64(w.Mesh) / float64(py)
	cellsRank := subX * subY
	cellsNode := cellsRank * float64(ranksPerNode)

	// Effective bandwidth: per-node working set against the LLC model.
	// ~6 live arrays of 8 bytes per cell.
	ws := cellsNode * 6 * 8
	bw := m.Device.EffectiveBW(ws)
	// The node's bandwidth is shared by its ranks.
	bwRank := bw / float64(ranksPerNode)

	iters := w.ItersPerStep
	var bd Breakdown

	// Helper closures.
	computeTime := func(bytesPerCell, cells float64) float64 { return bytesPerCell * cells / bwRank }
	launch := func(kernels float64) float64 { return kernels * m.Device.KernelLatency }
	haloMsg := func(sideCells, depth, fields float64) float64 {
		bytes := sideCells * depth * fields * 8
		t := m.Network.MessageTime(bytes, nodes)
		if m.Device.HostTransferBW > 0 {
			t += m.Device.HostTransferLatency + bytes/m.Device.HostTransferBW
		}
		return t
	}
	// One exchange: two phases; each phase's sends overlap, so charge the
	// max-side message per phase (x then y).
	exchange := func(depth, fields float64) float64 {
		return haloMsg(subY, depth, fields) + haloMsg(subX+2*depth, depth, fields) + launch(4)
	}
	reduce := func(n float64) float64 { return n * m.Network.AllReduceTime(ranks) }

	switch cfg.Kind {
	case CG:
		perIter := computeTime(bytesMatvec+3*bytesVectorPass+2*bytesDot, cellsRank)
		bd.Compute = iters * perIter
		bd.Launch = iters * launch(6)
		bd.Halo = iters * exchange(1, 1)
		bd.Reduce = iters * reduce(2)

	case Jacobi:
		bd.Compute = iters * computeTime(bytesJacobiIt, cellsRank)
		bd.Launch = iters * launch(4)
		bd.Halo = iters * exchange(1, 1)
		bd.Reduce = iters * reduce(1)

	case PPCG:
		d := float64(max(1, cfg.HaloDepth))
		mSteps := float64(max(1, cfg.InnerSteps))
		// Outer CG part.
		outer := computeTime(bytesMatvec+4*bytesVectorPass+2*bytesDot, cellsRank)
		bd.Compute = iters * outer
		bd.Launch = iters * launch(6)
		bd.Halo = iters * exchange(1, 1)
		bd.Reduce = iters * reduce(2)
		// Inner Chebyshev steps on matrix-powers extended bounds.
		innerCells := matrixPowersCells(subX, subY, int(d), int(mSteps))
		bd.Compute += iters * computeTime(bytesMatvec+3*bytesVectorPass, innerCells/mSteps) * mSteps
		bd.Launch += iters * mSteps * launch(3)
		exchanges := math.Ceil(mSteps / d)
		bd.Halo += iters * exchanges * exchange(d, 2)

	case BoomerAMG:
		levels := cfg.MGLevels
		if levels <= 0 {
			levels = int(math.Log2(float64(w.Mesh)/8)) + 1
		}
		coarseIters := float64(cfg.MGCoarseIters)
		if coarseIters <= 0 {
			// BoomerAMG's coarse hierarchy continues far below our
			// geometric cut-off, through levels whose communication is
			// purely latency-bound; priced as latency-dominated coarse
			// iterations.
			coarseIters = 70
		}
		// Algebraic multigrid carries denser coarse operators and heavier
		// per-level communication than the geometric V-cycle we measured;
		// Hypre's reported operator/communication complexities on 2D
		// stencil problems motivate this multiplier.
		const opComplexity = 2.5
		// Outer PCG wrapper.
		bd.Compute = iters * computeTime(bytesMatvec+3*bytesVectorPass+2*bytesDot, cellsRank)
		bd.Launch = iters * launch(7)
		bd.Halo = iters * exchange(1, 1)
		bd.Reduce = iters * reduce(2)
		// V-cycle per outer iteration.
		for l := 0; l < levels; l++ {
			cl := cellsRank / math.Pow(4, float64(l))
			sx := subX / math.Pow(2, float64(l))
			sy := subY / math.Pow(2, float64(l))
			// 4 smoothing sweeps + residual + transfers, scaled by the
			// AMG operator complexity.
			bd.Compute += iters * computeTime(opComplexity*(4*bytesSmooth+bytesMatvec+2*bytesTransfer), cl)
			bd.Launch += iters * launch(10)
			// Each sweep and the residual exchange a depth-1 halo; coarse
			// levels are latency-bound (tiny messages, same latency), and
			// AMG's wider coarse stencils need more neighbour messages.
			lvlExch := haloMsg(math.Max(sy, 1), 1, 1) + haloMsg(math.Max(sx, 1)+2, 1, 1) + launch(4)
			bd.Halo += iters * 6 * opComplexity * lvlExch
		}
		// Coarse solve: CG on the tiny coarsest level — pure reduction
		// latency at scale. This term is why the baseline's curve turns
		// up beyond ~32 nodes (Fig. 7).
		bd.Reduce += iters * reduce(2*coarseIters)
		bd.Compute += iters * computeTime(coarseIters*(bytesMatvec+3*bytesVectorPass),
			cellsRank/math.Pow(4, float64(levels-1)))
		// Setup: hierarchy construction (≈10 fine-grid passes of work)
		// plus communication that grows with both levels and node count,
		// amortised over the run's steps. BoomerAMG re-partitions coarse
		// grids collectively, which is the paper's "set up cost for the
		// nested operators is expensive".
		setup := computeTime(10*bytesMatvec, cellsRank) +
			float64(levels)*(20*m.Network.MessageTime(4096, nodes)+4*m.Network.AllReduceTime(ranks))
		bd.Setup = setup / float64(w.Steps) * 8 // PETSc rebuilds contexts frequently

	default:
		panic(fmt.Sprintf("model: unknown solver kind %q", cfg.Kind))
	}
	return bd
}

// matrixPowersCells returns the total cells computed over one full pass of
// mSteps inner applications with exchange depth d on a subX×subY interior
// (all four sides extended — the interior-rank worst case the model
// prices).
func matrixPowersCells(subX, subY float64, d, mSteps int) float64 {
	total := 0.0
	ext := 0
	remaining := 0
	for s := 0; s < mSteps; s++ {
		if remaining == 0 {
			remaining = d
			ext = d - 1
		}
		total += (subX + 2*float64(ext)) * (subY + 2*float64(ext))
		if ext > 0 {
			ext--
		}
		remaining--
	}
	return total
}

// Efficiency converts a strong-scaling series into scaling efficiency
// relative to its first point: E(P) = T(P₀)·P₀ / (T(P)·P) (Fig. 8's
// y-axis; >1 is super-linear).
func Efficiency(nodes []int, times []float64) []float64 {
	out := make([]float64, len(times))
	if len(times) == 0 {
		return out
	}
	base := times[0] * float64(nodes[0])
	for i := range times {
		out[i] = base / (times[i] * float64(nodes[i]))
	}
	return out
}

// Series prices a whole strong-scaling sweep.
func Series(m machine.Machine, cfg Config, w Workload, nodes []int) []float64 {
	out := make([]float64, len(nodes))
	for i, p := range nodes {
		out[i], _ = TimeToSolution(m, cfg, w, p)
	}
	return out
}

// Doublings returns the power-of-two node counts from 1 to maxNodes
// (the x-axes of Figs. 5–7).
func Doublings(maxNodes int) []int {
	var out []int
	for p := 1; p <= maxNodes; p *= 2 {
		out = append(out, p)
	}
	return out
}
