package solver

import (
	"tealeaf/internal/comm"
	"tealeaf/internal/grid"
	"tealeaf/internal/halo"
	"tealeaf/internal/kernels"
	"tealeaf/internal/par"
	"tealeaf/internal/precond"
	"tealeaf/internal/stats"
	"tealeaf/internal/stencil"
)

// This file defines the solver core's execution backend. The CG,
// Chebyshev and PPCG single-reduction loops in loops.go are written once
// against the system below, which binds the rank-local grid's operator,
// preconditioner, communicator and kernels; a flat grid and a 3D grid run
// the same loops, the operator choosing its 5- or 7-point row kernels.

// system is one solve's execution backend: vector allocation, the
// stencil operator (plain, fused-dot and folded-preconditioner forms),
// the BLAS1 and fused update kernels, the configured preconditioner, halo
// exchange, and the matrix-powers schedule. All kernel methods are
// rank-local and trace-free: the engine wraps them with stats.Trace
// accounting and global reductions.
type system struct {
	p    *par.Pool
	op   *stencil.Operator
	m    precond.Preconditioner
	c    comm.Communicator
	defl Deflator
}

func newSystem(p Problem, o Options) *system {
	return &system{p: o.Pool, op: p.Op, m: o.Precond, c: o.Comm, defl: o.Deflation}
}

// NewVec allocates a zeroed field on the operator's grid.
func (s *system) NewVec() *grid.Field { return grid.NewField(s.op.Grid) }

// Interior returns the rank-local interior bounds.
func (s *system) Interior() grid.Bounds { return s.op.Grid.Interior() }

// GridHalo returns the allocated halo depth of the grid.
func (s *system) GridHalo() int { return s.op.Grid.Halo }

// Exchange refreshes halos to the given depth through the communicator.
func (s *system) Exchange(depth int, fields ...*grid.Field) error {
	return s.c.Exchange(depth, fields...)
}

// NewPowers builds the matrix-powers exchange schedule for the given
// depth, with adjacency taken from the communicator's physical sides.
func (s *system) NewPowers(depth int) (*halo.Schedule, error) {
	return halo.NewSchedule(s.op.Grid, depth, s.c.Physical().Not())
}

// Extend returns the interior expanded by n cells on every side with a
// rank neighbour (physical sides never extend: their halos are zero-flux
// mirrors, not data) — the matrix-powers extended bounds the deep-halo CG
// cycles sweep. n <= 0 returns the interior.
func (s *system) Extend(n int) grid.Bounds {
	in := s.op.Grid.Interior()
	if n <= 0 {
		return in
	}
	phys := s.c.Physical()
	ext := func(physical bool) int {
		if physical {
			return 0
		}
		return n
	}
	return in.ExpandSides(ext(phys.Left), ext(phys.Right), ext(phys.Down), ext(phys.Up),
		ext(phys.Back), ext(phys.Front), s.op.Grid)
}

// Rings decomposes outer ∖ interior into at most six disjoint boxes, for
// ring-only vector updates on the extended region: full-outer-XY back and
// front z-slabs, then full-outer-X south and north y-slabs at interior
// depth, then west and east strips at interior height and depth (a flat
// grid has no z-slabs).
func (s *system) Rings(outer grid.Bounds) []grid.Bounds {
	in := s.op.Grid.Interior()
	var rs []grid.Bounds
	add := func(b grid.Bounds) {
		if !b.Empty() {
			rs = append(rs, b)
		}
	}
	add(grid.Bounds{X0: outer.X0, X1: outer.X1, Y0: outer.Y0, Y1: outer.Y1, Z0: outer.Z0, Z1: in.Z0})
	add(grid.Bounds{X0: outer.X0, X1: outer.X1, Y0: outer.Y0, Y1: outer.Y1, Z0: in.Z1, Z1: outer.Z1})
	add(grid.Bounds{X0: outer.X0, X1: outer.X1, Y0: outer.Y0, Y1: in.Y0, Z0: in.Z0, Z1: in.Z1})
	add(grid.Bounds{X0: outer.X0, X1: outer.X1, Y0: in.Y1, Y1: outer.Y1, Z0: in.Z0, Z1: in.Z1})
	add(grid.Bounds{X0: outer.X0, X1: in.X0, Y0: in.Y0, Y1: in.Y1, Z0: in.Z0, Z1: in.Z1})
	add(grid.Bounds{X0: in.X1, X1: outer.X1, Y0: in.Y0, Y1: in.Y1, Z0: in.Z0, Z1: in.Z1})
	return rs
}

// interiorBox is the interior as a par iteration box — the box every
// chained accumulator and band schedule is built over, so chain folds
// replicate the unchained interior reductions' tile decomposition.
func (s *system) interiorBox() par.Box {
	return s.op.Grid.Box(s.op.Grid.Interior())
}

// ChainBands cuts the interior into temporal-blocking bands of whole tile
// rows along the outermost axis (y on a flat grid, z in 3D) of roughly
// bandCells cells each; nil when the pool is untiled (chained reductions
// need the fixed tile-order fold). See par.Pool.ChainBands.
func (s *system) ChainBands(bandCells int) []par.ChainBand {
	return s.p.ChainBands(s.interiorBox(), bandCells)
}

// NewChainAccum allocates a k-wide per-tile partial table over the
// interior box; its Fold reproduces ForTilesReduceN's bits when every
// interior tile's body ran exactly once per cycle.
func (s *system) NewChainAccum(k int) *par.ChainAccum {
	return s.p.NewChainAccum(k, s.interiorBox())
}

// ChainClip clips b to the chain-axis cell range [lo,hi), reporting
// whether the intersection is non-empty — how ring and extended bounds
// are assigned to chain bands.
func (s *system) ChainClip(b grid.Bounds, lo, hi int) (grid.Bounds, bool) {
	if s.op.Grid.Flat() {
		b.Y0, b.Y1 = max(b.Y0, lo), min(b.Y1, hi)
	} else {
		b.Z0, b.Z1 = max(b.Z0, lo), min(b.Z1, hi)
	}
	return b, !b.Empty()
}

// PrecondApply applies the configured preconditioner z = M⁻¹r over b.
func (s *system) PrecondApply(b grid.Bounds, r, z *grid.Field) { s.m.Apply(s.p, b, r, z) }

// PrecondIsIdentity reports whether the configured preconditioner is the
// identity (its applications are free and untraced).
func (s *system) PrecondIsIdentity() bool { return isNone(s.m) }

// deepDeflator is the optional deflator extension the deep-halo CG
// engines need: ProjectWBounds applies the projection with the fine-grid
// correction written over the extended bounds b, not just the interior,
// so the matrix-powers cycle keeps w = P·A·u' valid wherever later
// redundant sweeps read it. The coarse solve inside stays restricted to
// the interior (extended cells are another rank's interior — counting
// them would double-weight the restriction) and remains collective.
// Deflators that don't implement it cap the halo cycle at depth 1.
type deepDeflator interface {
	ProjectWBounds(b grid.Bounds, w *grid.Field)
}

// splitDeflator is the optional deflator extension the temporal-blocked
// pipelined engine uses: ProjectWBoundsStart restricts w and posts the
// projector's coarse reduction round split-phase on a dedicated tag
// (comm.AllReduceSumNStartTagged), so it can sit in flight alongside the
// iteration's scalar round; ProjectWBoundsFinish completes the round,
// the replicated coarse solve and the fine-grid correction over b.
// Every Start must be matched by exactly one Finish — on paths that
// abandon the projection (convergence detected by the scalar round) the
// handle is still Finished and its result discarded, which all ranks do
// symmetrically. Deflators without it fall back to the unchained cycle.
type splitDeflator interface {
	ProjectWBoundsStart(w *grid.Field) comm.ReduceHandle
	ProjectWBoundsFinish(h comm.ReduceHandle, b grid.Bounds, w *grid.Field)
}

// engine bundles a system with the per-solve execution context — the
// communicator, its trace, and the solve options — and provides the
// traced, globally-reduced operations the loops are written against.
type engine struct {
	sys   *system
	o     Options
	c     comm.Communicator
	tr    *stats.Trace
	in    grid.Bounds
	cells int
	// u holds the initial guess on entry and the solution on exit; rhs is
	// the right-hand side. Both live on the system's grid.
	u, rhs *grid.Field
	// plan is the engine choice resolved once for the solve; every loop
	// reads it. minv is the folded inverse diagonal (nil = identity) and
	// bands the temporal-blocking bands (non-nil exactly when chained).
	plan  Plan
	minv  *grid.Field
	bands []par.ChainBand
}

func newEngine(p Problem, o Options) *engine {
	sys := newSystem(p, o)
	in := sys.Interior()
	e := &engine{
		sys: sys, o: o, c: o.Comm, tr: o.Comm.Trace(),
		in: in, cells: in.Cells(), u: p.U, rhs: p.RHS,
	}
	e.plan, e.minv, e.bands = resolvePlan(sys, o, o.Comm.Size())
	return e
}

// exchange refreshes halos through the communicator.
func (e *engine) exchange(depth int, fields ...*grid.Field) error {
	return e.sys.Exchange(depth, fields...)
}

// dot computes a globally reduced dot product over the interior.
func (e *engine) dot(x, y *grid.Field) float64 {
	e.tr.AddDot(e.cells)
	return e.c.AllReduceSum(kernels.Dot(e.sys.p, e.in, x, y))
}

// dotPair computes (r·z, r·r) in a single grid sweep and a single
// reduction round, the fused form of the ρ/‖r‖ pair every PCG iteration
// needs.
func (e *engine) dotPair(z, r *grid.Field) (rz, rr float64) {
	e.tr.AddDot(e.cells)
	return e.c.AllReduceSum2(kernels.Dot2(e.sys.p, e.in, z, r, r))
}

// reduce performs one globally reduced scalar sum. The round itself is
// counted by the communicator's trace; funneling it through the engine
// keeps the iteration loops off the raw Communicator (the tracerounds
// analyzer enforces this).
func (e *engine) reduce(x float64) float64 {
	return e.c.AllReduceSum(x)
}

// reduceN sums a small vector of scalars in one reduction round — the
// single-reduction fusion the paper's CG variants are built on.
func (e *engine) reduceN(vals []float64) []float64 {
	return e.c.AllReduceSumN(vals)
}

// reduceNStart posts reduceN's round split-phase and returns its handle;
// the pipelined loop overlaps the round with the next matvec. Every
// control-flow path must Finish the handle before the next collective —
// error paths included — which the splitreduce analyzer enforces.
func (e *engine) reduceNStart(vals []float64) comm.ReduceHandle {
	return e.c.AllReduceSumNStart(vals)
}

// matvec applies w = A·p over b and traces it.
func (e *engine) matvec(b grid.Bounds, p, w *grid.Field) {
	e.sys.op.Apply(e.sys.p, b, p, w)
	e.tr.AddMatvec(b.Cells())
}

// matvecDot fuses w = A·p with the global pw reduction (Listing 1).
func (e *engine) matvecDot(b grid.Bounds, p, w *grid.Field) float64 {
	local := e.sys.op.ApplyDot(e.sys.p, b, p, w)
	e.tr.AddMatvec(b.Cells())
	e.tr.AddDot(b.Cells())
	return e.c.AllReduceSum(local)
}

// applyPreDotX refreshes r's depth-1 halo and computes w = A·(minv⊙r)
// over the interior, returning the local (minv⊙r)·w dot. It is the
// matvec step of the fused and pipelined CG engines.
func (e *engine) applyPreDotX(minv, r, w *grid.Field) (float64, error) {
	if err := e.exchange(1, r); err != nil {
		return 0, err
	}
	d := e.sys.op.ApplyPreDot(e.sys.p, e.in, minv, r, w)
	e.tr.AddMatvec(e.cells)
	return d, nil
}

// applyPreDotDeep computes w = A·(minv⊙r) over the extended bounds mb
// WITHOUT an exchange — the matrix-powers deep-halo matvec. It returns
// the interior-only local dot: the cells beyond the interior are
// redundant compute replicating a neighbour's interior, so their dot
// contribution belongs to (and is summed by) that neighbour. The sweep
// is split interior-first then ring-by-ring so the traced cost and the
// dot stay separable.
func (e *engine) applyPreDotDeep(mb grid.Bounds, minv, r, w *grid.Field) float64 {
	d := e.sys.op.ApplyPreDot(e.sys.p, e.in, minv, r, w)
	for _, rb := range e.sys.Rings(mb) {
		e.sys.op.ApplyPreDot(e.sys.p, rb, minv, r, w)
	}
	e.tr.AddMatvec(mb.Cells())
	return d
}

// initialResidual exchanges u, computes r = rhs − A·u on the interior and
// returns the globally reduced ‖r‖².
func (e *engine) initialResidual(u, rhs, r *grid.Field) (float64, error) {
	if err := e.exchange(1, u); err != nil {
		return 0, err
	}
	e.sys.op.Residual(e.sys.p, e.in, u, rhs, r)
	e.tr.AddMatvec(e.cells)
	return e.dot(r, r), nil
}

// applyPrecond applies z = M⁻¹r over b with tracing (identity
// applications with r == z are free and untraced).
func (e *engine) applyPrecond(b grid.Bounds, r, z *grid.Field) {
	e.sys.PrecondApply(b, r, z)
	if !e.sys.PrecondIsIdentity() {
		e.tr.AddPrecond(b.Cells())
	}
}

// vectorPass traces one BLAS1-style sweep over b.
func (e *engine) vectorPass(b grid.Bounds) {
	e.tr.AddVectorPass(b.Cells())
}
