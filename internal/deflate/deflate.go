// Package deflate implements the deflation technique the paper lists as
// future work (§VII): "Using deflation techniques [27] we will be able to
// represent these low energy modes in a series of nested lower dimensional
// sub-spaces." The reference is Frank & Vuik's subdomain deflation: the
// deflation space W is spanned by piecewise-constant indicator vectors of
// a coarse block partition of the GLOBAL mesh, which captures exactly the
// smooth, low-energy modes that make κ(A) grow with mesh size.
//
// Deflated CG iterates on the projected operator P·A with
//
//	P = I − A·W·E⁻¹·Wᵀ,   E = Wᵀ·A·W  (the coarse Galerkin matrix),
//
// so the effective spectrum has its smallest eigenvalues removed and the
// iteration count drops accordingly. E is tiny (one row per subdomain);
// with Config.Levels == 1 it is factored once by dense Cholesky, and with
// Levels > 1 it is itself deflated over a nested blocks-of-blocks
// aggregation — the paper's "series of nested lower dimensional
// sub-spaces" — with the dense solve only at the top of the hierarchy.
//
// The projector is fully distributed and dimension-agnostic: restriction
// and prolongation are rank-local over the owning rank's partition extents
// (a flat mesh is one block deep in z), the coarse Galerkin matrix and every
// per-iteration coarse residual are summed across ranks with a single
// comm.AllReduceSumN round, and — because that reduction is
// commutative-order deterministic on every backend — each rank factors
// the same tiny matrix bit-identically and the coarse solve never needs a
// broadcast. Indicator values in halo cells are filled analytically from
// the global block geometry (a halo cell's global coordinate decides its
// block), so assembling E needs no halo exchange at all.
//
// A regime note the experiments make precise: for the per-step operator
// A = I + Δt·L the smallest eigenvalue is pinned at 1 (L has a zero mode
// under zero-flux boundaries), so deflation only pays when Δt·λ₂(L) ≳ 1 —
// very stiff steps, near-steady solves, or the "extreme condition numbers"
// the paper's §VIII flags as the open robustness question. For TeaLeaf's
// production Δt the low modes sit at 1+ε and there is nothing to deflate;
// the tests cover both regimes.
package deflate

import (
	"errors"
	"fmt"
	"math"

	"tealeaf/internal/comm"
	"tealeaf/internal/grid"
	"tealeaf/internal/kernels"
	"tealeaf/internal/par"
	"tealeaf/internal/stencil"
)

// Config selects the coarse-space geometry: the block partition of the
// global mesh and the depth of the nested hierarchy.
type Config struct {
	// BX, BY, BZ are the coarse subdomain counts per direction over the
	// GLOBAL mesh (BZ is 1 on a flat mesh, whatever is asked). Each must
	// be at least 1 and at most the global cell count in its direction.
	BX, BY, BZ int
	// Levels is the nested-hierarchy depth (default 1): 1 solves the
	// coarse matrix E directly by dense Cholesky; L > 1 deflates E itself
	// over a blocks-of-blocks aggregation (halving each direction per
	// level, dense solve only at the top). Each extra level needs at
	// least one direction with more than one block to aggregate.
	Levels int
}

func (cfg Config) withDefaults() Config {
	if cfg.Levels <= 0 {
		cfg.Levels = 1
	}
	return cfg
}

// Geometry locates a rank's sub-grid within the global mesh. The zero
// value means "the local grid is the whole mesh" (single-rank runs).
type Geometry struct {
	// GlobalNX, GlobalNY, GlobalNZ are the global interior cell counts.
	GlobalNX, GlobalNY, GlobalNZ int
	// OffsetX, OffsetY, OffsetZ are the global coordinates of the local
	// interior cell (0,0,0).
	OffsetX, OffsetY, OffsetZ int
}

// Deflation is the coarse-space projector for one rank: the subdomain
// indicator basis restricted to the rank's sub-grid, and the coarse
// Galerkin matrix E = Wᵀ·A·W (identical on every rank) with its solver.
type Deflation struct {
	op         *stencil.Operator
	pool       *par.Pool
	c          comm.Communicator
	bx, by, bz int
	bpart      *grid.Partition
	// local[c] is coarse block c's intersection with this rank's interior
	// (in local coordinates; empty when the block lies elsewhere).
	local []grid.Bounds
	// xblk, yblk, zblk map local coordinates (offset by hp, halos
	// included) to the owning coarse block index along each axis.
	xblk, yblk, zblk []int
	hp               int
	coarse           *hierarchy
	geom             Geometry
	levels           int
	// wv, av are scratch fields for prolongation and its A-image.
	wv, av *grid.Field
	// cr, cl are the coarse restriction and solution vectors.
	cr, cl []float64
}

// New builds the projector for one rank. It is collective: every rank of
// the communicator must call it with the same Config and its own
// Geometry, because assembling E takes one reduction round.
func New(pool *par.Pool, c comm.Communicator, op *stencil.Operator, geom Geometry, cfg Config) (*Deflation, error) {
	g := op.Grid
	cfg = cfg.withDefaults()
	if pool == nil {
		pool = par.Serial
	}
	if c == nil {
		c = comm.NewSerial()
	}
	if geom.GlobalNX == 0 && geom.GlobalNY == 0 && geom.GlobalNZ == 0 {
		geom.GlobalNX, geom.GlobalNY, geom.GlobalNZ = g.NX, g.NY, g.NZ
	}
	if g.Flat() {
		cfg.BZ, geom.GlobalNZ, geom.OffsetZ = 1, 1, 0
	}
	shape := func(x, y, z int) string {
		if g.Flat() {
			return fmt.Sprintf("%dx%d", x, y)
		}
		return fmt.Sprintf("%dx%dx%d", x, y, z)
	}
	if cfg.BX < 1 || cfg.BY < 1 || cfg.BZ < 1 {
		return nil, errors.New("deflate: need at least one subdomain per direction")
	}
	if cfg.BX > geom.GlobalNX || cfg.BY > geom.GlobalNY || cfg.BZ > geom.GlobalNZ {
		return nil, fmt.Errorf("deflate: %s subdomains exceed the %s global mesh",
			shape(cfg.BX, cfg.BY, cfg.BZ), shape(geom.GlobalNX, geom.GlobalNY, geom.GlobalNZ))
	}
	if geom.OffsetX < 0 || geom.OffsetY < 0 || geom.OffsetZ < 0 ||
		geom.OffsetX+g.NX > geom.GlobalNX || geom.OffsetY+g.NY > geom.GlobalNY ||
		geom.OffsetZ+g.NZ > geom.GlobalNZ {
		off := fmt.Sprintf("(%d,%d,%d)", geom.OffsetX, geom.OffsetY, geom.OffsetZ)
		if g.Flat() {
			off = fmt.Sprintf("(%d,%d)", geom.OffsetX, geom.OffsetY)
		}
		return nil, fmt.Errorf("deflate: local %s grid at offset %s outside the %s global mesh",
			shape(g.NX, g.NY, g.NZ), off, shape(geom.GlobalNX, geom.GlobalNY, geom.GlobalNZ))
	}
	bpart, err := grid.Decompose(geom.GlobalNX, geom.GlobalNY, geom.GlobalNZ, cfg.BX, cfg.BY, cfg.BZ)
	if err != nil {
		return nil, err
	}
	d := &Deflation{
		op: op, pool: pool, c: c, bx: cfg.BX, by: cfg.BY, bz: cfg.BZ, bpart: bpart,
		geom: geom, levels: cfg.Levels,
		wv: grid.NewField(g), av: grid.NewField(g),
	}
	nc := cfg.BX * cfg.BY * cfg.BZ
	d.cr = make([]float64, nc)
	d.cl = make([]float64, nc)

	// Block lookup tables over the padded index range, so indicator values
	// in halo cells come from the global geometry (clamped at the domain
	// edge, where the halo mirrors the boundary cell's block).
	d.hp = g.Halo
	blocks := func(n, off, global int, of func(int) int) []int {
		t := make([]int, n+2*d.hp)
		for i := -d.hp; i < n+d.hp; i++ {
			t[i+d.hp] = of(clampInt(off+i, 0, global-1))
		}
		return t
	}
	d.xblk = blocks(g.NX, geom.OffsetX, geom.GlobalNX, bpart.ColumnOf)
	d.yblk = blocks(g.NY, geom.OffsetY, geom.GlobalNY, bpart.RowOf)
	d.zblk = blocks(g.NZ, geom.OffsetZ, geom.GlobalNZ, bpart.PlaneOf)

	d.local = make([]grid.Bounds, nc)
	in := g.Interior()
	for cb := 0; cb < nc; cb++ {
		d.local[cb] = d.globalBox(cb, 0).Intersect(in)
	}

	if err := d.assemble(); err != nil {
		return nil, err
	}
	return d, nil
}

// globalBox returns coarse block cb's cells in local coordinates, grown
// by pad cells on every side (z excepted on a flat mesh).
func (d *Deflation) globalBox(cb, pad int) grid.Bounds {
	e, geom := d.bpart.ExtentOf(cb), d.geom
	zpad := pad
	if d.op.Grid.Flat() {
		zpad = 0
	}
	return grid.Bounds{
		X0: e.X0 - geom.OffsetX - pad, X1: e.X1 - geom.OffsetX + pad,
		Y0: e.Y0 - geom.OffsetY - pad, Y1: e.Y1 - geom.OffsetY + pad,
		Z0: e.Z0 - geom.OffsetZ - zpad, Z1: e.Z1 - geom.OffsetZ + zpad,
	}
}

// blockOf returns the coarse block index of local cell (i,j,k).
func (d *Deflation) blockOf(i, j, k int) int {
	return (d.zblk[k+d.hp]*d.by+d.yblk[j+d.hp])*d.bx + d.xblk[i+d.hp]
}

// assemble (re)builds the coarse Galerkin matrix E = Wᵀ·A·W for the
// current operator and factors it. E(c2,c) = Σ over block c2's cells of
// (A·w_c): each rank applies A to every block indicator over the block
// grown by one cell (the only cells where A·w_c is non-zero), sums the
// result over its slice of each neighbouring block, and one reduction
// round completes E on every rank.
func (d *Deflation) assemble() error {
	g := d.op.Grid
	nc := d.bx * d.by * d.bz
	eflat := make([]float64, nc*nc)
	for cb := 0; cb < nc; cb++ {
		bApply := d.globalBox(cb, 1).ClampInterior(g)
		if bApply.Empty() {
			continue
		}
		fill := bApply.Expand(1, g)
		for k := fill.Z0; k < fill.Z1; k++ {
			for j := fill.Y0; j < fill.Y1; j++ {
				r := d.wv.Row(j, k, fill.X0, fill.X1)
				for i := range r {
					r[i] = 0
					if d.blockOf(fill.X0+i, j, k) == cb {
						r[i] = 1
					}
				}
			}
		}
		d.op.Apply(d.pool, bApply, d.wv, d.av)
		// A·w_cb is non-zero only on cb and its face/edge/corner
		// neighbours; sum it over each one's slice of this rank.
		cx, cy, cz := d.bpart.CoordsOf(cb)
		for dz := -1; dz <= 1; dz++ {
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					cb2 := d.bpart.RankAt(cx+dx, cy+dy, cz+dz)
					if cb2 < 0 {
						continue
					}
					lb := d.local[cb2].Intersect(bApply)
					if !lb.Empty() {
						eflat[cb2*nc+cb] += d.av.SumBounds(lb)
					}
				}
			}
		}
	}
	eflat = d.c.AllReduceSumN(eflat)

	dims := []int{d.bx, d.by}
	if !g.Flat() {
		dims = append(dims, d.bz)
	}
	aggs, err := aggregations(d.levels, dims...)
	if err != nil {
		return err
	}
	h, err := newHierarchy(eflat, nc, aggs)
	if err != nil {
		return fmt.Errorf("deflate: coarse matrix not SPD: %w", err)
	}
	d.coarse = h
	return nil
}

// Refresh re-targets the projector at a new operator on the same grid
// (a changed time step). With changed false it only swaps the operator
// pointer: E carries over with zero computation and zero communication.
// With changed true it re-assembles and re-factors E, which is
// collective.
func (d *Deflation) Refresh(op *stencil.Operator, changed bool) error {
	if op.Grid != d.op.Grid {
		return errors.New("deflate: Refresh requires an operator on the same grid")
	}
	d.op = op
	if !changed {
		return nil
	}
	return d.assemble()
}

// Subdomains returns the number of coarse blocks.
func (d *Deflation) Subdomains() int { return len(d.local) }

// Levels returns the depth of the coarse hierarchy actually built.
func (d *Deflation) Levels() int { return d.coarse.levels() }

// restrict computes the local part of Wᵀ·v: per coarse block, the sum of
// v over the block's slice of this rank.
func (d *Deflation) restrict(v *grid.Field, out []float64) {
	for c, b := range d.local {
		if b.Empty() {
			out[c] = 0
		} else {
			out[c] = v.SumBounds(b)
		}
	}
}

// solveCoarse computes cl = E⁻¹·Wᵀ·v (one reduction round).
func (d *Deflation) solveCoarse(v *grid.Field) {
	d.restrict(v, d.cr)
	global := d.c.AllReduceSumN(d.cr)
	d.coarse.Solve(global, d.cl)
}

// CoarseCorrect adds the coarse-space correction u += W·E⁻¹·Wᵀ·r, which
// zeroes the deflation-space component of the residual r = b − A·u. It is
// collective (one reduction round).
func (d *Deflation) CoarseCorrect(r, u *grid.Field) {
	d.solveCoarse(r)
	for c, b := range d.local {
		if !b.Empty() {
			addConst(u, b, d.cl[c])
		}
	}
}

// addConst adds v to every cell of f inside b.
func addConst(f *grid.Field, b grid.Bounds, v float64) {
	for k := b.Z0; k < b.Z1; k++ {
		for j := b.Y0; j < b.Y1; j++ {
			r := f.Row(j, k, b.X0, b.X1)
			for i := range r {
				r[i] += v
			}
		}
	}
}

// ProjectW applies the deflation projector in place over the interior:
// w ← P·w = w − A·W·E⁻¹·Wᵀ·w. It is collective (one reduction round).
func (d *Deflation) ProjectW(w *grid.Field) {
	d.ProjectWBounds(d.op.Grid.Interior(), w)
}

// ProjectWBounds is ProjectW with the fine-grid correction applied over
// the (possibly matrix-powers extended) bounds b, so deep-halo CG cycles
// keep w = P·A·u' valid wherever later redundant sweeps read it. The
// restriction and coarse solve stay interior-only: the extended cells are
// another rank's interior, already counted by that rank.
func (d *Deflation) ProjectWBounds(b grid.Bounds, w *grid.Field) {
	d.solveCoarse(w)
	d.applyCorrection(b, w)
}

// deflReduceTag is the reduction tag the split-phase projection posts on,
// distinct from the solver's own tag 0 round so both can be in flight.
const deflReduceTag = 1

// ProjectWBoundsStart is the first half of a split-phase ProjectWBounds:
// it restricts w and posts the coarse reduction round on its own tag,
// returning the handle ProjectWBoundsFinish completes.
func (d *Deflation) ProjectWBoundsStart(w *grid.Field) comm.ReduceHandle {
	d.restrict(w, d.cr)
	return d.c.AllReduceSumNStartTagged(deflReduceTag, d.cr)
}

// ProjectWBoundsFinish completes a split-phase projection: it finishes
// the coarse round, solves the coarse system and applies the correction
// over b.
func (d *Deflation) ProjectWBoundsFinish(h comm.ReduceHandle, b grid.Bounds, w *grid.Field) {
	d.coarse.Solve(h.Finish(), d.cl)
	d.applyCorrection(b, w)
}

// applyCorrection computes w −= A·W·cl over b: prolongate the coarse
// solution one cell beyond b (the stencil's reach), apply A, subtract.
func (d *Deflation) applyCorrection(b grid.Bounds, w *grid.Field) {
	g := d.op.Grid
	fill := b.Expand(1, g)
	for k := fill.Z0; k < fill.Z1; k++ {
		for j := fill.Y0; j < fill.Y1; j++ {
			cl := d.cl[d.blockOf(0, j, k)-d.xblk[d.hp]:]
			xb := d.xblk[fill.X0+d.hp:]
			r := d.wv.Row(j, k, fill.X0, fill.X1)
			for i := range r {
				r[i] = cl[xb[i]]
			}
		}
	}
	d.op.Apply(d.pool, b, d.wv, d.av)
	kernels.Axpy(d.pool, b, -1, d.av, w)
}

// SolveDeflatedCG runs deflated CG on A·u = rhs — the package's
// self-contained reference loop, kept as the simplest executable
// statement of the algorithm (the production path composes the same
// projector into the solver package's fused and classic engines). It is
// rank-correct: halos flow through the communicator the projector was
// built with and every dot product is globally reduced. A coarse
// correction aligns the initial residual with the deflated subspace,
// every matvec is projected by P, and a final coarse correction recovers
// the exact solution. Returns (iterations, final relative residual,
// converged); a non-nil error reports a communicator failure.
func (d *Deflation) SolveDeflatedCG(u, rhs *grid.Field, tol float64, maxIters int) (int, float64, bool, error) {
	g := d.op.Grid
	in := g.Interior()
	pool := d.pool
	if tol <= 0 {
		tol = 1e-10
	}
	if maxIters <= 0 {
		maxIters = 10000
	}

	r := grid.NewField(g)
	w := grid.NewField(g)
	p := grid.NewField(g)

	residual := func() error {
		if err := d.c.Exchange(1, u); err != nil {
			return err
		}
		d.op.Residual(pool, in, u, rhs, r)
		return nil
	}
	if err := residual(); err != nil {
		return 0, 0, false, err
	}
	// Initial coarse correction: Wᵀ r = 0 afterwards.
	d.CoarseCorrect(r, u)
	if err := residual(); err != nil {
		return 0, 0, false, err
	}
	rr := d.c.AllReduceSum(kernels.Norm2Sq(pool, in, r))
	rr0 := rr
	if rr0 == 0 {
		return 0, 0, true, nil
	}
	kernels.Copy(pool, in, p, r)

	iters := 0
	for ; iters < maxIters; iters++ {
		if err := d.c.Exchange(1, p); err != nil {
			return iters, 0, false, err
		}
		d.op.Apply(pool, in, p, w)
		d.ProjectW(w) // w = P·A·p
		pw := d.c.AllReduceSum(kernels.Dot(pool, in, p, w))
		if pw <= 0 {
			break // P·A is only semi-definite outside the deflated space
		}
		alpha := rr / pw
		kernels.Axpy(pool, in, alpha, p, u)
		kernels.Axpy(pool, in, -alpha, w, r)
		rrNew := d.c.AllReduceSum(kernels.Norm2Sq(pool, in, r))
		if rrNew <= tol*tol*rr0 {
			rr = rrNew
			iters++
			break
		}
		beta := rrNew / rr
		rr = rrNew
		kernels.Xpay(pool, in, r, beta, p)
	}
	// Final coarse correction mops up the deflation-space component the
	// projected iteration cannot see.
	if err := residual(); err != nil {
		return iters, 0, false, err
	}
	d.CoarseCorrect(r, u)
	if err := residual(); err != nil {
		return iters, 0, false, err
	}
	rel := relNorm(d.c.AllReduceSum(kernels.Norm2Sq(pool, in, r)), rr0)
	return iters, rel, rel <= tol*10, nil // allow the projection round-off margin
}

func relNorm(rr, rr0 float64) float64 {
	if rr0 == 0 {
		return 0
	}
	return math.Sqrt(rr / rr0)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
