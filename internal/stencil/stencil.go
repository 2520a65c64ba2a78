// Package stencil implements TeaLeaf's matrix-free linear operator.
//
// The implicit backward-Euler discretisation of the linear heat conduction
// equation on a regular grid produces, per time step, the SPD system
//
//	A u = u⁰,   A = I + Δt·L,
//
// where L is the 5-point (flat grid) or 7-point (3D grid) finite-difference
// diffusion operator. A is never assembled: only the face conduction
// coefficient arrays Kx, Ky (and Kz, which a flat grid does not have) are
// stored, and w = A·p is computed directly from the mesh exactly as in
// Listing 1 of the paper:
//
//	w(j,k) = (1 + (Ky(j,k+1)+Ky(j,k)) + (Kx(j+1,k)+Kx(j,k)))·p(j,k)
//	       − (Ky(j,k+1)·p(j,k+1) + Ky(j,k)·p(j,k−1))
//	       − (Kx(j+1,k)·p(j+1,k) + Kx(j,k)·p(j−1,k))
//
// The diagonal is one plus the sum of the off-diagonal coefficients on the
// row, making A strictly diagonally dominant and hence SPD.
//
// There is one Operator. Its 5-point and 7-point variants differ only in
// the row kernels the sweeps run: the 5-point ones in this file, the
// 7-point ones in stencil7.go. Each kernel keeps its own accumulation
// order, so a flat solve reproduces the 2D stencil bit for bit and a 3D
// solve the 7-point one.
//
// A row kernel is a plain method taking a row's first storage index o and
// its length n. It cuts every stream it reads to exactly n cells at its
// stencil offset — kxe := Kx[o+1:][:n] is the east face, pe := p[o+1:][:n]
// the east neighbour — and loops `for i := range ws`, so one index reaches
// every stream and the compiler drops every in-loop bounds check; the
// per-row slice expressions keep theirs, so an out-of-range row still
// panics. The tile closures the worker pool runs only walk rows and call
// the kernels: a closure inlined into its caller does not get its own
// calls inlined, which would leave the row cuts opaque to the compiler.
// Reductions with unrolled lanes run the row and then fold it into the
// lane sums with dot2 or dot4. TestHotLoopsBoundsCheckFree holds every
// row kernel's loop to zero compiler-reported bounds checks.
package stencil

import (
	"fmt"
	"math"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
)

// Coefficient selects how the conduction coefficient is derived from the
// cell-centred density, matching TeaLeaf's tl_coefficient input options.
type Coefficient int

const (
	// Conductivity uses w = ρ: conduction proportional to density.
	Conductivity Coefficient = iota + 1
	// RecipConductivity uses w = 1/ρ: low-density material conducts
	// faster — the crooked-pipe configuration, where the evacuated pipe
	// transports heat ahead of the dense wall material.
	RecipConductivity
)

func (c Coefficient) String() string {
	switch c {
	case Conductivity:
		return "conductivity=density"
	case RecipConductivity:
		return "conductivity=1/density"
	}
	return fmt.Sprintf("coefficient(%d)", int(c))
}

// Operator is the matrix-free operator: face coefficient fields on the
// same padded layout as the solution fields. Kx(i,j,k) couples cells
// (i−1,j,k)↔(i,j,k), Ky(i,j,k) couples (i,j−1,k)↔(i,j,k) and Kz(i,j,k)
// couples (i,j,k−1)↔(i,j,k). A flat grid has no Kz.
type Operator struct {
	Grid       *grid.Grid
	Kx, Ky, Kz *grid.Field
	// Rx, Ry, Rz are the Δt/Δx², Δt/Δy², Δt/Δz² scalings baked into the
	// coefficients (Rz is unused on a flat grid).
	Rx, Ry, Rz float64
}

// BuildOperator derives the face coefficients from the cell-centred
// density. The density field must have valid halo values wherever the
// operator will be applied (reflected on physical sides, exchanged across
// rank boundaries): coefficients are computed over the whole padded
// region so the matrix-powers kernel can run on extended bounds.
//
// The face coefficient is the harmonic-mean construction TeaLeaf uses:
//
//	Kx(i,j,k) = rx · (w(i−1,j,k)+w(i,j,k)) / (2·w(i−1,j,k)·w(i,j,k))
//
// with w the per-cell conduction coefficient, then faces on the physical
// boundary sides phys are zeroed (zero-flux boundary condition); faces on
// rank boundaries keep their neighbour-coupled coefficients so the
// distributed operator equals the global one.
func BuildOperator(pool *par.Pool, density *grid.Field, dt float64, coef Coefficient, phys grid.Sides) (*Operator, error) {
	if dt <= 0 || math.IsNaN(dt) || math.IsInf(dt, 0) {
		return nil, fmt.Errorf("stencil: dt = %v must be positive and finite", dt)
	}
	if coef != Conductivity && coef != RecipConductivity {
		return nil, fmt.Errorf("stencil: unknown coefficient mode %d", int(coef))
	}
	g := density.Grid
	op := &Operator{
		Grid: g,
		Kx:   grid.NewField(g),
		Ky:   grid.NewField(g),
		Rx:   dt / (g.DX * g.DX),
		Ry:   dt / (g.DY * g.DY),
		Rz:   dt / (g.DZ * g.DZ),
	}
	flat := g.Flat()
	if !flat {
		op.Kz = grid.NewField(g)
	}
	h, zh := g.Halo, g.ZHalo()
	padded := grid.Bounds{X0: -h, X1: g.NX + h, Y0: -h, Y1: g.NY + h, Z0: -zh, Z1: g.NZ + zh}

	// Per-cell conduction coefficient over the full padded region.
	w := grid.NewField(g)
	wd, dd := w.Data, density.Data
	g.ForRows(pool, padded, func(o, n int) {
		for i := o; i < o+n; i++ {
			rho := dd[i]
			switch {
			case rho <= 0 || math.IsNaN(rho):
				// Density must be physical; poison the coefficient so the
				// validation pass below reports it.
				wd[i] = math.NaN()
			case coef == RecipConductivity:
				wd[i] = 1 / rho
			default:
				wd[i] = rho
			}
		}
	})
	for _, v := range w.Data {
		if math.IsNaN(v) {
			return nil, fmt.Errorf("stencil: non-positive or NaN density encountered")
		}
	}

	// Face coefficients wherever both adjacent cells are addressable. The
	// 5-point and 7-point constructions associate the scaling differently;
	// each keeps its own so both reproduce their historical bits.
	sy, sz := g.Stride(), g.PlaneStride()
	inner := padded
	inner.X0, inner.Y0 = -h+1, -h+1
	if !flat {
		inner.Z0 = -zh + 1
	}
	kx, ky := op.Kx.Data, op.Ky.Data
	g.ForRows(pool, inner, func(o, n int) {
		if flat {
			for i := o; i < o+n; i++ {
				wl, wd0, wc := wd[i-1], wd[i-sy], wd[i]
				kx[i] = op.Rx * (wl + wc) / (2 * wl * wc)
				ky[i] = op.Ry * (wd0 + wc) / (2 * wd0 * wc)
			}
			return
		}
		kz := op.Kz.Data
		for i := o; i < o+n; i++ {
			wc := wd[i]
			kx[i] = op.Rx * face(wd[i-1], wc)
			ky[i] = op.Ry * face(wd[i-sy], wc)
			kz[i] = op.Rz * face(wd[i-sz], wc)
		}
	})

	// Zero-flux physical boundaries: no conduction through outer faces.
	zero := func(f *grid.Field, b grid.Bounds) {
		if f != nil {
			f.FillBounds(b.ClampPadded(g), 0)
		}
	}
	if phys.Left {
		zero(op.Kx, grid.Bounds{X0: -h, X1: 1, Y0: -h, Y1: g.NY + h, Z0: -zh, Z1: g.NZ + zh})
	}
	if phys.Right {
		zero(op.Kx, grid.Bounds{X0: g.NX, X1: g.NX + h, Y0: -h, Y1: g.NY + h, Z0: -zh, Z1: g.NZ + zh})
	}
	if phys.Down {
		zero(op.Ky, grid.Bounds{X0: -h, X1: g.NX + h, Y0: -h, Y1: 1, Z0: -zh, Z1: g.NZ + zh})
	}
	if phys.Up {
		zero(op.Ky, grid.Bounds{X0: -h, X1: g.NX + h, Y0: g.NY, Y1: g.NY + h, Z0: -zh, Z1: g.NZ + zh})
	}
	if phys.Back {
		zero(op.Kz, grid.Bounds{X0: -h, X1: g.NX + h, Y0: -h, Y1: g.NY + h, Z0: -zh, Z1: 1})
	}
	if phys.Front {
		zero(op.Kz, grid.Bounds{X0: -h, X1: g.NX + h, Y0: -h, Y1: g.NY + h, Z0: g.NZ, Z1: g.NZ + zh})
	}
	return op, nil
}

// face is the 7-point harmonic-mean face factor of adjacent coefficients.
func face(a, b float64) float64 { return (a + b) / (2 * a * b) }

// flat reports whether op runs the 5-point row kernels.
func (op *Operator) flat() bool { return op.Kz == nil }

// Apply computes w = A·p over the cells of b. p must have valid values one
// cell beyond b on every side (halo-exchanged, reflected, or inside the
// padded region covered by a deeper exchange).
func (op *Operator) Apply(pool *par.Pool, b grid.Bounds, p, w *grid.Field) {
	row := op.apply5
	if !op.flat() {
		row = op.apply7
	}
	pd, wd := p.Data, w.Data
	op.Grid.ForRows(pool, b, func(o, n int) { row(o, n, pd, wd) })
}

// ApplyDot is Listing 1 exactly: w = A·p fused with the dot product
// pw = p·w in a single pass over b. The inner loop is the hottest in the
// whole solver; see the package comment for how its rows are cut.
func (op *Operator) ApplyDot(pool *par.Pool, b grid.Bounds, p, w *grid.Field) float64 {
	if b.Empty() {
		return 0
	}
	body := op.applyDot5Body(p.Data, w.Data)
	if !op.flat() {
		body = op.applyDot7Body(p.Data, w.Data)
	}
	return pool.ForTilesReduceN(1, op.Grid.Box(b), body)[0]
}

// ApplyDot2 computes w = A·p fused with the two dot products p·w and w·w
// in one sweep — the §VII "one reduction" building block for pipelined
// Krylov variants, and a free divergence sentinel (w·w blowing up flags a
// breakdown one iteration earlier than p·w alone).
func (op *Operator) ApplyDot2(pool *par.Pool, b grid.Bounds, p, w *grid.Field) (pw, ww float64) {
	if b.Empty() {
		return 0, 0
	}
	body := op.applyDot25Body(p.Data, w.Data)
	if !op.flat() {
		body = op.applyDot27Body(p.Data, w.Data)
	}
	acc := pool.ForTilesReduceN(2, op.Grid.Box(b), body)
	return acc[0], acc[1]
}

// ApplyPreDot is the matvec pass of the fused single-reduction CG: with
// u = minv ⊙ r the (folded diagonal-)preconditioned residual, it computes
// w = A·u and returns uw = Σ u·w in one sweep, never materialising u.
// r (and minv) must be valid one cell beyond b on every side. nil minv
// selects the identity (u = r): ApplyDot's sweep on a flat grid,
// ApplyDot2's on a 3D one.
func (op *Operator) ApplyPreDot(pool *par.Pool, b grid.Bounds, minv, r, w *grid.Field) float64 {
	if minv == nil && op.flat() {
		return op.ApplyDot(pool, b, r, w)
	}
	if minv == nil {
		pw, _ := op.ApplyDot2(pool, b, r, w)
		return pw
	}
	if b.Empty() {
		return 0
	}
	return pool.ForTilesReduceN(1, op.Grid.Box(b), op.applyPreDotBody(minv, r, w))[0]
}

// applyPreDotBody is ApplyPreDot's tile body for a non-nil minv: the u·w
// partial of one tile in acc[0].
func (op *Operator) applyPreDotBody(minv, r, w *grid.Field) func(t par.Tile, acc []float64) {
	if op.flat() {
		return op.applyPreDot5Body(minv.Data, r.Data, w.Data)
	}
	md, rd, wd := minv.Data, r.Data, w.Data
	return func(t par.Tile, acc []float64) {
		var uw float64
		op.eachRow(t, func(o, n int) { uw = op.applyPreDot7(o, n, md, rd, wd, uw) })
		acc[0] += uw
	}
}

// ApplyPreDotInit is ApplyPreDot extended with the two extra dot products
// the fused CG loop needs to start up: it returns (γ, δ, rr) =
// (Σ r·u, Σ u·w, Σ r·r) for u = minv ⊙ r, w = A·u, in one sweep. nil minv
// selects the identity. It runs once per solve, so it trades a little
// per-element work for not needing separate Dot passes before the first
// iteration.
func (op *Operator) ApplyPreDotInit(pool *par.Pool, b grid.Bounds, minv, r, w *grid.Field) (gamma, delta, rr float64) {
	if b.Empty() {
		return 0, 0, 0
	}
	var md []float64
	if minv != nil {
		md = minv.Data
	}
	row := op.applyPreDotInit5
	if !op.flat() {
		row = op.applyPreDotInit7
	}
	rd, wd := r.Data, w.Data
	out := pool.ForTilesReduceN(3, op.Grid.Box(b), func(t par.Tile, acc []float64) {
		var ga, de, rs float64
		op.eachRow(t, func(o, n int) { ga, de, rs = row(o, n, md, rd, wd, ga, de, rs) })
		acc[0] += ga
		acc[1] += de
		acc[2] += rs
	})
	return out[0], out[1], out[2]
}

// ApplyPPCGInner is one inner Chebyshev step of PPCG in a single sweep:
// per cell it computes w = A·sd in a register and applies
//
//	rtemp  −= w
//	sdNext  = α·sd + β·(minv ⊙ rtemp)      over b (matrix-powers bounds)
//	z      += sdNext                        over in (the interior) only
//
// so w never reaches memory. sdNext must not alias sd: the step reads the
// old direction's neighbours while it writes the new one, so callers
// ping-pong two buffers. b must contain in, and sd must be valid one cell
// beyond b. nil minv selects the identity preconditioner. Every value is
// the one Apply followed by the separate residual, direction and
// correction updates computes, bit for bit.
func (op *Operator) ApplyPPCGInner(pool *par.Pool, b, in grid.Bounds, alpha, beta float64, minv, sd, sdNext, rtemp, z *grid.Field) {
	if sd == sdNext {
		panic("stencil: ApplyPPCGInner needs distinct sd and sdNext buffers")
	}
	if b.Empty() {
		return
	}
	var md []float64
	if minv != nil {
		md = minv.Data
	}
	row := op.ppcgInner5
	if !op.flat() {
		row = op.ppcgInner7
	}
	g := op.Grid
	sdd, snd, rd, zd := sd.Data, sdNext.Data, rtemp.Data, z.Data
	pool.ForTiles(g.Box(b), func(t par.Tile) {
		// Column range of the interior within this tile's rows (a tile may
		// lie wholly outside the interior columns).
		xlo, xhi := max(in.X0, t.X0), min(in.X1, t.X1)
		for k := t.Z0; k < t.Z1; k++ {
			for j := t.Y0; j < t.Y1; j++ {
				row(g.Index(t.X0, j, k), t.X1-t.X0, alpha, beta, md, sdd, snd, rd)
				if in.Contains(xlo, j, k) && xhi > xlo {
					o := g.Index(xlo, j, k)
					zs, ss := zd[o:][:xhi-xlo], snd[o:][:xhi-xlo]
					for i := range zs {
						zs[i] += ss[i]
					}
				}
			}
		}
	})
}

// Residual computes r = rhs − A·u over b.
func (op *Operator) Residual(pool *par.Pool, b grid.Bounds, u, rhs, r *grid.Field) {
	row := op.residual5
	if !op.flat() {
		row = op.residual7
	}
	ud, bd, rd := u.Data, rhs.Data, r.Data
	op.Grid.ForRows(pool, b, func(o, n int) { row(o, n, ud, bd, rd) })
}

// Diagonal writes the matrix diagonal 1 + ΣK over b into d; the
// point-Jacobi preconditioner is its reciprocal. The stencil needs the
// face coefficients one cell beyond each cell, so b must stay one cell
// inside the padded region.
func (op *Operator) Diagonal(pool *par.Pool, b grid.Bounds, d *grid.Field) {
	row := op.diagonal5
	if !op.flat() {
		row = op.diagonal7
	}
	dd := d.Data
	op.Grid.ForRows(pool, b, func(o, n int) { row(o, n, dd) })
}

// JacobiSweep is one point-Jacobi update over b,
//
//	u⁺ = (rhs + Σ K·un(neighbours)) / diag,
//
// reading the previous iterate un, and returns the local L1 norm of the
// update Σ|u⁺−un|, accumulated band by band along the outermost axis.
func (op *Operator) JacobiSweep(pool *par.Pool, b grid.Bounds, un, rhs, u *grid.Field) float64 {
	g := op.Grid
	row := op.jacobi5
	lo, hi := b.Y0, b.Y1
	if !op.flat() {
		row = op.jacobi7
		lo, hi = b.Z0, b.Z1
	}
	ud, nd, bd := u.Data, un.Data, rhs.Data
	return pool.ForReduce(lo, hi, func(l0, l1 int) float64 {
		band := b
		if op.flat() {
			band.Y0, band.Y1 = l0, l1
		} else {
			band.Z0, band.Z1 = l0, l1
		}
		var sum float64
		for k := band.Z0; k < band.Z1; k++ {
			for j := band.Y0; j < band.Y1; j++ {
				sum = row(g.Index(b.X0, j, k), b.X1-b.X0, ud, nd, bd, sum)
			}
		}
		return sum
	})
}

// RowSumCheck returns the maximum |row sum − 1| over b when every face
// coefficient interior to b's one-cell neighbourhood pairs up: for the
// global operator the off-diagonal entries cancel the diagonal excess, so
// row sums are exactly 1 (A·1 = 1). Used by tests and sanity checks.
func (op *Operator) RowSumCheck(pool *par.Pool, b grid.Bounds) float64 {
	g := op.Grid
	ones := grid.NewField(g)
	ones.Fill(1)
	w := grid.NewField(g)
	op.Apply(pool, b, ones, w)
	var worst float64
	for k := b.Z0; k < b.Z1; k++ {
		for j := b.Y0; j < b.Y1; j++ {
			for _, v := range w.Row(j, k, b.X0, b.X1) {
				worst = max(worst, math.Abs(v-1))
			}
		}
	}
	return worst
}

// eachRow calls row on every row of tile t in sweep order: o is the
// storage index of the row's first cell, n its length.
func (op *Operator) eachRow(t par.Tile, row func(o, n int)) {
	g, n := op.Grid, t.X1-t.X0
	for k := t.Z0; k < t.Z1; k++ {
		for j := t.Y0; j < t.Y1; j++ {
			row(g.Index(t.X0, j, k), n)
		}
	}
}

// The tile bodies of the fused-dot sweeps. Each runs its variant's row
// kernel and then folds the row into the tile's lane sums with dot2 or
// dot4, so the unrolled lanes keep their historical association.

func (op *Operator) applyDot5Body(pd, wd []float64) func(t par.Tile, acc []float64) {
	return func(t par.Tile, acc []float64) {
		var pw0, pw1, pw2, pw3 float64
		op.eachRow(t, func(o, n int) {
			op.apply5(o, n, pd, wd)
			pw0, pw1, pw2, pw3 = dot4(pw0, pw1, pw2, pw3, pd[o:][:n], wd[o:][:n])
		})
		acc[0] += (pw0 + pw1) + (pw2 + pw3)
	}
}

func (op *Operator) applyDot25Body(pd, wd []float64) func(t par.Tile, acc []float64) {
	return func(t par.Tile, acc []float64) {
		var pw0, pw1, pw2, pw3 float64
		var ww0, ww1, ww2, ww3 float64
		op.eachRow(t, func(o, n int) {
			op.apply5(o, n, pd, wd)
			ws := wd[o:][:n]
			pw0, pw1, pw2, pw3 = dot4(pw0, pw1, pw2, pw3, pd[o:][:n], ws)
			ww0, ww1, ww2, ww3 = dot4(ww0, ww1, ww2, ww3, ws, ws)
		})
		acc[0] += (pw0 + pw1) + (pw2 + pw3)
		acc[1] += (ww0 + ww1) + (ww2 + ww3)
	}
}

func (op *Operator) applyDot7Body(pd, wd []float64) func(t par.Tile, acc []float64) {
	return func(t par.Tile, acc []float64) {
		var pw float64
		op.eachRow(t, func(o, n int) { pw = op.applyDot7(o, n, pd, wd, pw) })
		acc[0] += pw
	}
}

func (op *Operator) applyDot27Body(pd, wd []float64) func(t par.Tile, acc []float64) {
	return func(t par.Tile, acc []float64) {
		var pw0, pw1, ww0, ww1 float64
		op.eachRow(t, func(o, n int) {
			op.apply7(o, n, pd, wd)
			ws := wd[o:][:n]
			pw0, pw1 = dot2(pw0, pw1, pd[o:][:n], ws)
			ww0, ww1 = dot2(ww0, ww1, ws, ws)
		})
		acc[0] += pw0 + pw1
		acc[1] += ww0 + ww1
	}
}

// applyPreDot5Body keeps a rolling three-row window of u = minv ⊙ r
// (extended one cell left/right) per tile, so every product is computed
// once and m, r stream through exactly one read each — the buffer rows
// stay L1-resident across the stencil evaluation. Edge cells recomputed
// by the adjacent tile are the same pointwise products, so tiling leaves
// the sweep's output unchanged.
func (op *Operator) applyPreDot5Body(md, rd, wd []float64) func(t par.Tile, acc []float64) {
	g := op.Grid
	return func(t par.Tile, acc []float64) {
		n := t.X1 - t.X0
		width := n + 2
		buf := make([]float64, 3*width)
		us := buf[0*width : 1*width : 1*width] // row k−1
		uc := buf[1*width : 2*width : 2*width] // row k
		un := buf[2*width : 3*width : 3*width] // row k+1
		fill := func(dst []float64, k int) {
			o := g.Index(t.X0-1, k, 0)
			mulRow(dst, md[o:][:width], rd[o:][:width])
		}
		fill(us, t.Y0-1)
		fill(uc, t.Y0)
		var uw0, uw1 float64
		for k := t.Y0; k < t.Y1; k++ {
			fill(un, k+1)
			o := g.Index(t.X0, k, 0)
			op.applyBuf5(o, n, us, uc, un, wd)
			uw0, uw1 = dot2(uw0, uw1, uc[1:][:n], wd[o:][:n])
			us, uc, un = uc, un, us
		}
		acc[0] += uw0 + uw1
	}
}

// mulRow writes dst = m ⊙ r; m and r must be at least as long as dst.
func mulRow(dst, m, r []float64) {
	m, r = m[:len(dst)], r[:len(dst)]
	for i := range dst {
		dst[i] = m[i] * r[i]
	}
}

// dot2 adds Σ x·y to the two lane sums of a 2-way unrolled dot product:
// element j < len(x)−1 lands in lane j mod 2 (in steps of two), a last odd
// element in lane 0. y must be at least as long as x.
func dot2(s0, s1 float64, x, y []float64) (float64, float64) {
	y = y[:len(x)]
	if m := len(x) - 1; m > 0 {
		x0, x1 := x[:m], x[1:][:m]
		y0, y1 := y[:m], y[1:][:m]
		for j := 0; j < m; j += 2 {
			s0 += x0[j] * y0[j]
			s1 += x1[j] * y1[j]
		}
	}
	h := len(x) &^ 1
	xt, yt := x[h:], y[h:]
	for i := range xt {
		s0 += xt[i] * yt[i]
	}
	return s0, s1
}

// dot4 is dot2 with four lanes: element j < len(x)−3 lands in lane
// j mod 4 (in steps of four), the remaining tail in lane 0.
func dot4(s0, s1, s2, s3 float64, x, y []float64) (float64, float64, float64, float64) {
	y = y[:len(x)]
	if m := len(x) - 3; m > 0 {
		x0, x1, x2, x3 := x[:m], x[1:][:m], x[2:][:m], x[3:][:m]
		y0, y1, y2, y3 := y[:m], y[1:][:m], y[2:][:m], y[3:][:m]
		for j := 0; j < m; j += 4 {
			s0 += x0[j] * y0[j]
			s1 += x1[j] * y1[j]
			s2 += x2[j] * y2[j]
			s3 += x3[j] * y3[j]
		}
	}
	h := len(x) &^ 3
	xt, yt := x[h:], y[h:]
	for i := range xt {
		s0 += xt[i] * yt[i]
	}
	return s0, s1, s2, s3
}

// The 5-point row kernels: the Operator's sweeps on a flat grid, where
// every row lies in the plane k = 0. The package comment describes how
// they cut their rows.

// faces5 cuts the face coefficient rows of the n cells from o: the west
// and east Kx faces and the south and north Ky faces.
func (op *Operator) faces5(o, n int) (kxw, kxe, kys, kyn []float64) {
	s := op.Grid.Stride()
	kx, ky := op.Kx.Data, op.Ky.Data
	return kx[o:][:n], kx[o+1:][:n], ky[o:][:n], ky[o+s:][:n]
}

// points5 cuts the five rows of p the 5-point stencil reads around the n
// cells from o, with s the row stride: west, centre, east, south, north.
func points5(p []float64, o, s, n int) (pw, pc, pe, ps, pn []float64) {
	return p[o-1:][:n], p[o:][:n], p[o+1:][:n], p[o-s:][:n], p[o+s:][:n]
}

func (op *Operator) apply5(o, n int, pd, wd []float64) {
	kxw, kxe, kys, kyn := op.faces5(o, n)
	pw, pc, pe, ps, pn := points5(pd, o, op.Grid.Stride(), n)
	ws := wd[o:][:n]
	for i := range ws {
		ws[i] = (1+(kyn[i]+kys[i])+(kxe[i]+kxw[i]))*pc[i] -
			(kyn[i]*pn[i] + kys[i]*ps[i]) -
			(kxe[i]*pe[i] + kxw[i]*pw[i])
	}
}

// applyBuf5 is apply5 on the rolling u = minv ⊙ r window of
// applyPreDot5Body: us, uc, un are the south, centre and north rows of
// u, each extended one cell west and east.
func (op *Operator) applyBuf5(o, n int, us, uc, un, wd []float64) {
	kxw, kxe, kys, kyn := op.faces5(o, n)
	uw, ucc, ue := uc[:n], uc[1:][:n], uc[2:][:n]
	usc, unc := us[1:][:n], un[1:][:n]
	ws := wd[o:][:n]
	for i := range ws {
		ws[i] = (1+(kyn[i]+kys[i])+(kxe[i]+kxw[i]))*ucc[i] -
			(kyn[i]*unc[i] + kys[i]*usc[i]) -
			(kxe[i]*ue[i] + kxw[i]*uw[i])
	}
}

func (op *Operator) applyPreDotInit5(o, n int, md, rd, wd []float64, ga, de, rs float64) (float64, float64, float64) {
	kxw, kxe, kys, kyn := op.faces5(o, n)
	s := op.Grid.Stride()
	pw, pc, pe, ps, pn := points5(rd, o, s, n)
	ws := wd[o:][:n]
	if md == nil {
		for i := range ws {
			rc := pc[i]
			v := (1+(kyn[i]+kys[i])+(kxe[i]+kxw[i]))*rc -
				(kyn[i]*pn[i] + kys[i]*ps[i]) -
				(kxe[i]*pe[i] + kxw[i]*pw[i])
			ws[i] = v
			ga += rc * rc
			de += rc * v
			rs += rc * rc
		}
		return ga, de, rs
	}
	mw, mc, me, ms, mn := points5(md, o, s, n)
	for i := range ws {
		rc := pc[i]
		uc := mc[i] * rc
		v := (1+(kyn[i]+kys[i])+(kxe[i]+kxw[i]))*uc -
			(kyn[i]*(mn[i]*pn[i]) + kys[i]*(ms[i]*ps[i])) -
			(kxe[i]*(me[i]*pe[i]) + kxw[i]*(mw[i]*pw[i]))
		ws[i] = v
		ga += rc * uc
		de += uc * v
		rs += rc * rc
	}
	return ga, de, rs
}

func (op *Operator) ppcgInner5(o, n int, alpha, beta float64, md, sdd, snd, rd []float64) {
	kxw, kxe, kys, kyn := op.faces5(o, n)
	pw, pc, pe, ps, pn := points5(sdd, o, op.Grid.Stride(), n)
	rs, ns := rd[o:][:n], snd[o:][:n]
	if md == nil {
		for i := range ns {
			w := (1+(kyn[i]+kys[i])+(kxe[i]+kxw[i]))*pc[i] -
				(kyn[i]*pn[i] + kys[i]*ps[i]) -
				(kxe[i]*pe[i] + kxw[i]*pw[i])
			v := rs[i] - w
			rs[i] = v
			ns[i] = alpha*pc[i] + beta*v
		}
		return
	}
	ms := md[o:][:n]
	for i := range ns {
		w := (1+(kyn[i]+kys[i])+(kxe[i]+kxw[i]))*pc[i] -
			(kyn[i]*pn[i] + kys[i]*ps[i]) -
			(kxe[i]*pe[i] + kxw[i]*pw[i])
		v := rs[i] - w
		rs[i] = v
		ns[i] = alpha*pc[i] + beta*(ms[i]*v)
	}
}

func (op *Operator) residual5(o, n int, ud, bd, rd []float64) {
	kxw, kxe, kys, kyn := op.faces5(o, n)
	uw, uc, ue, us, un := points5(ud, o, op.Grid.Stride(), n)
	bs, rs := bd[o:][:n], rd[o:][:n]
	for i := range rs {
		au := (1+(kyn[i]+kys[i])+(kxe[i]+kxw[i]))*uc[i] -
			(kyn[i]*un[i] + kys[i]*us[i]) -
			(kxe[i]*ue[i] + kxw[i]*uw[i])
		rs[i] = bs[i] - au
	}
}

func (op *Operator) jacobi5(o, n int, ud, nd, bd []float64, sum float64) float64 {
	kxw, kxe, kys, kyn := op.faces5(o, n)
	uw, uc, ue, us, un := points5(nd, o, op.Grid.Stride(), n)
	rhs, u := bd[o:][:n], ud[o:][:n]
	for i := range u {
		diag := 1 + (kyn[i] + kys[i]) + (kxe[i] + kxw[i])
		v := (rhs[i] +
			kyn[i]*un[i] + kys[i]*us[i] +
			kxe[i]*ue[i] + kxw[i]*uw[i]) / diag
		u[i] = v
		sum += math.Abs(v - uc[i])
	}
	return sum
}

func (op *Operator) diagonal5(o, n int, dd []float64) {
	kxw, kxe, kys, kyn := op.faces5(o, n)
	d := dd[o:][:n]
	for i := range d {
		d[i] = 1 + (kyn[i] + kys[i]) + (kxe[i] + kxw[i])
	}
}
