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
	if b.Empty() {
		return
	}
	body := op.apply5(p.Data, w.Data)
	if !op.flat() {
		body = op.apply7(p.Data, w.Data)
	}
	pool.ForTiles(op.Grid.Box(b), body)
}

// ApplyDot is Listing 1 exactly: w = A·p fused with the dot product
// pw = p·w in a single pass over b. The inner loop is the hottest in the
// whole solver, so it is written with local re-sliced rows (bounds checks
// hoisted) and unrolled.
func (op *Operator) ApplyDot(pool *par.Pool, b grid.Bounds, p, w *grid.Field) float64 {
	if b.Empty() {
		return 0
	}
	body := op.applyDot5(p.Data, w.Data)
	if !op.flat() {
		body = op.applyDot7(p.Data, w.Data)
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
	body := op.applyDot25(p.Data, w.Data)
	if !op.flat() {
		body = op.applyDot27(p.Data, w.Data)
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

// ApplyPreDotChain is ApplyPreDot restricted to one chain band's tile
// range [t0,t1) of the accumulator's box: same tile body, with the u·w
// partial landing in slot 0 of the per-tile accumulator instead of being
// folded immediately, so a temporal-blocked cycle can run the matvec
// band-by-band and fold once at the end of the sweep with
// ForTilesReduceN's exact bits. acc must be at least 2 wide: the 3D
// identity path chunks ApplyDot2's two-lane body.
func (op *Operator) ApplyPreDotChain(pool *par.Pool, acc *par.ChainAccum, t0, t1 int, minv, r, w *grid.Field) {
	pool.ForTilesChunk(acc, t0, t1, op.applyPreDotBody(minv, r, w))
}

// applyPreDotBody is the tile body shared by ApplyPreDot and
// ApplyPreDotChain — one closure per variant, so the chained and
// unchained sweeps cannot drift bit-wise.
func (op *Operator) applyPreDotBody(minv, r, w *grid.Field) func(t par.Tile, acc []float64) {
	switch {
	case minv == nil && op.flat():
		return op.applyDot5(r.Data, w.Data)
	case minv == nil:
		return op.applyDot27(r.Data, w.Data)
	case op.flat():
		return op.applyPreDot5(minv.Data, r.Data, w.Data)
	}
	return op.applyPreDot7(minv.Data, r.Data, w.Data)
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
	body := op.applyPreDotInit5(md, r.Data, w.Data)
	if !op.flat() {
		body = op.applyPreDotInit7(md, r.Data, w.Data)
	}
	out := pool.ForTilesReduceN(3, op.Grid.Box(b), body)
	return out[0], out[1], out[2]
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

// The 5-point row kernels: the Operator's sweeps on a flat grid, where
// every row lies in the plane k = 0.

func (op *Operator) apply5(pd, wd []float64) func(t par.Tile) {
	g := op.Grid
	s := g.Stride()
	kx, ky := op.Kx.Data, op.Ky.Data
	return func(t par.Tile) {
		n := t.X1 - t.X0
		for k := t.Y0; k < t.Y1; k++ {
			o := g.Index(t.X0, k, 0)
			kxs := kx[o : o+n+1]
			kyn := ky[o+s : o+s+n]
			kys := ky[o : o+n]
			pn := pd[o+s : o+s+n]
			pso := pd[o-s : o-s+n]
			pc := pd[o-1 : o+n+1]
			ws := wd[o : o+n : o+n]
			j := 0
			for ; j+3 < n; j += 4 {
				v0 := (1+(kyn[j]+kys[j])+(kxs[j+1]+kxs[j]))*pc[j+1] -
					(kyn[j]*pn[j] + kys[j]*pso[j]) -
					(kxs[j+1]*pc[j+2] + kxs[j]*pc[j])
				v1 := (1+(kyn[j+1]+kys[j+1])+(kxs[j+2]+kxs[j+1]))*pc[j+2] -
					(kyn[j+1]*pn[j+1] + kys[j+1]*pso[j+1]) -
					(kxs[j+2]*pc[j+3] + kxs[j+1]*pc[j+1])
				v2 := (1+(kyn[j+2]+kys[j+2])+(kxs[j+3]+kxs[j+2]))*pc[j+3] -
					(kyn[j+2]*pn[j+2] + kys[j+2]*pso[j+2]) -
					(kxs[j+3]*pc[j+4] + kxs[j+2]*pc[j+2])
				v3 := (1+(kyn[j+3]+kys[j+3])+(kxs[j+4]+kxs[j+3]))*pc[j+4] -
					(kyn[j+3]*pn[j+3] + kys[j+3]*pso[j+3]) -
					(kxs[j+4]*pc[j+5] + kxs[j+3]*pc[j+3])
				ws[j], ws[j+1], ws[j+2], ws[j+3] = v0, v1, v2, v3
			}
			for ; j < n; j++ {
				ws[j] = (1+(kyn[j]+kys[j])+(kxs[j+1]+kxs[j]))*pc[j+1] -
					(kyn[j]*pn[j] + kys[j]*pso[j]) -
					(kxs[j+1]*pc[j+2] + kxs[j]*pc[j])
			}
		}
	}
}

func (op *Operator) applyDot5(pd, wd []float64) func(t par.Tile, acc []float64) {
	g := op.Grid
	s := g.Stride()
	kx, ky := op.Kx.Data, op.Ky.Data
	return func(t par.Tile, acc []float64) {
		n := t.X1 - t.X0
		var pw0, pw1, pw2, pw3 float64
		for k := t.Y0; k < t.Y1; k++ {
			o := g.Index(t.X0, k, 0)
			kxs := kx[o : o+n+1]
			kyn := ky[o+s : o+s+n]
			kys := ky[o : o+n]
			pn := pd[o+s : o+s+n]
			pso := pd[o-s : o-s+n]
			pc := pd[o-1 : o+n+1]
			ws := wd[o : o+n : o+n]
			j := 0
			for ; j+3 < n; j += 4 {
				pc0, pc1, pc2, pc3 := pc[j+1], pc[j+2], pc[j+3], pc[j+4]
				v0 := (1+(kyn[j]+kys[j])+(kxs[j+1]+kxs[j]))*pc0 -
					(kyn[j]*pn[j] + kys[j]*pso[j]) -
					(kxs[j+1]*pc[j+2] + kxs[j]*pc[j])
				v1 := (1+(kyn[j+1]+kys[j+1])+(kxs[j+2]+kxs[j+1]))*pc1 -
					(kyn[j+1]*pn[j+1] + kys[j+1]*pso[j+1]) -
					(kxs[j+2]*pc[j+3] + kxs[j+1]*pc[j+1])
				v2 := (1+(kyn[j+2]+kys[j+2])+(kxs[j+3]+kxs[j+2]))*pc2 -
					(kyn[j+2]*pn[j+2] + kys[j+2]*pso[j+2]) -
					(kxs[j+3]*pc[j+4] + kxs[j+2]*pc[j+2])
				v3 := (1+(kyn[j+3]+kys[j+3])+(kxs[j+4]+kxs[j+3]))*pc3 -
					(kyn[j+3]*pn[j+3] + kys[j+3]*pso[j+3]) -
					(kxs[j+4]*pc[j+5] + kxs[j+3]*pc[j+3])
				ws[j], ws[j+1], ws[j+2], ws[j+3] = v0, v1, v2, v3
				pw0 += pc0 * v0
				pw1 += pc1 * v1
				pw2 += pc2 * v2
				pw3 += pc3 * v3
			}
			for ; j < n; j++ {
				pc0 := pc[j+1]
				v := (1+(kyn[j]+kys[j])+(kxs[j+1]+kxs[j]))*pc0 -
					(kyn[j]*pn[j] + kys[j]*pso[j]) -
					(kxs[j+1]*pc[j+2] + kxs[j]*pc[j])
				ws[j] = v
				pw0 += pc0 * v
			}
		}
		acc[0] += (pw0 + pw1) + (pw2 + pw3)
	}
}

func (op *Operator) applyDot25(pd, wd []float64) func(t par.Tile, acc []float64) {
	g := op.Grid
	s := g.Stride()
	kx, ky := op.Kx.Data, op.Ky.Data
	return func(t par.Tile, acc []float64) {
		n := t.X1 - t.X0
		var pw0, pw1, pw2, pw3 float64
		var ww0, ww1, ww2, ww3 float64
		for k := t.Y0; k < t.Y1; k++ {
			o := g.Index(t.X0, k, 0)
			kxs := kx[o : o+n+1]
			kyn := ky[o+s : o+s+n]
			kys := ky[o : o+n]
			pn := pd[o+s : o+s+n]
			pso := pd[o-s : o-s+n]
			pc := pd[o-1 : o+n+1]
			ws := wd[o : o+n : o+n]
			j := 0
			for ; j+3 < n; j += 4 {
				pc0, pc1, pc2, pc3 := pc[j+1], pc[j+2], pc[j+3], pc[j+4]
				v0 := (1+(kyn[j]+kys[j])+(kxs[j+1]+kxs[j]))*pc0 -
					(kyn[j]*pn[j] + kys[j]*pso[j]) -
					(kxs[j+1]*pc[j+2] + kxs[j]*pc[j])
				v1 := (1+(kyn[j+1]+kys[j+1])+(kxs[j+2]+kxs[j+1]))*pc1 -
					(kyn[j+1]*pn[j+1] + kys[j+1]*pso[j+1]) -
					(kxs[j+2]*pc[j+3] + kxs[j+1]*pc[j+1])
				v2 := (1+(kyn[j+2]+kys[j+2])+(kxs[j+3]+kxs[j+2]))*pc2 -
					(kyn[j+2]*pn[j+2] + kys[j+2]*pso[j+2]) -
					(kxs[j+3]*pc[j+4] + kxs[j+2]*pc[j+2])
				v3 := (1+(kyn[j+3]+kys[j+3])+(kxs[j+4]+kxs[j+3]))*pc3 -
					(kyn[j+3]*pn[j+3] + kys[j+3]*pso[j+3]) -
					(kxs[j+4]*pc[j+5] + kxs[j+3]*pc[j+3])
				ws[j], ws[j+1], ws[j+2], ws[j+3] = v0, v1, v2, v3
				pw0 += pc0 * v0
				ww0 += v0 * v0
				pw1 += pc1 * v1
				ww1 += v1 * v1
				pw2 += pc2 * v2
				ww2 += v2 * v2
				pw3 += pc3 * v3
				ww3 += v3 * v3
			}
			for ; j < n; j++ {
				pc0 := pc[j+1]
				v := (1+(kyn[j]+kys[j])+(kxs[j+1]+kxs[j]))*pc0 -
					(kyn[j]*pn[j] + kys[j]*pso[j]) -
					(kxs[j+1]*pc[j+2] + kxs[j]*pc[j])
				ws[j] = v
				pw0 += pc0 * v
				ww0 += v * v
			}
		}
		acc[0] += (pw0 + pw1) + (pw2 + pw3)
		acc[1] += (ww0 + ww1) + (ww2 + ww3)
	}
}

// applyPreDot5 keeps a rolling three-row window of u = minv ⊙ r
// (extended one cell left/right) per tile, so every product is computed
// once and m, r stream through exactly one read each — the buffer rows
// stay L1-resident across the stencil evaluation. Edge cells recomputed
// by the adjacent tile are the same pointwise products, so tiling leaves
// the sweep's output unchanged.
func (op *Operator) applyPreDot5(md, rd, wd []float64) func(t par.Tile, acc []float64) {
	g := op.Grid
	s := g.Stride()
	kx, ky := op.Kx.Data, op.Ky.Data
	return func(t par.Tile, acc []float64) {
		n := t.X1 - t.X0
		width := n + 2
		buf := make([]float64, 3*width)
		us := buf[0*width : 1*width : 1*width] // row k−1
		uc := buf[1*width : 2*width : 2*width] // row k
		un := buf[2*width : 3*width : 3*width] // row k+1
		fill := func(dst []float64, k int) {
			o := g.Index(t.X0-1, k, 0)
			ms := md[o : o+width : o+width]
			rs := rd[o:][:width:width]
			j := 0
			for ; j+3 < width; j += 4 {
				dst[j] = ms[j] * rs[j]
				dst[j+1] = ms[j+1] * rs[j+1]
				dst[j+2] = ms[j+2] * rs[j+2]
				dst[j+3] = ms[j+3] * rs[j+3]
			}
			for ; j < width; j++ {
				dst[j] = ms[j] * rs[j]
			}
		}
		fill(us, t.Y0-1)
		fill(uc, t.Y0)
		var uw0, uw1 float64
		for k := t.Y0; k < t.Y1; k++ {
			fill(un, k+1)
			o := g.Index(t.X0, k, 0)
			kxs := kx[o : o+n+1]
			kyn := ky[o+s : o+s+n]
			kys := ky[o : o+n]
			ws := wd[o : o+n : o+n]
			j := 0
			for ; j+1 < n; j += 2 {
				uc0 := uc[j+1]
				v0 := (1+(kyn[j]+kys[j])+(kxs[j+1]+kxs[j]))*uc0 -
					(kyn[j]*un[j+1] + kys[j]*us[j+1]) -
					(kxs[j+1]*uc[j+2] + kxs[j]*uc[j])
				ws[j] = v0
				uw0 += uc0 * v0
				uc1 := uc[j+2]
				v1 := (1+(kyn[j+1]+kys[j+1])+(kxs[j+2]+kxs[j+1]))*uc1 -
					(kyn[j+1]*un[j+2] + kys[j+1]*us[j+2]) -
					(kxs[j+2]*uc[j+3] + kxs[j+1]*uc[j+1])
				ws[j+1] = v1
				uw1 += uc1 * v1
			}
			for ; j < n; j++ {
				uc0 := uc[j+1]
				v := (1+(kyn[j]+kys[j])+(kxs[j+1]+kxs[j]))*uc0 -
					(kyn[j]*un[j+1] + kys[j]*us[j+1]) -
					(kxs[j+1]*uc[j+2] + kxs[j]*uc[j])
				ws[j] = v
				uw0 += uc0 * v
			}
			us, uc, un = uc, un, us
		}
		acc[0] += uw0 + uw1
	}
}

func (op *Operator) applyPreDotInit5(md, rd, wd []float64) func(t par.Tile, acc []float64) {
	g := op.Grid
	s := g.Stride()
	kx, ky := op.Kx.Data, op.Ky.Data
	return func(t par.Tile, acc []float64) {
		n := t.X1 - t.X0
		var ga, de, rs float64
		for k := t.Y0; k < t.Y1; k++ {
			rrw := sliceStencilRows(g, t, kx, ky, rd, k)
			o := g.Index(t.X0, k, 0)
			ws := wd[o : o+n : o+n]
			if md == nil {
				for j := 0; j < n; j++ {
					rc := rrw.pc[j+1]
					v := (1+(rrw.kyn[j]+rrw.kys[j])+(rrw.kxs[j+1]+rrw.kxs[j]))*rc -
						(rrw.kyn[j]*rrw.pn[j] + rrw.kys[j]*rrw.pso[j]) -
						(rrw.kxs[j+1]*rrw.pc[j+2] + rrw.kxs[j]*rrw.pc[j])
					ws[j] = v
					ga += rc * rc
					de += rc * v
					rs += rc * rc
				}
				continue
			}
			mn := md[o+s : o+s+n]
			mso := md[o-s : o-s+n]
			mc := md[o-1 : o+n+1]
			for j := 0; j < n; j++ {
				rc := rrw.pc[j+1]
				uc := mc[j+1] * rc
				v := (1+(rrw.kyn[j]+rrw.kys[j])+(rrw.kxs[j+1]+rrw.kxs[j]))*uc -
					(rrw.kyn[j]*(mn[j]*rrw.pn[j]) + rrw.kys[j]*(mso[j]*rrw.pso[j])) -
					(rrw.kxs[j+1]*(mc[j+2]*rrw.pc[j+2]) + rrw.kxs[j]*(mc[j]*rrw.pc[j]))
				ws[j] = v
				ga += rc * uc
				de += uc * v
				rs += rc * rc
			}
		}
		acc[0] += ga
		acc[1] += de
		acc[2] += rs
	}
}

// stencilRows bundles the re-sliced rows the 5-point kernels read for one
// grid row k over columns [b.X0, b.X1): face coefficients, and the centre
// row of p extended one cell each side (ps[j] = p(X0+j−1), ps[j+1] =
// centre, ps[j+2] = east) plus the north/south rows. The three-index
// re-slices let the compiler hoist every bounds check out of the j loop.
type stencilRows struct {
	kxs      []float64 // kxs[j] = Kx(X0+j), kxs[j+1] = Kx(X0+j+1)
	kyn, kys []float64 // north/south face Ky rows
	pn, pso  []float64 // north/south p rows
	pc       []float64 // centre p row, extended [X0-1, X1+1)
}

func sliceStencilRows(g *grid.Grid, b par.Tile, kx, ky, p []float64, k int) stencilRows {
	s := g.Stride()
	o := g.Index(b.X0, k, 0)
	n := b.X1 - b.X0
	return stencilRows{
		kxs: kx[o : o+n+1],
		kyn: ky[o+s : o+s+n],
		kys: ky[o : o+n],
		pn:  p[o+s : o+s+n],
		pso: p[o-s : o-s+n],
		pc:  p[o-1 : o+n+1],
	}
}

func (op *Operator) residual5(o, n int, u, b, r []float64) {
	s := op.Grid.Stride()
	kx, ky := op.Kx.Data, op.Ky.Data
	for i := o; i < o+n; i++ {
		au := (1+(ky[i+s]+ky[i])+(kx[i+1]+kx[i]))*u[i] -
			(ky[i+s]*u[i+s] + ky[i]*u[i-s]) -
			(kx[i+1]*u[i+1] + kx[i]*u[i-1])
		r[i] = b[i] - au
	}
}

func (op *Operator) jacobi5(o, n int, u, un, rhs []float64, sum float64) float64 {
	s := op.Grid.Stride()
	kx, ky := op.Kx.Data, op.Ky.Data
	for i := o; i < o+n; i++ {
		diag := 1 + (ky[i+s] + ky[i]) + (kx[i+1] + kx[i])
		v := (rhs[i] +
			ky[i+s]*un[i+s] + ky[i]*un[i-s] +
			kx[i+1]*un[i+1] + kx[i]*un[i-1]) / diag
		u[i] = v
		sum += math.Abs(v - un[i])
	}
	return sum
}

func (op *Operator) diagonal5(o, n int, d []float64) {
	s := op.Grid.Stride()
	kx, ky := op.Kx.Data, op.Ky.Data
	for i := o; i < o+n; i++ {
		d[i] = 1 + (ky[i+s] + ky[i]) + (kx[i+1] + kx[i])
	}
}
