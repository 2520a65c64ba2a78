package stencil

import (
	"fmt"
	"math"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
)

// PhysicalSides3D records which faces of a 3D (sub-)grid lie on the
// physical domain boundary, where the zero-flux condition zeroes the face
// coefficients. A rank interior to the process grid has none.
type PhysicalSides3D struct {
	Left, Right, Down, Up, Back, Front bool
}

// AllPhysical3D is the single-rank / global-grid case.
var AllPhysical3D = PhysicalSides3D{Left: true, Right: true, Down: true, Up: true, Back: true, Front: true}

// Operator3D is the matrix-free 7-point operator for the 3D heat equation,
// the direct extension of Operator2D with a third coefficient direction.
type Operator3D struct {
	Grid       *grid.Grid3D
	Kx, Ky, Kz *grid.Field3D
	Rx, Ry, Rz float64
}

// BuildOperator3D derives 3D face coefficients from the cell-centred
// density; see BuildOperator2D for the construction. The density must
// have valid halo values wherever the operator will be applied (reflected
// on physical faces, exchanged across rank boundaries); faces on the
// physical boundary are zeroed (zero-flux), faces on rank boundaries keep
// their neighbour-coupled coefficients so the distributed operator equals
// the global one.
func BuildOperator3D(pool *par.Pool, density *grid.Field3D, dt float64, coef Coefficient, phys PhysicalSides3D) (*Operator3D, error) {
	if dt <= 0 || math.IsNaN(dt) || math.IsInf(dt, 0) {
		return nil, fmt.Errorf("stencil: dt = %v must be positive and finite", dt)
	}
	if coef != Conductivity && coef != RecipConductivity {
		return nil, fmt.Errorf("stencil: unknown coefficient mode %d", int(coef))
	}
	g := density.Grid
	op := &Operator3D{
		Grid: g,
		Kx:   grid.NewField3D(g), Ky: grid.NewField3D(g), Kz: grid.NewField3D(g),
		Rx: dt / (g.DX * g.DX), Ry: dt / (g.DY * g.DY), Rz: dt / (g.DZ * g.DZ),
	}
	h := g.Halo
	w := grid.NewField3D(g)
	pool.For(-h, g.NZ+h, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			for j := -h; j < g.NY+h; j++ {
				for i := -h; i < g.NX+h; i++ {
					rho := density.At(i, j, k)
					if rho <= 0 || math.IsNaN(rho) {
						w.Set(i, j, k, math.NaN())
						continue
					}
					if coef == RecipConductivity {
						w.Set(i, j, k, 1/rho)
					} else {
						w.Set(i, j, k, rho)
					}
				}
			}
		}
	})
	for _, v := range w.Data {
		if math.IsNaN(v) {
			return nil, fmt.Errorf("stencil: non-positive or NaN density encountered")
		}
	}
	face := func(a, b float64) float64 { return (a + b) / (2 * a * b) }
	pool.For(-h+1, g.NZ+h, func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			for j := -h + 1; j < g.NY+h; j++ {
				for i := -h + 1; i < g.NX+h; i++ {
					wc := w.At(i, j, k)
					op.Kx.Set(i, j, k, op.Rx*face(w.At(i-1, j, k), wc))
					op.Ky.Set(i, j, k, op.Ry*face(w.At(i, j-1, k), wc))
					op.Kz.Set(i, j, k, op.Rz*face(w.At(i, j, k-1), wc))
				}
			}
		}
	})
	// Zero-flux on the physical faces only.
	if phys.Left || phys.Right {
		for k := -h; k < g.NZ+h; k++ {
			for j := -h; j < g.NY+h; j++ {
				if phys.Left {
					for i := -h; i <= 0; i++ {
						op.Kx.Set(i, j, k, 0)
					}
				}
				if phys.Right {
					for i := g.NX; i < g.NX+h; i++ {
						op.Kx.Set(i, j, k, 0)
					}
				}
			}
		}
	}
	if phys.Down || phys.Up {
		for k := -h; k < g.NZ+h; k++ {
			for i := -h; i < g.NX+h; i++ {
				if phys.Down {
					for j := -h; j <= 0; j++ {
						op.Ky.Set(i, j, k, 0)
					}
				}
				if phys.Up {
					for j := g.NY; j < g.NY+h; j++ {
						op.Ky.Set(i, j, k, 0)
					}
				}
			}
		}
	}
	if phys.Back || phys.Front {
		for j := -h; j < g.NY+h; j++ {
			for i := -h; i < g.NX+h; i++ {
				if phys.Back {
					for k := -h; k <= 0; k++ {
						op.Kz.Set(i, j, k, 0)
					}
				}
				if phys.Front {
					for k := g.NZ; k < g.NZ+h; k++ {
						op.Kz.Set(i, j, k, 0)
					}
				}
			}
		}
	}
	return op, nil
}

// rows3 bundles the re-sliced rows the 7-point kernels read for one grid
// row (j,k) over columns [b.X0, b.X1): the six face-coefficient rows, the
// four lateral p rows and the centre row extended one cell each side. The
// three-index re-slices let the compiler hoist bounds checks out of the
// inner loop, as in the 2D sliceStencilRows.
type rows3 struct {
	kxs                []float64 // kxs[i] = Kx(X0+i), kxs[i+1] = east face
	kyn, kys, kzf, kzb []float64
	pn, ps, pf, pb     []float64
	pc                 []float64 // centre p row, extended [X0-1, X1+1)
}

func (op *Operator3D) sliceRows3(b grid.Bounds3D, p []float64, j, k int) rows3 {
	g := op.Grid
	sy := g.NX + 2*g.Halo
	sz := sy * (g.NY + 2*g.Halo)
	o := g.Index(b.X0, j, k)
	n := b.X1 - b.X0
	return rows3{
		kxs: op.Kx.Data[o : o+n+1],
		kyn: op.Ky.Data[o+sy : o+sy+n],
		kys: op.Ky.Data[o : o+n],
		kzf: op.Kz.Data[o+sz : o+sz+n],
		kzb: op.Kz.Data[o : o+n],
		pn:  p[o+sy : o+sy+n],
		ps:  p[o-sy : o-sy+n],
		pf:  p[o+sz : o+sz+n],
		pb:  p[o-sz : o-sz+n],
		pc:  p[o-1 : o+n+1],
	}
}

// box3s is the par.Box for a 3D stencil bounds.
func box3s(b grid.Bounds3D) par.Box {
	return par.Box3D(b.X0, b.X1, b.Y0, b.Y1, b.Z0, b.Z1)
}

// tb3 is the stencil bounds for one tile.
func tb3(t par.Tile) grid.Bounds3D {
	return grid.Bounds3D{X0: t.X0, X1: t.X1, Y0: t.Y0, Y1: t.Y1, Z0: t.Z0, Z1: t.Z1}
}

// Apply computes w = A·p over the cells of b. p must have valid values
// one cell beyond b on every side.
func (op *Operator3D) Apply(pool *par.Pool, b grid.Bounds3D, p, w *grid.Field3D) {
	if b.Empty() {
		return
	}
	g := op.Grid
	pd, wd := p.Data, w.Data
	pool.ForTiles(box3s(b), func(t par.Tile) {
		tb := tb3(t)
		n := tb.X1 - tb.X0
		for k := tb.Z0; k < tb.Z1; k++ {
			for j := tb.Y0; j < tb.Y1; j++ {
				r := op.sliceRows3(tb, pd, j, k)
				o := g.Index(tb.X0, j, k)
				ws := wd[o : o+n : o+n]
				for i := 0; i < n; i++ {
					ws[i] = (1+(r.kxs[i+1]+r.kxs[i])+(r.kyn[i]+r.kys[i])+(r.kzf[i]+r.kzb[i]))*r.pc[i+1] -
						(r.kxs[i+1]*r.pc[i+2] + r.kxs[i]*r.pc[i]) -
						(r.kyn[i]*r.pn[i] + r.kys[i]*r.ps[i]) -
						(r.kzf[i]*r.pf[i] + r.kzb[i]*r.pb[i])
				}
			}
		}
	})
}

// ApplyDot fuses w = A·p with pw = p·w over b.
func (op *Operator3D) ApplyDot(pool *par.Pool, b grid.Bounds3D, p, w *grid.Field3D) float64 {
	if b.Empty() {
		return 0
	}
	g := op.Grid
	pd, wd := p.Data, w.Data
	return pool.ForTilesReduceN(1, box3s(b), func(t par.Tile, acc []float64) {
		tb := tb3(t)
		n := tb.X1 - tb.X0
		var pw float64
		for k := tb.Z0; k < tb.Z1; k++ {
			for j := tb.Y0; j < tb.Y1; j++ {
				r := op.sliceRows3(tb, pd, j, k)
				o := g.Index(tb.X0, j, k)
				ws := wd[o : o+n : o+n]
				for i := 0; i < n; i++ {
					v := (1+(r.kxs[i+1]+r.kxs[i])+(r.kyn[i]+r.kys[i])+(r.kzf[i]+r.kzb[i]))*r.pc[i+1] -
						(r.kxs[i+1]*r.pc[i+2] + r.kxs[i]*r.pc[i]) -
						(r.kyn[i]*r.pn[i] + r.kys[i]*r.ps[i]) -
						(r.kzf[i]*r.pf[i] + r.kzb[i]*r.pb[i])
					ws[i] = v
					pw += r.pc[i+1] * v
				}
			}
		}
		acc[0] += pw
	})[0]
}

// ApplyDot2 computes w = A·p fused with the two dot products p·w and w·w
// over b in one sweep — the 3D variant of Operator2D.ApplyDot2, used by
// the fused single-reduction CG (p·w feeds the Chronopoulos–Gear step
// scalar, w·w is a free breakdown sentinel).
func (op *Operator3D) ApplyDot2(pool *par.Pool, b grid.Bounds3D, p, w *grid.Field3D) (pw, ww float64) {
	if b.Empty() {
		return 0, 0
	}
	g := op.Grid
	pd, wd := p.Data, w.Data
	acc2 := pool.ForTilesReduceN(2, box3s(b), op.applyDot2Body(g, pd, wd))
	return acc2[0], acc2[1]
}

// applyDot2Body is the tile body shared by ApplyDot2 and the identity-
// preconditioner path of ApplyPreDotChain — one closure, so the chained
// and unchained sweeps cannot drift bit-wise.
func (op *Operator3D) applyDot2Body(g *grid.Grid3D, pd, wd []float64) func(t par.Tile, acc []float64) {
	return func(t par.Tile, acc []float64) {
		tb := tb3(t)
		n := tb.X1 - tb.X0
		var pw0, pw1, ww0, ww1 float64
		for k := tb.Z0; k < tb.Z1; k++ {
			for j := tb.Y0; j < tb.Y1; j++ {
				r := op.sliceRows3(tb, pd, j, k)
				o := g.Index(tb.X0, j, k)
				ws := wd[o : o+n : o+n]
				i := 0
				for ; i+1 < n; i += 2 {
					c0 := r.pc[i+1]
					v0 := (1+(r.kxs[i+1]+r.kxs[i])+(r.kyn[i]+r.kys[i])+(r.kzf[i]+r.kzb[i]))*c0 -
						(r.kxs[i+1]*r.pc[i+2] + r.kxs[i]*r.pc[i]) -
						(r.kyn[i]*r.pn[i] + r.kys[i]*r.ps[i]) -
						(r.kzf[i]*r.pf[i] + r.kzb[i]*r.pb[i])
					ws[i] = v0
					pw0 += c0 * v0
					ww0 += v0 * v0
					c1 := r.pc[i+2]
					v1 := (1+(r.kxs[i+2]+r.kxs[i+1])+(r.kyn[i+1]+r.kys[i+1])+(r.kzf[i+1]+r.kzb[i+1]))*c1 -
						(r.kxs[i+2]*r.pc[i+3] + r.kxs[i+1]*r.pc[i+1]) -
						(r.kyn[i+1]*r.pn[i+1] + r.kys[i+1]*r.ps[i+1]) -
						(r.kzf[i+1]*r.pf[i+1] + r.kzb[i+1]*r.pb[i+1])
					ws[i+1] = v1
					pw1 += c1 * v1
					ww1 += v1 * v1
				}
				for ; i < n; i++ {
					c := r.pc[i+1]
					v := (1+(r.kxs[i+1]+r.kxs[i])+(r.kyn[i]+r.kys[i])+(r.kzf[i]+r.kzb[i]))*c -
						(r.kxs[i+1]*r.pc[i+2] + r.kxs[i]*r.pc[i]) -
						(r.kyn[i]*r.pn[i] + r.kys[i]*r.ps[i]) -
						(r.kzf[i]*r.pf[i] + r.kzb[i]*r.pb[i])
					ws[i] = v
					pw0 += c * v
					ww0 += v * v
				}
			}
		}
		acc[0] += pw0 + pw1
		acc[1] += ww0 + ww1
	}
}

// ApplyPreDot computes w = A·u with u = minv ⊙ r (the diagonally
// preconditioned residual, evaluated on the fly — u is never
// materialised) fused with δ = u·w over b, the 3D variant of the 2D
// ApplyPreDot. nil minv selects the identity (u = r). minv must be valid
// one cell beyond b on every side, which NewJacobi3D guarantees on the
// padded region minus its outermost layer.
func (op *Operator3D) ApplyPreDot(pool *par.Pool, b grid.Bounds3D, minv *grid.Field3D, r, w *grid.Field3D) float64 {
	if minv == nil {
		pw, _ := op.ApplyDot2(pool, b, r, w)
		return pw
	}
	if b.Empty() {
		return 0
	}
	g := op.Grid
	rd, wd := r.Data, w.Data
	return pool.ForTilesReduceN(1, box3s(b), op.applyPreDotBody(g, minv.Data, rd, wd))[0]
}

// ApplyPreDotChain is ApplyPreDot restricted to one chain band's tile
// range [t0,t1) of the accumulator's box: same tile body, with the u·w
// partial landing in slot 0 of the per-tile accumulator for an
// end-of-sweep fold (see the 2D ApplyPreDotChain). nil minv selects the
// identity, chunking ApplyDot2's body instead (which also fills slot 1
// with w·w, exactly as the unchained identity path computes it), so acc
// must be at least 2 wide.
func (op *Operator3D) ApplyPreDotChain(pool *par.Pool, acc *par.ChainAccum, t0, t1 int, minv *grid.Field3D, r, w *grid.Field3D) {
	g := op.Grid
	if minv == nil {
		pool.ForTilesChunk(acc, t0, t1, op.applyDot2Body(g, r.Data, w.Data))
		return
	}
	pool.ForTilesChunk(acc, t0, t1, op.applyPreDotBody(g, minv.Data, r.Data, w.Data))
}

// applyPreDotBody is the tile body shared by ApplyPreDot and
// ApplyPreDotChain — one closure, so the chained and unchained sweeps
// cannot drift bit-wise.
func (op *Operator3D) applyPreDotBody(g *grid.Grid3D, md, rd, wd []float64) func(t par.Tile, acc []float64) {
	return func(t par.Tile, acc []float64) {
		tb := tb3(t)
		n := tb.X1 - tb.X0
		var delta float64
		for k := tb.Z0; k < tb.Z1; k++ {
			for j := tb.Y0; j < tb.Y1; j++ {
				s := op.sliceRows3(tb, rd, j, k)
				m := op.sliceRows3(tb, md, j, k)
				o := g.Index(tb.X0, j, k)
				ws := wd[o : o+n : o+n]
				for i := 0; i < n; i++ {
					uc := m.pc[i+1] * s.pc[i+1]
					v := (1+(s.kxs[i+1]+s.kxs[i])+(s.kyn[i]+s.kys[i])+(s.kzf[i]+s.kzb[i]))*uc -
						(s.kxs[i+1]*(m.pc[i+2]*s.pc[i+2]) + s.kxs[i]*(m.pc[i]*s.pc[i])) -
						(s.kyn[i]*(m.pn[i]*s.pn[i]) + s.kys[i]*(m.ps[i]*s.ps[i])) -
						(s.kzf[i]*(m.pf[i]*s.pf[i]) + s.kzb[i]*(m.pb[i]*s.pb[i]))
					ws[i] = v
					delta += uc * v
				}
			}
		}
		acc[0] += delta
	}
}

// ApplyPreDotInit is the fused startup sweep of the 3D single-reduction
// CG: w = A·u with u = minv ⊙ r, returning γ = r·u, δ = u·w and rr = r·r
// in one pass. nil minv selects the identity (γ == rr).
func (op *Operator3D) ApplyPreDotInit(pool *par.Pool, b grid.Bounds3D, minv *grid.Field3D, r, w *grid.Field3D) (gamma, delta, rr float64) {
	if b.Empty() {
		return 0, 0, 0
	}
	g := op.Grid
	rd, wd := r.Data, w.Data
	acc := pool.ForTilesReduceN(3, box3s(b), func(t par.Tile, out []float64) {
		tb := tb3(t)
		n := tb.X1 - tb.X0
		var ga, de, rr2 float64
		for k := tb.Z0; k < tb.Z1; k++ {
			for j := tb.Y0; j < tb.Y1; j++ {
				s := op.sliceRows3(tb, rd, j, k)
				o := g.Index(tb.X0, j, k)
				ws := wd[o : o+n : o+n]
				if minv == nil {
					// Identity: u = r, so γ = rr; still one sweep.
					for i := 0; i < n; i++ {
						rc := s.pc[i+1]
						v := (1+(s.kxs[i+1]+s.kxs[i])+(s.kyn[i]+s.kys[i])+(s.kzf[i]+s.kzb[i]))*rc -
							(s.kxs[i+1]*s.pc[i+2] + s.kxs[i]*s.pc[i]) -
							(s.kyn[i]*s.pn[i] + s.kys[i]*s.ps[i]) -
							(s.kzf[i]*s.pf[i] + s.kzb[i]*s.pb[i])
						ws[i] = v
						de += rc * v
						rr2 += rc * rc
					}
					continue
				}
				m := op.sliceRows3(tb, minv.Data, j, k)
				for i := 0; i < n; i++ {
					rc := s.pc[i+1]
					uc := m.pc[i+1] * rc
					v := (1+(s.kxs[i+1]+s.kxs[i])+(s.kyn[i]+s.kys[i])+(s.kzf[i]+s.kzb[i]))*uc -
						(s.kxs[i+1]*(m.pc[i+2]*s.pc[i+2]) + s.kxs[i]*(m.pc[i]*s.pc[i])) -
						(s.kyn[i]*(m.pn[i]*s.pn[i]) + s.kys[i]*(m.ps[i]*s.ps[i])) -
						(s.kzf[i]*(m.pf[i]*s.pf[i]) + s.kzb[i]*(m.pb[i]*s.pb[i]))
					ws[i] = v
					ga += rc * uc
					de += uc * v
					rr2 += rc * rc
				}
			}
		}
		if minv == nil {
			ga = rr2
		}
		out[0] += ga
		out[1] += de
		out[2] += rr2
	})
	return acc[0], acc[1], acc[2]
}

// Residual computes r = rhs − A·u over b.
func (op *Operator3D) Residual(pool *par.Pool, b grid.Bounds3D, u, rhs, r *grid.Field3D) {
	if b.Empty() {
		return
	}
	g := op.Grid
	ud, bd, rd := u.Data, rhs.Data, r.Data
	n := b.X1 - b.X0
	pool.For(b.Z0, b.Z1, func(z0, z1 int) {
		for k := z0; k < z1; k++ {
			for j := b.Y0; j < b.Y1; j++ {
				s := op.sliceRows3(b, ud, j, k)
				o := g.Index(b.X0, j, k)
				bs := bd[o : o+n : o+n]
				rs := rd[o : o+n : o+n]
				for i := 0; i < n; i++ {
					v := (1+(s.kxs[i+1]+s.kxs[i])+(s.kyn[i]+s.kys[i])+(s.kzf[i]+s.kzb[i]))*s.pc[i+1] -
						(s.kxs[i+1]*s.pc[i+2] + s.kxs[i]*s.pc[i]) -
						(s.kyn[i]*s.pn[i] + s.kys[i]*s.ps[i]) -
						(s.kzf[i]*s.pf[i] + s.kzb[i]*s.pb[i])
					rs[i] = bs[i] - v
				}
			}
		}
	})
}

// Diagonal writes diag(A) over b into d. The stencil needs the face
// coefficients one cell beyond each cell, so b must stay one cell inside
// the padded region.
func (op *Operator3D) Diagonal(pool *par.Pool, b grid.Bounds3D, d *grid.Field3D) {
	if b.Empty() {
		return
	}
	g := op.Grid
	sy := g.NX + 2*g.Halo
	sz := sy * (g.NY + 2*g.Halo)
	kx, ky, kz := op.Kx.Data, op.Ky.Data, op.Kz.Data
	dd := d.Data
	n := b.X1 - b.X0
	pool.For(b.Z0, b.Z1, func(z0, z1 int) {
		for k := z0; k < z1; k++ {
			for j := b.Y0; j < b.Y1; j++ {
				o := g.Index(b.X0, j, k)
				kxs := kx[o : o+n+1]
				kyn := ky[o+sy : o+sy+n]
				kys := ky[o : o+n]
				kzf := kz[o+sz : o+sz+n]
				kzb := kz[o : o+n]
				ds := dd[o : o+n : o+n]
				for i := 0; i < n; i++ {
					ds[i] = 1 + (kxs[i+1] + kxs[i]) + (kyn[i] + kys[i]) + (kzf[i] + kzb[i])
				}
			}
		}
	})
}
