package stencil

import (
	"math"

	"tealeaf/internal/par"
)

// The 7-point row kernels: the Operator's sweeps on a 3D grid. See the
// package comment for why they are kept apart from the 5-point ones.

// rows3 bundles the re-sliced rows the 7-point kernels read for one grid
// row (j,k) over columns [b.X0, b.X1): the six face-coefficient rows, the
// four lateral p rows and the centre row extended one cell each side. The
// three-index re-slices let the compiler hoist bounds checks out of the
// inner loop, as sliceStencilRows does for the 5-point kernels.
type rows3 struct {
	kxs                []float64 // kxs[i] = Kx(X0+i), kxs[i+1] = east face
	kyn, kys, kzf, kzb []float64
	pn, ps, pf, pb     []float64
	pc                 []float64 // centre p row, extended [X0-1, X1+1)
}

func (op *Operator) sliceRows3(b par.Tile, p []float64, j, k int) rows3 {
	g := op.Grid
	sy, sz := g.Stride(), g.PlaneStride()
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

func (op *Operator) apply7(pd, wd []float64) func(t par.Tile) {
	g := op.Grid
	return func(t par.Tile) {
		n := t.X1 - t.X0
		for k := t.Z0; k < t.Z1; k++ {
			for j := t.Y0; j < t.Y1; j++ {
				r := op.sliceRows3(t, pd, j, k)
				o := g.Index(t.X0, j, k)
				ws := wd[o : o+n : o+n]
				for i := 0; i < n; i++ {
					ws[i] = (1+(r.kxs[i+1]+r.kxs[i])+(r.kyn[i]+r.kys[i])+(r.kzf[i]+r.kzb[i]))*r.pc[i+1] -
						(r.kxs[i+1]*r.pc[i+2] + r.kxs[i]*r.pc[i]) -
						(r.kyn[i]*r.pn[i] + r.kys[i]*r.ps[i]) -
						(r.kzf[i]*r.pf[i] + r.kzb[i]*r.pb[i])
				}
			}
		}
	}
}

func (op *Operator) applyDot7(pd, wd []float64) func(t par.Tile, acc []float64) {
	g := op.Grid
	return func(t par.Tile, acc []float64) {
		n := t.X1 - t.X0
		var pw float64
		for k := t.Z0; k < t.Z1; k++ {
			for j := t.Y0; j < t.Y1; j++ {
				r := op.sliceRows3(t, pd, j, k)
				o := g.Index(t.X0, j, k)
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
	}
}

func (op *Operator) applyDot27(pd, wd []float64) func(t par.Tile, acc []float64) {
	g := op.Grid
	return func(t par.Tile, acc []float64) {
		n := t.X1 - t.X0
		var pw0, pw1, ww0, ww1 float64
		for k := t.Z0; k < t.Z1; k++ {
			for j := t.Y0; j < t.Y1; j++ {
				r := op.sliceRows3(t, pd, j, k)
				o := g.Index(t.X0, j, k)
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

func (op *Operator) applyPreDot7(md, rd, wd []float64) func(t par.Tile, acc []float64) {
	g := op.Grid
	return func(t par.Tile, acc []float64) {
		n := t.X1 - t.X0
		var delta float64
		for k := t.Z0; k < t.Z1; k++ {
			for j := t.Y0; j < t.Y1; j++ {
				s := op.sliceRows3(t, rd, j, k)
				m := op.sliceRows3(t, md, j, k)
				o := g.Index(t.X0, j, k)
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

func (op *Operator) applyPreDotInit7(md, rd, wd []float64) func(t par.Tile, out []float64) {
	g := op.Grid
	return func(t par.Tile, out []float64) {
		n := t.X1 - t.X0
		var ga, de, rr2 float64
		for k := t.Z0; k < t.Z1; k++ {
			for j := t.Y0; j < t.Y1; j++ {
				s := op.sliceRows3(t, rd, j, k)
				o := g.Index(t.X0, j, k)
				ws := wd[o : o+n : o+n]
				if md == nil {
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
				m := op.sliceRows3(t, md, j, k)
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
		if md == nil {
			ga = rr2
		}
		out[0] += ga
		out[1] += de
		out[2] += rr2
	}
}

func (op *Operator) residual7(o, n int, u, b, r []float64) {
	g := op.Grid
	sy, sz := g.Stride(), g.PlaneStride()
	kx, ky, kz := op.Kx.Data, op.Ky.Data, op.Kz.Data
	for i := o; i < o+n; i++ {
		v := (1+(kx[i+1]+kx[i])+(ky[i+sy]+ky[i])+(kz[i+sz]+kz[i]))*u[i] -
			(kx[i+1]*u[i+1] + kx[i]*u[i-1]) -
			(ky[i+sy]*u[i+sy] + ky[i]*u[i-sy]) -
			(kz[i+sz]*u[i+sz] + kz[i]*u[i-sz])
		r[i] = b[i] - v
	}
}

func (op *Operator) jacobi7(o, n int, u, un, rhs []float64, sum float64) float64 {
	g := op.Grid
	sy, sz := g.Stride(), g.PlaneStride()
	kx, ky, kz := op.Kx.Data, op.Ky.Data, op.Kz.Data
	for i := o; i < o+n; i++ {
		diag := 1 + (kz[i+sz] + kz[i]) + (ky[i+sy] + ky[i]) + (kx[i+1] + kx[i])
		v := (rhs[i] +
			kz[i+sz]*un[i+sz] + kz[i]*un[i-sz] +
			ky[i+sy]*un[i+sy] + ky[i]*un[i-sy] +
			kx[i+1]*un[i+1] + kx[i]*un[i-1]) / diag
		u[i] = v
		sum += math.Abs(v - un[i])
	}
	return sum
}

func (op *Operator) diagonal7(o, n int, d []float64) {
	g := op.Grid
	sy, sz := g.Stride(), g.PlaneStride()
	kx, ky, kz := op.Kx.Data, op.Ky.Data, op.Kz.Data
	for i := o; i < o+n; i++ {
		d[i] = 1 + (kx[i+1] + kx[i]) + (ky[i+sy] + ky[i]) + (kz[i+sz] + kz[i])
	}
}
