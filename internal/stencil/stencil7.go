package stencil

import "math"

// The 7-point row kernels: the Operator's sweeps on a 3D grid. See the
// package comment for why they are kept apart from the 5-point ones and
// how they cut their rows.

// faces7 cuts the face coefficient rows of the n cells from o: the west
// and east Kx faces, the south and north Ky faces and the back and front
// Kz faces.
func (op *Operator) faces7(o, n int) (kxw, kxe, kys, kyn, kzb, kzf []float64) {
	sy, sz := op.Grid.Stride(), op.Grid.PlaneStride()
	kx, ky, kz := op.Kx.Data, op.Ky.Data, op.Kz.Data
	return kx[o:][:n], kx[o+1:][:n], ky[o:][:n], ky[o+sy:][:n], kz[o:][:n], kz[o+sz:][:n]
}

// points7 cuts the seven rows of p the 7-point stencil reads around the n
// cells from o: west, centre, east, then the south/north and back/front
// neighbour rows.
func (op *Operator) points7(p []float64, o, n int) (pw, pc, pe, ps, pn, pb, pf []float64) {
	sy, sz := op.Grid.Stride(), op.Grid.PlaneStride()
	return p[o-1:][:n], p[o:][:n], p[o+1:][:n], p[o-sy:][:n], p[o+sy:][:n], p[o-sz:][:n], p[o+sz:][:n]
}

func (op *Operator) apply7(o, n int, pd, wd []float64) {
	kxw, kxe, kys, kyn, kzb, kzf := op.faces7(o, n)
	pw, pc, pe, ps, pn, pb, pf := op.points7(pd, o, n)
	ws := wd[o:][:n]
	for i := range ws {
		ws[i] = (1+(kxe[i]+kxw[i])+(kyn[i]+kys[i])+(kzf[i]+kzb[i]))*pc[i] -
			(kxe[i]*pe[i] + kxw[i]*pw[i]) -
			(kyn[i]*pn[i] + kys[i]*ps[i]) -
			(kzf[i]*pf[i] + kzb[i]*pb[i])
	}
}

func (op *Operator) applyDot7(o, n int, pd, wd []float64, sum float64) float64 {
	kxw, kxe, kys, kyn, kzb, kzf := op.faces7(o, n)
	pw, pc, pe, ps, pn, pb, pf := op.points7(pd, o, n)
	ws := wd[o:][:n]
	for i := range ws {
		v := (1+(kxe[i]+kxw[i])+(kyn[i]+kys[i])+(kzf[i]+kzb[i]))*pc[i] -
			(kxe[i]*pe[i] + kxw[i]*pw[i]) -
			(kyn[i]*pn[i] + kys[i]*ps[i]) -
			(kzf[i]*pf[i] + kzb[i]*pb[i])
		ws[i] = v
		sum += pc[i] * v
	}
	return sum
}

func (op *Operator) applyPreDot7(o, n int, md, rd, wd []float64, delta float64) float64 {
	kxw, kxe, kys, kyn, kzb, kzf := op.faces7(o, n)
	rw, rc, re, rs, rn, rb, rf := op.points7(rd, o, n)
	mw, mc, me, ms, mn, mb, mf := op.points7(md, o, n)
	ws := wd[o:][:n]
	for i := range ws {
		uc := mc[i] * rc[i]
		v := (1+(kxe[i]+kxw[i])+(kyn[i]+kys[i])+(kzf[i]+kzb[i]))*uc -
			(kxe[i]*(me[i]*re[i]) + kxw[i]*(mw[i]*rw[i])) -
			(kyn[i]*(mn[i]*rn[i]) + kys[i]*(ms[i]*rs[i])) -
			(kzf[i]*(mf[i]*rf[i]) + kzb[i]*(mb[i]*rb[i]))
		ws[i] = v
		delta += uc * v
	}
	return delta
}

func (op *Operator) applyPreDotInit7(o, n int, md, rd, wd []float64, ga, de, rr float64) (float64, float64, float64) {
	kxw, kxe, kys, kyn, kzb, kzf := op.faces7(o, n)
	rw, rc, re, rs, rn, rb, rf := op.points7(rd, o, n)
	ws := wd[o:][:n]
	if md == nil {
		// Identity: u = r, so γ = rr; still one sweep.
		for i := range ws {
			c := rc[i]
			v := (1+(kxe[i]+kxw[i])+(kyn[i]+kys[i])+(kzf[i]+kzb[i]))*c -
				(kxe[i]*re[i] + kxw[i]*rw[i]) -
				(kyn[i]*rn[i] + kys[i]*rs[i]) -
				(kzf[i]*rf[i] + kzb[i]*rb[i])
			ws[i] = v
			ga += c * c
			de += c * v
			rr += c * c
		}
		return ga, de, rr
	}
	mw, mc, me, ms, mn, mb, mf := op.points7(md, o, n)
	for i := range ws {
		c := rc[i]
		uc := mc[i] * c
		v := (1+(kxe[i]+kxw[i])+(kyn[i]+kys[i])+(kzf[i]+kzb[i]))*uc -
			(kxe[i]*(me[i]*re[i]) + kxw[i]*(mw[i]*rw[i])) -
			(kyn[i]*(mn[i]*rn[i]) + kys[i]*(ms[i]*rs[i])) -
			(kzf[i]*(mf[i]*rf[i]) + kzb[i]*(mb[i]*rb[i]))
		ws[i] = v
		ga += c * uc
		de += uc * v
		rr += c * c
	}
	return ga, de, rr
}

func (op *Operator) ppcgInner7(o, n int, alpha, beta float64, md, sdd, snd, rd []float64) {
	kxw, kxe, kys, kyn, kzb, kzf := op.faces7(o, n)
	pw, pc, pe, ps, pn, pb, pf := op.points7(sdd, o, n)
	rs, ns := rd[o:][:n], snd[o:][:n]
	if md == nil {
		for i := range ns {
			w := (1+(kxe[i]+kxw[i])+(kyn[i]+kys[i])+(kzf[i]+kzb[i]))*pc[i] -
				(kxe[i]*pe[i] + kxw[i]*pw[i]) -
				(kyn[i]*pn[i] + kys[i]*ps[i]) -
				(kzf[i]*pf[i] + kzb[i]*pb[i])
			v := rs[i] - w
			rs[i] = v
			ns[i] = alpha*pc[i] + beta*v
		}
		return
	}
	ms := md[o:][:n]
	for i := range ns {
		w := (1+(kxe[i]+kxw[i])+(kyn[i]+kys[i])+(kzf[i]+kzb[i]))*pc[i] -
			(kxe[i]*pe[i] + kxw[i]*pw[i]) -
			(kyn[i]*pn[i] + kys[i]*ps[i]) -
			(kzf[i]*pf[i] + kzb[i]*pb[i])
		v := rs[i] - w
		rs[i] = v
		ns[i] = alpha*pc[i] + beta*(ms[i]*v)
	}
}

func (op *Operator) residual7(o, n int, ud, bd, rd []float64) {
	kxw, kxe, kys, kyn, kzb, kzf := op.faces7(o, n)
	uw, uc, ue, us, un, ub, uf := op.points7(ud, o, n)
	bs, rs := bd[o:][:n], rd[o:][:n]
	for i := range rs {
		v := (1+(kxe[i]+kxw[i])+(kyn[i]+kys[i])+(kzf[i]+kzb[i]))*uc[i] -
			(kxe[i]*ue[i] + kxw[i]*uw[i]) -
			(kyn[i]*un[i] + kys[i]*us[i]) -
			(kzf[i]*uf[i] + kzb[i]*ub[i])
		rs[i] = bs[i] - v
	}
}

func (op *Operator) jacobi7(o, n int, ud, nd, bd []float64, sum float64) float64 {
	kxw, kxe, kys, kyn, kzb, kzf := op.faces7(o, n)
	uw, uc, ue, us, un, ub, uf := op.points7(nd, o, n)
	rhs, u := bd[o:][:n], ud[o:][:n]
	for i := range u {
		diag := 1 + (kzf[i] + kzb[i]) + (kyn[i] + kys[i]) + (kxe[i] + kxw[i])
		v := (rhs[i] +
			kzf[i]*uf[i] + kzb[i]*ub[i] +
			kyn[i]*un[i] + kys[i]*us[i] +
			kxe[i]*ue[i] + kxw[i]*uw[i]) / diag
		u[i] = v
		sum += math.Abs(v - uc[i])
	}
	return sum
}

func (op *Operator) diagonal7(o, n int, dd []float64) {
	kxw, kxe, kys, kyn, kzb, kzf := op.faces7(o, n)
	d := dd[o:][:n]
	for i := range d {
		d[i] = 1 + (kxe[i] + kxw[i]) + (kyn[i] + kys[i]) + (kzf[i] + kzb[i])
	}
}
