// Package kernels implements the memory-bandwidth-bound vector kernels the
// TeaLeaf solvers are built from: dot products, AXPY-family triads, copies
// and scales, each over an arbitrary Bounds box of a halo-padded field on
// a flat or 3D grid. These are the "two loads and one store per (one or
// two) floating point operations" local operations of §III-A of the paper.
//
// All kernels take a *par.Pool and walk rows x fastest, then y, then z,
// split across the workers along the grid's outermost axis (y when flat,
// z in 3D; see grid.Grid.Box) with a static block schedule. All fields passed to one call must live on the
// same grid (they do, throughout the solvers: every solver vector is
// allocated on the rank-local grid).
//
// The inner loops carry no bounds checks. Every row is cut to exactly the
// row length with the x[o:][:n] idiom, so all rows of one sweep share one
// length value; a loop ranging over one row then indexes the others
// check-free. The per-row slice expressions keep their checks, so an
// out-of-range row still panics. Reductions keep a fixed accumulator
// association: the unrolled ones cut each row into equal-length lane
// slices (x[c:][:m], lane c of the unrolled step) so the compiler can
// discharge every lane index, and fold the lanes pairwise. Results are
// therefore bit-reproducible for a fixed worker count — but differ in the
// last bits from a naive serial sum, which is why tests compare against
// tolerances. TestHotLoopsBoundsCheckFree holds every inner loop here to
// zero compiler-reported bounds checks.
//
// The Fused* kernels combine the multiple BLAS1 passes of one solver
// iteration into single sweeps, the node-level half of §VII's proposal to
// restructure the Krylov loop around one reduction per iteration; the
// matching stencil-fused sweeps live in package stencil.
package kernels

import (
	"math"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
)

// data returns f's values, nil for a nil field (the identity
// preconditioner).
func data(f *grid.Field) []float64 {
	if f == nil {
		return nil
	}
	return f.Data
}

// dot4 adds Σ x·y to the four lane sums of a 4-way unrolled dot product:
// element j of the unrolled part (j < len(x)−3, in steps of four) lands in
// lane j mod 4, the remaining tail in lane 0. y must be at least as long
// as x. Package stencil keeps its own copy for its fused-dot sweeps: the
// kernels tests import stencil, so neither package can import the other.
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

// Dot returns Σ x·y over the cells of b.
func Dot(p *par.Pool, b grid.Bounds, x, y *grid.Field) float64 {
	if b.Empty() {
		return 0
	}
	g := x.Grid
	xd, yd := x.Data, y.Data
	return p.ForTilesReduceN(1, g.Box(b), func(t par.Tile, acc []float64) {
		n := t.X1 - t.X0
		var s0, s1, s2, s3 float64
		for kz := t.Z0; kz < t.Z1; kz++ {
			for ky := t.Y0; ky < t.Y1; ky++ {
				o := g.Index(t.X0, ky, kz)
				s0, s1, s2, s3 = dot4(s0, s1, s2, s3, xd[o:][:n], yd[o:][:n])
			}
		}
		acc[0] += (s0 + s1) + (s2 + s3)
	})[0]
}

// Norm2Sq returns Σ x² over the cells of b.
func Norm2Sq(p *par.Pool, b grid.Bounds, x *grid.Field) float64 {
	return Dot(p, b, x, x)
}

// Norm2 returns the Euclidean norm of x over b.
func Norm2(p *par.Pool, b grid.Bounds, x *grid.Field) float64 {
	return math.Sqrt(Norm2Sq(p, b, x))
}

// Axpy computes y += alpha*x over b.
func Axpy(p *par.Pool, b grid.Bounds, alpha float64, x, y *grid.Field) {
	if b.Empty() {
		return
	}
	g := x.Grid
	xd, yd := x.Data, y.Data
	g.ForRows(p, b, func(o, n int) {
		xs, ys := xd[o:][:n], yd[o:][:n]
		for j := range ys {
			ys[j] += alpha * xs[j]
		}
	})
}

// Xpay computes y = x + beta*y over b (the CG direction update
// p = z + βp).
func Xpay(p *par.Pool, b grid.Bounds, x *grid.Field, beta float64, y *grid.Field) {
	if b.Empty() {
		return
	}
	g := x.Grid
	xd, yd := x.Data, y.Data
	g.ForRows(p, b, func(o, n int) {
		xs, ys := xd[o:][:n], yd[o:][:n]
		for j := range ys {
			ys[j] = xs[j] + beta*ys[j]
		}
	})
}

// Axpby computes z = alpha*x + beta*y over b.
func Axpby(p *par.Pool, b grid.Bounds, alpha float64, x *grid.Field, beta float64, y, z *grid.Field) {
	if b.Empty() {
		return
	}
	g := x.Grid
	xd, yd, zd := x.Data, y.Data, z.Data
	g.ForRows(p, b, func(o, n int) {
		xs, ys, zs := xd[o:][:n], yd[o:][:n], zd[o:][:n]
		for j := range zs {
			zs[j] = alpha*xs[j] + beta*ys[j]
		}
	})
}

// Copy copies src into dst over b.
func Copy(p *par.Pool, b grid.Bounds, dst, src *grid.Field) {
	if b.Empty() {
		return
	}
	g := src.Grid
	sd, dd := src.Data, dst.Data
	g.ForRows(p, b, func(o, n int) {
		copy(dd[o:][:n], sd[o:][:n])
	})
}

// Scale computes x *= alpha over b.
func Scale(p *par.Pool, b grid.Bounds, alpha float64, x *grid.Field) {
	if b.Empty() {
		return
	}
	g := x.Grid
	xd := x.Data
	g.ForRows(p, b, func(o, n int) {
		xs := xd[o:][:n]
		for j := range xs {
			xs[j] *= alpha
		}
	})
}

// ScaleTo computes dst = alpha*src over b.
func ScaleTo(p *par.Pool, b grid.Bounds, alpha float64, src, dst *grid.Field) {
	if b.Empty() {
		return
	}
	g := src.Grid
	sd, dd := src.Data, dst.Data
	g.ForRows(p, b, func(o, n int) {
		ss, ds := sd[o:][:n], dd[o:][:n]
		for j := range ds {
			ds[j] = alpha * ss[j]
		}
	})
}

// Fill sets x = v over b.
func Fill(p *par.Pool, b grid.Bounds, v float64, x *grid.Field) {
	if b.Empty() {
		return
	}
	g := x.Grid
	xd := x.Data
	g.ForRows(p, b, func(o, n int) {
		xs := xd[o:][:n]
		for j := range xs {
			xs[j] = v
		}
	})
}

// Sub computes z = x - y over b.
func Sub(p *par.Pool, b grid.Bounds, x, y, z *grid.Field) {
	if b.Empty() {
		return
	}
	g := x.Grid
	xd, yd, zd := x.Data, y.Data, z.Data
	g.ForRows(p, b, func(o, n int) {
		xs, ys, zs := xd[o:][:n], yd[o:][:n], zd[o:][:n]
		for j := range zs {
			zs[j] = xs[j] - ys[j]
		}
	})
}

// Mul computes z = x ⊙ y (elementwise) over b; used to apply the diagonal
// (point-Jacobi) preconditioner z = M⁻¹ r when M⁻¹ is stored as a field.
func Mul(p *par.Pool, b grid.Bounds, x, y, z *grid.Field) {
	if b.Empty() {
		return
	}
	g := x.Grid
	xd, yd, zd := x.Data, y.Data, z.Data
	g.ForRows(p, b, func(o, n int) {
		xs, ys, zs := xd[o:][:n], yd[o:][:n], zd[o:][:n]
		for j := range zs {
			zs[j] = xs[j] * ys[j]
		}
	})
}

// AxpyDot fuses y += alpha*x with the dot product r·r in a single pass;
// the fused-reduction variant of the CG residual update. Returns Σ y·y
// over b after the update (y is typically the residual).
func AxpyDot(p *par.Pool, b grid.Bounds, alpha float64, x, y *grid.Field) float64 {
	if b.Empty() {
		return 0
	}
	g := x.Grid
	xd, yd := x.Data, y.Data
	return p.ForTilesReduceN(1, g.Box(b), func(t par.Tile, acc []float64) {
		n := t.X1 - t.X0
		var s0, s1 float64
		for kz := t.Z0; kz < t.Z1; kz++ {
			for ky := t.Y0; ky < t.Y1; ky++ {
				o := g.Index(t.X0, ky, kz)
				xs := xd[o:][:n]
				ys := yd[o:][:n]
				if m := len(ys) - 1; m > 0 {
					x0, x1 := xs[:m], xs[1:][:m]
					y0, y1 := ys[:m], ys[1:][:m]
					for j := 0; j < m; j += 2 {
						v0 := y0[j] + alpha*x0[j]
						y0[j] = v0
						s0 += v0 * v0
						v1 := y1[j] + alpha*x1[j]
						y1[j] = v1
						s1 += v1 * v1
					}
				}
				yt := ys[n&^1:]
				xt := xs[n&^1:][:len(yt)]
				for i := range yt {
					v := yt[i] + alpha*xt[i]
					yt[i] = v
					s0 += v * v
				}
			}
		}
		acc[0] += s0 + s1
	})[0]
}

// Dot2 computes the two dot products x·y and y·z in one pass (the paper's
// §VII proposes restructuring the Krylov solver so multiple dot products
// share a single reduction step).
func Dot2(p *par.Pool, b grid.Bounds, x, y, z *grid.Field) (xy, yz float64) {
	if b.Empty() {
		return 0, 0
	}
	g := x.Grid
	xd, yd, zd := x.Data, y.Data, z.Data
	acc := p.ForTilesReduceN(2, g.Box(b), func(t par.Tile, acc []float64) {
		n := t.X1 - t.X0
		var a0, a1, c0, c1 float64
		for kz := t.Z0; kz < t.Z1; kz++ {
			for ky := t.Y0; ky < t.Y1; ky++ {
				o := g.Index(t.X0, ky, kz)
				xs := xd[o:][:n]
				ys := yd[o:][:n]
				zs := zd[o:][:n]
				if m := len(ys) - 1; m > 0 {
					x0, x1 := xs[:m], xs[1:][:m]
					y0, y1 := ys[:m], ys[1:][:m]
					z0, z1 := zs[:m], zs[1:][:m]
					for j := 0; j < m; j += 2 {
						a0 += x0[j] * y0[j]
						c0 += y0[j] * z0[j]
						a1 += x1[j] * y1[j]
						c1 += y1[j] * z1[j]
					}
				}
				yt := ys[n&^1:]
				xt, zt := xs[n&^1:][:len(yt)], zs[n&^1:][:len(yt)]
				for i := range yt {
					a0 += xt[i] * yt[i]
					c0 += yt[i] * zt[i]
				}
			}
		}
		acc[0] += a0 + a1
		acc[1] += c0 + c1
	})
	return acc[0], acc[1]
}

// PrecondDot fuses the diagonal preconditioner application z = minv ⊙ r
// with the dot product r·z in one sweep (the PCG ρ = (r, M⁻¹r) setup pass
// without a separate preconditioner sweep). A nil minv selects the
// identity: z is filled with r (unless z aliases r) and r·r is returned.
func PrecondDot(p *par.Pool, b grid.Bounds, minv, r, z *grid.Field) float64 {
	if b.Empty() {
		return 0
	}
	if minv == nil {
		if z != r {
			Copy(p, b, z, r)
		}
		return Dot(p, b, r, r)
	}
	g := r.Grid
	md, rd, zd := minv.Data, r.Data, z.Data
	return p.ForTilesReduceN(1, g.Box(b), func(t par.Tile, acc []float64) {
		n := t.X1 - t.X0
		var s0, s1 float64
		for kz := t.Z0; kz < t.Z1; kz++ {
			for ky := t.Y0; ky < t.Y1; ky++ {
				o := g.Index(t.X0, ky, kz)
				ms := md[o:][:n]
				rs := rd[o:][:n]
				zs := zd[o:][:n]
				if m := len(zs) - 1; m > 0 {
					m0, m1 := ms[:m], ms[1:][:m]
					r0, r1 := rs[:m], rs[1:][:m]
					z0, z1 := zs[:m], zs[1:][:m]
					for j := 0; j < m; j += 2 {
						v0 := m0[j] * r0[j]
						z0[j] = v0
						s0 += r0[j] * v0
						v1 := m1[j] * r1[j]
						z1[j] = v1
						s1 += r1[j] * v1
					}
				}
				zt := zs[n&^1:]
				mt, rt := ms[n&^1:][:len(zt)], rs[n&^1:][:len(zt)]
				for i := range zt {
					v := mt[i] * rt[i]
					zt[i] = v
					s0 += rt[i] * v
				}
			}
		}
		acc[0] += s0 + s1
	})[0]
}

// AxpyAxpy fuses two independent AXPYs into one sweep:
// y1 += a1*x1 and y2 += a2*x2. It is the fused solution/residual update
// u += α·p, r −= α·w shared by the Chebyshev and PPCG outer loops.
func AxpyAxpy(p *par.Pool, b grid.Bounds, a1 float64, x1, y1 *grid.Field, a2 float64, x2, y2 *grid.Field) {
	if b.Empty() {
		return
	}
	g := x1.Grid
	x1d, y1d, x2d, y2d := x1.Data, y1.Data, x2.Data, y2.Data
	g.ForRows(p, b, func(o, n int) {
		x1s, y1s := x1d[o:][:n], y1d[o:][:n]
		x2s, y2s := x2d[o:][:n], y2d[o:][:n]
		for j := range y1s {
			y1s[j] += a1 * x1s[j]
			y2s[j] += a2 * x2s[j]
		}
	})
}

// AxpbyPre fuses the diagonal preconditioner into the Chebyshev direction
// update: y = a*y + beta*(minv ⊙ r) in one sweep (nil minv → identity).
// This replaces the two-pass z = M⁻¹r; p = α·p + β·z sequence of the
// Chebyshev main loop.
func AxpbyPre(p *par.Pool, b grid.Bounds, a float64, y *grid.Field, beta float64, minv, r *grid.Field) {
	if b.Empty() {
		return
	}
	g := y.Grid
	yd, rd := y.Data, r.Data
	md := data(minv)
	g.ForRows(p, b, func(o, n int) {
		ys, rs := yd[o:][:n], rd[o:][:n]
		if md == nil {
			for j := range ys {
				ys[j] = a*ys[j] + beta*rs[j]
			}
			return
		}
		ms := md[o:][:n]
		for j := range ys {
			ys[j] = a*ys[j] + beta*(ms[j]*rs[j])
		}
	})
}

// PPCGInnerInit is the fused prologue of the PPCG inner Chebyshev solve:
// it starts the inner residual, the direction and the accumulated
// correction from the outer residual r,
//
//	rtemp = r;  sd = 0·sd + beta·(minv ⊙ r);  z = sd
//
// in one sweep over b (beta = 1/θ; nil minv selects the identity). The
// 0·sd term keeps the bits, the sign of a zero included, of the
// three-pass copy / AxpbyPre / copy sequence it replaces. Only b is
// written: the inner loop's first exchange refreshes the rtemp and sd
// halos it reads.
func PPCGInnerInit(p *par.Pool, b grid.Bounds, beta float64, minv, r, rtemp, sd, z *grid.Field) {
	if b.Empty() {
		return
	}
	g := r.Grid
	rd, td, sdd, zd := r.Data, rtemp.Data, sd.Data, z.Data
	md := data(minv)
	g.ForRows(p, b, func(o, n int) {
		rs, ts, ss, zs := rd[o:][:n], td[o:][:n], sdd[o:][:n], zd[o:][:n]
		if md == nil {
			for j := range ss {
				v := rs[j]
				ts[j] = v
				s := 0*ss[j] + beta*v
				ss[j] = s
				zs[j] = s
			}
			return
		}
		ms := md[o:][:n]
		for j := range ss {
			v := rs[j]
			ts[j] = v
			s := 0*ss[j] + beta*(ms[j]*v)
			ss[j] = s
			zs[j] = s
		}
	})
}

// FusedCGDirections is pass one of the single-reduction
// (Chronopoulos–Gear) CG iteration: both direction recurrences in one
// sweep,
//
//	p = (minv ⊙ r) + β·p    (= u + β·p, with the preconditioner folded)
//	s = w + β·s             (maintains s = A·p without a second matvec)
//
// with nil minv selecting the identity (u = r).
func FusedCGDirections(pl *par.Pool, b grid.Bounds, minv, r, w *grid.Field, beta float64, p, s *grid.Field) {
	if b.Empty() {
		return
	}
	g := r.Grid
	rd, wd, pd, sd := r.Data, w.Data, p.Data, s.Data
	md := data(minv)
	// Each row runs as two narrow bursts (p-recurrence, then
	// s-recurrence): a 16 KB row stays cache-resident between bursts, and
	// two-stream bursts sustain measurably higher memory bandwidth than
	// one four-stream loop on wide grids.
	pl.ForTiles(g.Box(b), func(t par.Tile) {
		n := t.X1 - t.X0
		for kz := t.Z0; kz < t.Z1; kz++ {
			for ky := t.Y0; ky < t.Y1; ky++ {
				o := g.Index(t.X0, ky, kz)
				rs := rd[o:][:n]
				ps := pd[o:][:n]
				if md == nil {
					for j := range ps {
						ps[j] = rs[j] + beta*ps[j]
					}
				} else {
					ms := md[o:][:n]
					for j := range ps {
						ps[j] = ms[j]*rs[j] + beta*ps[j]
					}
				}
				ws := wd[o:][:n]
				ss := sd[o:][:n]
				for j := range ss {
					ss[j] = ws[j] + beta*ss[j]
				}
			}
		}
	})
}

// FusedCGUpdate is pass two of the single-reduction CG iteration: the
// solution and residual updates fused with both dot products the next
// step scalar needs,
//
//	x += α·p;  r −= α·s;  γ = Σ r·(minv ⊙ r);  rr = Σ r·r
//
// in one sweep. nil minv selects the identity, for which γ == rr.
func FusedCGUpdate(pl *par.Pool, b grid.Bounds, alpha float64, p, s, x, r, minv *grid.Field) (gamma, rr float64) {
	if b.Empty() {
		return 0, 0
	}
	g := r.Grid
	pd, sd, xd, rd := p.Data, s.Data, x.Data, r.Data
	md := data(minv)
	// Row-fissioned like FusedCGDirections: the x-update burst, then the
	// r-update burst carrying both dot products (the freshly written r row
	// is still in cache for the γ accumulation).
	acc := pl.ForTilesReduceN(2, g.Box(b), fusedCGUpdateBody(g, alpha, pd, sd, xd, rd, md))
	return acc[0], acc[1]
}

// fusedCGUpdateBody is FusedCGUpdate's tile body: the (γ, rr) partials
// of one tile.
func fusedCGUpdateBody(g *grid.Grid, alpha float64, pd, sd, xd, rd, md []float64) func(t par.Tile, acc []float64) {
	return func(t par.Tile, acc []float64) {
		n := t.X1 - t.X0
		var g0, g1, rr0, rr1 float64
		for kz := t.Z0; kz < t.Z1; kz++ {
			for ky := t.Y0; ky < t.Y1; ky++ {
				o := g.Index(t.X0, ky, kz)
				ps := pd[o:][:n]
				xs := xd[o:][:n]
				for j := range xs {
					xs[j] += alpha * ps[j]
				}
				ss := sd[o:][:n]
				rs := rd[o:][:n]
				if md == nil {
					if m := len(rs) - 1; m > 0 {
						s0, s1 := ss[:m], ss[1:][:m]
						r0, r1 := rs[:m], rs[1:][:m]
						for j := 0; j < m; j += 2 {
							v0 := r0[j] - alpha*s0[j]
							r0[j] = v0
							rr0 += v0 * v0
							v1 := r1[j] - alpha*s1[j]
							r1[j] = v1
							rr1 += v1 * v1
						}
					}
					rt := rs[n&^1:]
					st := ss[n&^1:][:len(rt)]
					for i := range rt {
						v := rt[i] - alpha*st[i]
						rt[i] = v
						rr0 += v * v
					}
					continue
				}
				ms := md[o:][:n]
				if m := len(rs) - 1; m > 0 {
					s0, s1 := ss[:m], ss[1:][:m]
					r0, r1 := rs[:m], rs[1:][:m]
					m0, m1 := ms[:m], ms[1:][:m]
					for j := 0; j < m; j += 2 {
						v0 := r0[j] - alpha*s0[j]
						r0[j] = v0
						g0 += m0[j] * v0 * v0
						rr0 += v0 * v0
						v1 := r1[j] - alpha*s1[j]
						r1[j] = v1
						g1 += m1[j] * v1 * v1
						rr1 += v1 * v1
					}
				}
				rt := rs[n&^1:]
				st, mt := ss[n&^1:][:len(rt)], ms[n&^1:][:len(rt)]
				for i := range rt {
					v := rt[i] - alpha*st[i]
					rt[i] = v
					g0 += mt[i] * v * v
					rr0 += v * v
				}
			}
		}
		if md == nil {
			acc[0] += rr0 + rr1
			acc[1] += rr0 + rr1
		} else {
			acc[0] += g0 + g1
			acc[1] += rr0 + rr1
		}
	}
}

// PipelinedCGStep is the whole vector phase of a pipelined
// (Ghysels–Vanroose) CG iteration in ONE sweep: per cache-resident row
// it advances the three direction recurrences and immediately applies
// the three updates they feed, folding in the dot products whose
// reduction the next pass overlaps,
//
//	p = (minv ⊙ r) + β·p;  x += α·p
//	s = w + β·s;           r −= α·s;  rr = Σ r·r
//	z = n + β·z;           w −= α·z;  γ = Σ r·(minv ⊙ r);  δ = Σ (minv ⊙ r)·w
//
// with the dots taken on the freshly updated r and w. s tracks A·M⁻¹·p
// and z tracks A·M⁻¹·s, so w advances by recurrence instead of a second
// matvec. nil minv selects the identity, for which γ == rr. Fusing the
// direction and update passes is what pays for pipelining's extra
// vectors: the six recurrences visit eight fields, and one pass loads
// each row from DRAM once where the textbook two-pass form streams the
// whole working set twice — the difference between the pipelined engine
// costing ~30% more traffic than the fused engine and running at
// near-parity, so the overlapped reduction round is pure win.
func PipelinedCGStep(pl *par.Pool, b grid.Bounds, minv, r, w, nv *grid.Field, beta, alpha float64, p, s, z, x *grid.Field) (gamma, delta, rr float64) {
	if b.Empty() {
		return 0, 0, 0
	}
	g := r.Grid
	rd, wd, nd, pd, sd, zd, xd := r.Data, w.Data, nv.Data, p.Data, s.Data, z.Data, x.Data
	md := data(minv)
	acc := pl.ForTilesReduceN(3, g.Box(b), pipelinedCGStepBody(g, beta, alpha, md, rd, wd, nd, pd, sd, zd, xd))
	if md == nil {
		return acc[2], acc[1], acc[2]
	}
	return acc[0], acc[1], acc[2]
}

// pipelinedCGStepBody is PipelinedCGStep's tile body: the (γ, δ, rr)
// partials of one tile.
func pipelinedCGStepBody(g *grid.Grid, beta, alpha float64, md, rd, wd, nd, pd, sd, zd, xd []float64) func(t par.Tile, acc []float64) {
	return func(t par.Tile, acc []float64) {
		n := t.X1 - t.X0
		var ga, de, rra float64
		for kz := t.Z0; kz < t.Z1; kz++ {
			for ky := t.Y0; ky < t.Y1; ky++ {
				o := g.Index(t.X0, ky, kz)
				rs := rd[o:][:n]
				ps := pd[o:][:n]
				xs := xd[o:][:n]
				// Burst 1: the p recurrence (old r) and the x update it feeds.
				if md == nil {
					for j := range ps {
						p0 := rs[j] + beta*ps[j]
						ps[j] = p0
						xs[j] += alpha * p0
					}
				} else {
					ms := md[o:][:n]
					for j := range ps {
						p0 := ms[j]*rs[j] + beta*ps[j]
						ps[j] = p0
						xs[j] += alpha * p0
					}
				}
				// Burst 2: the s recurrence (old w), the r update, and rr.
				ws := wd[o:][:n]
				ss := sd[o:][:n]
				var rr0, rr1 float64
				if m := len(rs) - 1; m > 0 {
					w0, w1 := ws[:m], ws[1:][:m]
					s0, s1 := ss[:m], ss[1:][:m]
					r0, r1 := rs[:m], rs[1:][:m]
					for j := 0; j < m; j += 2 {
						sv0 := w0[j] + beta*s0[j]
						s0[j] = sv0
						v0 := r0[j] - alpha*sv0
						r0[j] = v0
						rr0 += v0 * v0
						sv1 := w1[j] + beta*s1[j]
						s1[j] = sv1
						v1 := r1[j] - alpha*sv1
						r1[j] = v1
						rr1 += v1 * v1
					}
				}
				rt := rs[n&^1:]
				wt, st := ws[n&^1:][:len(rt)], ss[n&^1:][:len(rt)]
				for i := range rt {
					sv := wt[i] + beta*st[i]
					st[i] = sv
					v := rt[i] - alpha*sv
					rt[i] = v
					rr0 += v * v
				}
				rra += rr0 + rr1
				// Burst 3: the z recurrence, the w update, and γ, δ against the
				// new r still in cache.
				ns := nd[o:][:n]
				zs := zd[o:][:n]
				if md == nil {
					var d0, d1 float64
					if m := len(rs) - 1; m > 0 {
						n0, n1 := ns[:m], ns[1:][:m]
						z0, z1 := zs[:m], zs[1:][:m]
						w0, w1 := ws[:m], ws[1:][:m]
						r0, r1 := rs[:m], rs[1:][:m]
						for j := 0; j < m; j += 2 {
							zv0 := n0[j] + beta*z0[j]
							z0[j] = zv0
							v0 := w0[j] - alpha*zv0
							w0[j] = v0
							d0 += r0[j] * v0
							zv1 := n1[j] + beta*z1[j]
							z1[j] = zv1
							v1 := w1[j] - alpha*zv1
							w1[j] = v1
							d1 += r1[j] * v1
						}
					}
					rt = rs[n&^1:]
					nt, zt := ns[n&^1:][:len(rt)], zs[n&^1:][:len(rt)]
					wt = ws[n&^1:][:len(rt)]
					for i := range rt {
						zv := nt[i] + beta*zt[i]
						zt[i] = zv
						v := wt[i] - alpha*zv
						wt[i] = v
						d0 += rt[i] * v
					}
					de += d0 + d1
					continue
				}
				ms := md[o:][:n]
				var g0, g1, d0, d1 float64
				if m := len(rs) - 1; m > 0 {
					n0, n1 := ns[:m], ns[1:][:m]
					z0, z1 := zs[:m], zs[1:][:m]
					w0, w1 := ws[:m], ws[1:][:m]
					r0, r1 := rs[:m], rs[1:][:m]
					m0, m1 := ms[:m], ms[1:][:m]
					for j := 0; j < m; j += 2 {
						zv0 := n0[j] + beta*z0[j]
						z0[j] = zv0
						v0 := w0[j] - alpha*zv0
						w0[j] = v0
						u0 := m0[j] * r0[j]
						g0 += u0 * r0[j]
						d0 += u0 * v0
						zv1 := n1[j] + beta*z1[j]
						z1[j] = zv1
						v1 := w1[j] - alpha*zv1
						w1[j] = v1
						u1 := m1[j] * r1[j]
						g1 += u1 * r1[j]
						d1 += u1 * v1
					}
				}
				rt = rs[n&^1:]
				nt, zt := ns[n&^1:][:len(rt)], zs[n&^1:][:len(rt)]
				wt, mt := ws[n&^1:][:len(rt)], ms[n&^1:][:len(rt)]
				for i := range rt {
					zv := nt[i] + beta*zt[i]
					zt[i] = zv
					v := wt[i] - alpha*zv
					wt[i] = v
					u := mt[i] * rt[i]
					g0 += u * rt[i]
					d0 += u * v
				}
				ga += g0 + g1
				de += d0 + d1
			}
		}
		acc[0] += ga
		acc[1] += de
		acc[2] += rra
	}
}
