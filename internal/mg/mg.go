// Package mg implements a geometric multigrid V-cycle for the TeaLeaf
// operator, standing in for the PETSc CG + Hypre BoomerAMG baseline of the
// paper's Fig. 7. On TeaLeaf's regular 5-point grids, BoomerAMG's
// aggressive coarsening degenerates to geometric semicoarsening, so a
// geometric V-cycle reproduces the baseline's defining behaviour: a small,
// mesh-independent iteration count bought with an expensive, deeply
// coarsened hierarchy whose coarse levels are communication-bound at
// scale — exactly the strong-scaling failure mode the paper contrasts
// CPPCG against.
//
// The hierarchy is serial (the paper's baseline data is measured at small
// scale and the strong-scaling model prices the V-cycle's communication
// structure); transfers are cell-centred full-weighting restriction with
// piecewise-constant prolongation (adjoint up to scaling, keeping the
// preconditioner SPD), and the smoother is damped Jacobi.
package mg

import (
	"errors"
	"fmt"
	"math"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/stencil"
)

// Options configures the hierarchy.
type Options struct {
	// MinSize stops coarsening when either dimension would drop below it
	// (default 8).
	MinSize int
	// PreSmooth, PostSmooth are the damped-Jacobi sweep counts (default 2).
	PreSmooth, PostSmooth int
	// Omega is the Jacobi damping factor (default 0.8).
	Omega float64
	// CoarseIters bounds the coarsest-level CG solve (default 200).
	CoarseIters int
}

func (o Options) withDefaults() Options {
	if o.MinSize <= 0 {
		o.MinSize = 8
	}
	if o.PreSmooth <= 0 {
		o.PreSmooth = 2
	}
	if o.PostSmooth <= 0 {
		o.PostSmooth = 2
	}
	if o.Omega <= 0 {
		o.Omega = 0.8
	}
	if o.CoarseIters <= 0 {
		o.CoarseIters = 200
	}
	return o
}

type level struct {
	g    *grid.Grid
	op   *stencil.Operator
	diag *grid.Field
	// scratch fields
	z, r, res, tmp *grid.Field
}

// Hierarchy is a multigrid preconditioner/solver for one fine-level
// operator. It satisfies the precond.Preconditioner interface shape, so it
// plugs straight into solver.Options.Precond.
type Hierarchy struct {
	opts   Options
	pool   *par.Pool
	levels []*level
	// SetupWork counts cell visits spent building the hierarchy; the
	// scaling model uses it for the baseline's setup-cost term.
	SetupWork int64
}

// Build constructs the hierarchy from the fine-level density. Arguments
// mirror stencil.BuildOperator; the fine density must have valid halos.
func Build(pool *par.Pool, density *grid.Field, dt float64, coef stencil.Coefficient, o Options) (*Hierarchy, error) {
	o = o.withDefaults()
	if pool == nil {
		pool = par.Serial
	}
	h := &Hierarchy{opts: o, pool: pool}

	den := density
	g := density.Grid
	for {
		op, err := stencil.BuildOperator(pool, den, dt, coef, grid.AllSides)
		if err != nil {
			return nil, err
		}
		lv := &level{
			g: g, op: op,
			diag: grid.NewField(g),
			z:    grid.NewField(g), r: grid.NewField(g),
			res: grid.NewField(g), tmp: grid.NewField(g),
		}
		op.Diagonal(pool, g.Interior(), lv.diag)
		h.levels = append(h.levels, lv)
		h.SetupWork += int64(g.Cells())

		if g.NX%2 != 0 || g.NY%2 != 0 || g.NX/2 < o.MinSize || g.NY/2 < o.MinSize {
			break
		}
		// Coarsen the density by 2×2 cell averaging and rebuild.
		cg, err := grid.NewGrid2D(g.NX/2, g.NY/2, g.Halo, g.XMin, g.XMax, g.YMin, g.YMax)
		if err != nil {
			return nil, err
		}
		cden := grid.NewField(cg)
		for k := 0; k < cg.NY; k++ {
			for j := 0; j < cg.NX; j++ {
				avg := 0.25 * (den.At(2*j, 2*k) + den.At(2*j+1, 2*k) +
					den.At(2*j, 2*k+1) + den.At(2*j+1, 2*k+1))
				cden.Set(j, k, avg)
			}
		}
		cden.ReflectHalos(cg.Halo)
		den = cden
		g = cg
	}
	if len(h.levels) == 0 {
		return nil, errors.New("mg: no levels built")
	}
	return h, nil
}

// Levels returns the hierarchy depth.
func (h *Hierarchy) Levels() int { return len(h.levels) }

// LevelCells returns the interior cell count of each level, fine to coarse
// (the scaling model prices per-level work and communication from this).
func (h *Hierarchy) LevelCells() []int {
	out := make([]int, len(h.levels))
	for i, lv := range h.levels {
		out[i] = lv.g.Cells()
	}
	return out
}

// Name implements the preconditioner interface.
func (h *Hierarchy) Name() string { return "mg_vcycle" }

// Apply implements the preconditioner interface: z = V-cycle(r). The
// bounds argument must be the fine grid's interior (multigrid transfers
// are whole-grid operations); anything else is a programming error.
func (h *Hierarchy) Apply(pool *par.Pool, b grid.Bounds, r, z *grid.Field) {
	if b != h.levels[0].g.Interior() {
		panic(fmt.Sprintf("mg: Apply bounds %v must be the fine interior %v", b, h.levels[0].g.Interior()))
	}
	h.levels[0].r.CopyFrom(r)
	h.vcycle(0)
	z.CopyFrom(h.levels[0].z)
}

// vcycle solves levels[l].op · z = levels[l].r approximately into
// levels[l].z.
func (h *Hierarchy) vcycle(l int) {
	lv := h.levels[l]
	in := lv.g.Interior()
	fillZero(lv.z, in)

	if l == len(h.levels)-1 {
		h.coarseSolve(lv)
		return
	}
	for s := 0; s < h.opts.PreSmooth; s++ {
		h.smooth(lv)
	}
	// res = r - A z.
	lv.z.ReflectHalos(1)
	lv.op.Residual(h.pool, in, lv.z, lv.r, lv.res)

	// Restrict to the coarse level.
	clv := h.levels[l+1]
	restrictFW(lv.res, clv.r)
	h.vcycle(l + 1)
	// Prolong and correct.
	prolongPC(clv.z, lv.tmp)
	addInto(lv.z, lv.tmp, in)

	for s := 0; s < h.opts.PostSmooth; s++ {
		h.smooth(lv)
	}
}

// smooth performs one damped-Jacobi sweep z ← z + ω D⁻¹ (r − A z).
func (h *Hierarchy) smooth(lv *level) {
	in := lv.g.Interior()
	lv.z.ReflectHalos(1)
	lv.op.Residual(h.pool, in, lv.z, lv.r, lv.res)
	omega := h.opts.Omega
	g := lv.g
	for k := 0; k < g.NY; k++ {
		base := g.Index(0, k, 0)
		for j := 0; j < g.NX; j++ {
			lv.z.Data[base+j] += omega * lv.res.Data[base+j] / lv.diag.Data[base+j]
		}
	}
}

// coarseSolve runs plain CG on the coarsest level (small, so cheap) to a
// fixed tight tolerance.
func (h *Hierarchy) coarseSolve(lv *level) {
	in := lv.g.Interior()
	g := lv.g
	r := lv.res
	r.CopyFrom(lv.r) // z = 0 → residual is r
	p := lv.tmp.Clone()
	p.CopyFrom(r)
	w := grid.NewField(g)
	dot := func(a, b *grid.Field) float64 {
		var s float64
		for k := 0; k < g.NY; k++ {
			base := g.Index(0, k, 0)
			for j := 0; j < g.NX; j++ {
				s += a.Data[base+j] * b.Data[base+j]
			}
		}
		return s
	}
	rr := dot(r, r)
	rr0 := rr
	if rr0 == 0 {
		return
	}
	for it := 0; it < h.opts.CoarseIters; it++ {
		p.ReflectHalos(1)
		lv.op.Apply(h.pool, in, p, w)
		pw := dot(p, w)
		if pw == 0 {
			break
		}
		alpha := rr / pw
		for k := 0; k < g.NY; k++ {
			base := g.Index(0, k, 0)
			for j := 0; j < g.NX; j++ {
				lv.z.Data[base+j] += alpha * p.Data[base+j]
				r.Data[base+j] -= alpha * w.Data[base+j]
			}
		}
		rrNew := dot(r, r)
		if rrNew <= 1e-24*rr0 {
			break
		}
		beta := rrNew / rr
		rr = rrNew
		for k := 0; k < g.NY; k++ {
			base := g.Index(0, k, 0)
			for j := 0; j < g.NX; j++ {
				p.Data[base+j] = r.Data[base+j] + beta*p.Data[base+j]
			}
		}
	}
}

// restrictFW computes the cell-centred full-weighting restriction: each
// coarse cell averages its four fine children.
func restrictFW(fine, coarse *grid.Field) {
	cg := coarse.Grid
	for k := 0; k < cg.NY; k++ {
		for j := 0; j < cg.NX; j++ {
			coarse.Set(j, k, 0.25*(fine.At(2*j, 2*k)+fine.At(2*j+1, 2*k)+
				fine.At(2*j, 2*k+1)+fine.At(2*j+1, 2*k+1)))
		}
	}
}

// prolongPC is piecewise-constant prolongation: each fine child inherits
// its coarse parent's value.
func prolongPC(coarse, fine *grid.Field) {
	cg := coarse.Grid
	for k := 0; k < cg.NY; k++ {
		for j := 0; j < cg.NX; j++ {
			v := coarse.At(j, k)
			fine.Set(2*j, 2*k, v)
			fine.Set(2*j+1, 2*k, v)
			fine.Set(2*j, 2*k+1, v)
			fine.Set(2*j+1, 2*k+1, v)
		}
	}
}

func fillZero(f *grid.Field, b grid.Bounds) {
	f.Zero() // halos too: smoothers reflect from clean state
	_ = b
}

func addInto(dst, src *grid.Field, b grid.Bounds) {
	g := dst.Grid
	for k := b.Y0; k < b.Y1; k++ {
		base := g.Index(0, k, 0)
		for j := b.X0; j < b.X1; j++ {
			dst.Data[base+j] += src.Data[base+j]
		}
	}
}

// SolveMG iterates V-cycles as a stand-alone solver until the relative
// residual meets tol, returning (iterations, final relative residual,
// converged).
func (h *Hierarchy) SolveMG(u, rhs *grid.Field, tol float64, maxIters int) (int, float64, bool) {
	lv := h.levels[0]
	in := lv.g.Interior()
	r := grid.NewField(lv.g)
	u.ReflectHalos(1)
	lv.op.Residual(h.pool, in, u, rhs, r)
	norm0 := math.Sqrt(dotInterior(r))
	if norm0 == 0 {
		return 0, 0, true
	}
	for it := 1; it <= maxIters; it++ {
		lv.r.CopyFrom(r)
		h.vcycle(0)
		addInto(u, lv.z, in)
		u.ReflectHalos(1)
		lv.op.Residual(h.pool, in, u, rhs, r)
		rel := math.Sqrt(dotInterior(r)) / norm0
		if rel <= tol {
			return it, rel, true
		}
	}
	lv.op.Residual(h.pool, in, u, rhs, r)
	return maxIters, math.Sqrt(dotInterior(r)) / norm0, false
}

func dotInterior(f *grid.Field) float64 {
	g := f.Grid
	var s float64
	for k := 0; k < g.NY; k++ {
		base := g.Index(0, k, 0)
		for j := 0; j < g.NX; j++ {
			v := f.Data[base+j]
			s += v * v
		}
	}
	return s
}
