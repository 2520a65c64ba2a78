package solver

import (
	"tealeaf/internal/comm"
	"tealeaf/internal/grid"
	"tealeaf/internal/kernels"
	"tealeaf/internal/par"
)

// This file implements the temporal-blocked deep-halo solve cycles
// behind Options.Temporal. A deep-halo CG iteration cannot be
// chained ACROSS iterations bit-identically — each iteration's α and β
// depend on the previous iteration's global reduction — so the chaining
// happens WITHIN each iteration: the fused engine's three sweeps (and
// the pipelined engine's matvec + step pair) execute band-by-band over
// LLC-sized bands of whole tile rows, with each band's sweeps run
// back-to-back while the band is cache-resident. On grids whose working
// set exceeds the LLC this turns one full-grid pass per sweep into one
// full-grid pass per iteration.
//
// Bit-identity with the unchained deep-halo path holds by construction:
//   - every pointwise kernel (directions, update, step, ring BLAS1)
//     computes each cell from the same inputs regardless of how the
//     bounds are decomposed, and the band hazard discipline below
//     guarantees those inputs are the same values;
//   - every dot product is accumulated per interior tile into a
//     par.ChainAccum by the SAME tile body the unchained sweep uses and
//     folded in ascending global tile order at the end of the chained
//     sweep — exactly ForTilesReduceN's fold, for any band size, band
//     count, worker count or rank count.
//
// Hazard discipline (2D rows / 3D planes, bands ascending):
//   - the fused chain runs D_k (directions), U_k (update), R_k (ring
//     residual update) on band k, then the matvec M_{k-1} on band k-1:
//     the matvec's stencil reads r one cell into bands k-2..k, all of
//     which have taken this iteration's update by then, and its w
//     writes land strictly behind every direction read;
//   - the pipelined chain runs M'_k (the speculative matvec, reading
//     the OLD w one cell into bands k-1..k+1) before S_{k-1} (the step,
//     which overwrites w in band k-1) — a one-band lag in the other
//     direction.
//
// Both lags are valid for any band height >= 1 because bands are whole
// tile rows and every stencil read reaches at most one cell across a
// band boundary.

// chainState carries a temporal-blocked solve's band schedule, the
// per-tile partial tables of its chained reductions, and the in-flight
// state of the current pipelined pass.
type chainState struct {
	bands []par.ChainBand
	accU  *par.ChainAccum // fused update (γ', ‖r‖²) partials
	accM  *par.ChainAccum // matvec dot partials (δ on the fused path; discarded on the pipelined path)
	accS  *par.ChainAccum // pipelined step (γ, δ, ‖r‖²) partials

	// Per-pass matvec state (one pass in flight at a time): the chained
	// deep matvec computes dst = A·(minv⊙src) on bounds mb.
	mb             grid.Bounds
	minv, src, dst *grid.Field
	next           int
	h1             comm.ReduceHandle // posted split-phase coarse round, nil once consumed
}

// newChainState builds a temporal-blocked solve's chain state over the
// bands the plan resolved: nil (the unchained cycle) unless the plan
// chains — Options.Temporal on a deep fused or pipelined cycle over a
// tiled pool (par.ChainBands' requirement for bit-stable folds), and for
// a deflated pipelined solve a projector that posts its coarse round
// split-phase (splitDeflator). The plan reports each fallback; the deck
// layer refuses tl_temporal on untiled pools outright.
func newChainState(e *engine) *chainState {
	if !e.plan.Chained {
		return nil
	}
	cs := &chainState{bands: e.bands}
	// Width 2 everywhere the matvec dot lands: the 3D identity path
	// shares ApplyDot2's two-lane tile body, and a two-wide fold's slot 0
	// is bit-identical to the one-wide fold of the same partials.
	cs.accM = e.sys.NewChainAccum(2)
	if e.plan.Engine == EnginePipelined {
		cs.accS = e.sys.NewChainAccum(3)
	} else {
		cs.accU = e.sys.NewChainAccum(2)
	}
	return cs
}

// matvecBand runs the deep-halo matvec n = A·(minv⊙w) on band k: the
// band's interior tiles through the chained accumulator plus the band's
// clip of every extension ring, whose dot contribution is discarded
// exactly as the unchained applyPreDotDeep discards it — ring cells
// replicate a neighbour's interior and their dot belongs to that rank.
func (cs *chainState) matvecBand(e *engine, k int) {
	sys := e.sys
	bd := cs.bands[k]
	sys.op.ApplyPreDotChain(sys.p, cs.accM, bd.T0, bd.T1, cs.minv, cs.src, cs.dst)
	for _, rb := range sys.Rings(cs.mb) {
		if cb, ok := sys.ChainClip(rb, bd.Lo, bd.Hi); ok {
			sys.op.ApplyPreDot(sys.p, cb, cs.minv, cs.src, cs.dst)
		}
	}
}

// fusedIter executes one temporal-blocked iteration of the fused
// (Chronopoulos–Gear) deep-halo cycle: per band, the direction sweep on
// the band's clip of the extended bounds ab, the interior update with
// chained (γ', ‖r‖²) partials, the ring residual update, then —
// lagging one band — the matvec on mb with chained δ partials. Returns
// the folded scalars; traces exactly what the unchained iteration
// records. On the deflated path the caller re-projects w and discards
// the returned δ, as the unchained cycle does.
func (cs *chainState) fusedIter(e *engine, ab, mb grid.Bounds, minv, r, w, pvec, svec *grid.Field, alpha, beta float64) (gammaNew, rrNew, deltaNew float64) {
	sys := e.sys
	cs.mb, cs.minv, cs.src, cs.dst = mb, minv, r, w // matvec: w = A·(minv⊙r)
	cs.accU.Reset()
	cs.accM.Reset()
	for k, bd := range cs.bands {
		if db, ok := sys.ChainClip(ab, bd.Lo, bd.Hi); ok {
			kernels.FusedCGDirections(sys.p, db, minv, r, w, beta, pvec, svec)
		}
		kernels.FusedCGUpdateChain(sys.p, cs.accU, bd.T0, bd.T1, alpha, pvec, svec, e.u, r, minv)
		for _, rb := range sys.Rings(ab) {
			if cb, ok := sys.ChainClip(rb, bd.Lo, bd.Hi); ok {
				kernels.Axpy(sys.p, cb, -alpha, svec, r)
			}
		}
		if k > 0 {
			cs.matvecBand(e, k-1)
		}
	}
	cs.matvecBand(e, len(cs.bands)-1)
	e.vectorPass(ab)
	e.vectorPass(ab)
	e.tr.AddMatvec(mb.Cells())
	u := cs.accU.Fold()
	gammaNew, rrNew = u[0], u[1]
	deltaNew = cs.accM.Fold()[0]
	return
}

// pipelinedMatvec starts a temporal-blocked pipelined pass, inside the
// scalar round's overlap window: with a split-capable deflator every
// matvec band runs now (the coarse restriction needs the complete n)
// and the projector's coarse round is posted on its own tag — two
// tagged reductions in flight across the chained block; without one,
// only band 0 runs here and the rest chain with the step sweeps after
// the scalar round lands. Either way the full matvec is accounted here,
// where the unchained engine accounts its full sweep — every exit path
// completes the deferred bands (pipelinedDrain).
func (cs *chainState) pipelinedMatvec(e *engine, mb grid.Bounds, minv, w, n *grid.Field, sd splitDeflator) {
	cs.mb, cs.minv, cs.src, cs.dst = mb, minv, w, n // matvec: n = A·(minv⊙w)
	cs.accM.Reset()
	cs.next = 0
	if sd != nil {
		for k := range cs.bands {
			cs.matvecBand(e, k)
		}
		cs.next = len(cs.bands)
		e.tr.AddMatvec(mb.Cells())
		cs.h1 = sd.ProjectWBoundsStart(n)
		return
	}
	cs.matvecBand(e, 0)
	cs.next = 1
	e.tr.AddMatvec(mb.Cells())
}

// pipelinedDrain completes the pass's deferred work before any exit
// from the iteration loop: the matvec bands the step chain never ran
// (the unchained engine always completes its speculative matvec —
// compute parity requires the same here) and the posted coarse round,
// whose result every rank discards symmetrically. That drained round is
// the one extra reduction per solve the temporal-blocked deflated
// pipelined path costs over the unchained cycle. Idempotent.
func (cs *chainState) pipelinedDrain(e *engine) {
	for cs.next < len(cs.bands) {
		cs.matvecBand(e, cs.next)
		cs.next++
	}
	if cs.h1 != nil {
		cs.h1.Finish()
		cs.h1 = nil
	}
}

// pipelinedProject consumes the posted coarse round into the deflation
// projection n = P·A·(minv⊙w) over the pass's matvec bounds.
func (cs *chainState) pipelinedProject(sd splitDeflator) {
	sd.ProjectWBoundsFinish(cs.h1, cs.mb, cs.dst)
	cs.h1 = nil
}

// pipelinedStep executes the pass's step sweep band-by-band, one band
// behind the remaining matvec bands (which read the pre-step w), with
// chained (γ, δ, ‖r‖²) partials and the ring recurrence extensions in
// the unchained engine's op order. Returns the folded scalars with the
// identity-preconditioner γ = ‖r‖² mapping the unchained kernel applies.
func (cs *chainState) pipelinedStep(e *engine, minv, r, w, n *grid.Field, beta, alpha float64, pvec, svec, zvec, x *grid.Field) (gamma, delta, rr float64) {
	sys := e.sys
	cs.accS.Reset()
	step := func(bd par.ChainBand) {
		kernels.PipelinedCGStepChain(sys.p, cs.accS, bd.T0, bd.T1, minv, r, w, n, beta, alpha, pvec, svec, zvec, x)
		for _, rb := range sys.Rings(cs.mb) {
			if cb, ok := sys.ChainClip(rb, bd.Lo, bd.Hi); ok {
				kernels.AxpbyPre(sys.p, cb, beta, pvec, 1, minv, r) // p = u' + β·p
				kernels.Xpay(sys.p, cb, w, beta, svec)              // s = w + β·s
				kernels.Xpay(sys.p, cb, n, beta, zvec)              // z = n + β·z
				kernels.Axpy(sys.p, cb, -alpha, svec, r)            // r −= α·s
				kernels.Axpy(sys.p, cb, -alpha, zvec, w)            // w −= α·z
			}
		}
	}
	for k := range cs.bands {
		if cs.next <= k {
			cs.matvecBand(e, k)
			cs.next = k + 1
		}
		if k > 0 {
			step(cs.bands[k-1])
		}
	}
	step(cs.bands[len(cs.bands)-1])
	out := cs.accS.Fold()
	gamma, delta, rr = out[0], out[1], out[2]
	if minv == nil {
		gamma = rr
	}
	return
}
