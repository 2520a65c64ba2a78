package kernels

import (
	"math"
	"testing"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
)

// The pipelined CG step kernel follows the same fusion contract as the
// fused pair (fused_test.go): it must match the composition of its
// unfused equivalents to 1e-13 across pool sizes and odd-shaped bounds.

func TestPipelinedCGStepMatchesComposed(t *testing.T) {
	g := grid.UnitGrid(19, 13, 1, 2)
	minv := testField(g, 91)
	r0 := testField(g, 92)
	w0 := testField(g, 93)
	nv := testField(g, 94)
	const beta, alpha = 0.43, 0.27
	for _, b := range fusionBounds(g) {
		for name, pool := range fusionPools() {
			for _, m := range []*grid.Field{nil, minv} {
				// Reference, composed: u = m⊙r; p = u + β·p; s = w + β·s;
				// z = n + β·z; x += α·p; r −= α·s; w −= α·z; then
				// u' = m⊙r; γ = r·u'; δ = u'·w; rr = r·r.
				u := r0
				if m != nil {
					u = grid.NewField(g)
					Mul(par.Serial, b, m, r0, u)
				}
				pRef, sRef, zRef := testField(g, 95), testField(g, 96), testField(g, 97)
				Xpay(par.Serial, b, u, beta, pRef)
				Xpay(par.Serial, b, w0, beta, sRef)
				Xpay(par.Serial, b, nv, beta, zRef)
				xRef := testField(g, 98)
				rRef, wRef := r0.Clone(), w0.Clone()
				Axpy(par.Serial, b, alpha, pRef, xRef)
				Axpy(par.Serial, b, -alpha, sRef, rRef)
				Axpy(par.Serial, b, -alpha, zRef, wRef)
				u2 := rRef
				if m != nil {
					u2 = grid.NewField(g)
					Mul(par.Serial, b, m, rRef, u2)
				}
				gammaRef := Dot(par.Serial, b, rRef, u2)
				deltaRef := Dot(par.Serial, b, u2, wRef)
				rrRef := Dot(par.Serial, b, rRef, rRef)

				p, s, z := testField(g, 95), testField(g, 96), testField(g, 97)
				x := testField(g, 98)
				r, w := r0.Clone(), w0.Clone()
				gamma, delta, rr := PipelinedCGStep(pool, b, m, r, w, nv, beta, alpha, p, s, z, x)
				if !close13(gamma, gammaRef) || !close13(delta, deltaRef) || !close13(rr, rrRef) {
					t.Errorf("%s %v minv=%v: (γ,δ,rr) = (%v,%v,%v), want (%v,%v,%v)",
						name, b, m != nil, gamma, delta, rr, gammaRef, deltaRef, rrRef)
				}
				if m == nil && gamma != rr {
					t.Errorf("%s %v: identity γ %v != rr %v", name, b, gamma, rr)
				}
				fieldsClose13(t, name+" p", p, pRef)
				fieldsClose13(t, name+" s", s, sRef)
				fieldsClose13(t, name+" z", z, zRef)
				fieldsClose13(t, name+" x", x, xRef)
				fieldsClose13(t, name+" r", r, rRef)
				fieldsClose13(t, name+" w", w, wRef)
			}
		}
	}
}

func TestPipelinedCGStep3DMatchesComposed(t *testing.T) {
	g3 := grid.UnitGrid(11, 7, 5, 1)
	in := g3.Interior()
	mk := func(seed int64) *grid.Field {
		f := grid.NewField(g3)
		rng := newRng(seed)
		for i := range f.Data {
			f.Data[i] = rng.Float64()*2 - 1
		}
		return f
	}
	r0, w0, nv := mk(110), mk(111), mk(112)
	minv := mk(113)
	for i := range minv.Data {
		minv.Data[i] = 0.5 + math.Abs(minv.Data[i])
	}
	const alpha, beta = 0.33, 0.61
	for name, pool := range fusionPools() {
		for _, m := range []*grid.Field{nil, minv} {
			u := r0
			if m != nil {
				u = grid.NewField(g3)
				for i := range u.Data {
					u.Data[i] = m.Data[i] * r0.Data[i]
				}
			}
			pRef, sRef, zRef := mk(114), mk(115), mk(116)
			Xpay(par.Serial, in, u, beta, pRef)
			Xpay(par.Serial, in, w0, beta, sRef)
			Xpay(par.Serial, in, nv, beta, zRef)
			xRef := mk(117)
			rRef, wRef := r0.Clone(), w0.Clone()
			Axpy(par.Serial, in, alpha, pRef, xRef)
			Axpy(par.Serial, in, -alpha, sRef, rRef)
			Axpy(par.Serial, in, -alpha, zRef, wRef)
			var gammaRef, deltaRef, rrRef float64
			for k := 0; k < g3.NZ; k++ {
				for j := 0; j < g3.NY; j++ {
					for i := 0; i < g3.NX; i++ {
						rv := rRef.Cell(i, j, k)
						uv := rv
						if m != nil {
							uv = m.Cell(i, j, k) * rv
						}
						gammaRef += uv * rv
						deltaRef += uv * wRef.Cell(i, j, k)
						rrRef += rv * rv
					}
				}
			}
			p, s, z := mk(114), mk(115), mk(116)
			x := mk(117)
			r, w := r0.Clone(), w0.Clone()
			gamma, delta, rr := PipelinedCGStep(pool, in, m, r, w, nv, beta, alpha, p, s, z, x)
			if !close13(gamma, gammaRef) || !close13(delta, deltaRef) || !close13(rr, rrRef) {
				t.Errorf("%s minv=%v: (γ,δ,rr) = (%v,%v,%v), want (%v,%v,%v)",
					name, m != nil, gamma, delta, rr, gammaRef, deltaRef, rrRef)
			}
			fields3Close13(t, name+" p", p, pRef)
			fields3Close13(t, name+" s", s, sRef)
			fields3Close13(t, name+" z", z, zRef)
			fields3Close13(t, name+" x", x, xRef)
			fields3Close13(t, name+" r", r, rRef)
			fields3Close13(t, name+" w", w, wRef)
		}
	}
}
