// Package precond implements TeaLeaf's matrix-free preconditioners. All of
// them are communication-free (§IV-C1: applied "without any communication
// between neighboring processes"), which is what makes them usable inside
// the communication-avoiding CPPCG inner loop:
//
//   - None: z = r.
//   - Jacobi: z = D⁻¹r, the point-diagonal scaling.
//   - BlockJacobi: the mesh is split into strips of 4 cells along its
//     outermost axis (y on a flat grid, z in 3D); each strip's 4×4 block
//     of A is tridiagonal (the coupling within the strip) and is solved
//     with the Thomas algorithm. Strips at mesh or rank boundaries
//     truncate to 3, 2 or 1 cells. Typically reduces κ(A) by ≈40% on
//     TeaLeaf problems.
package precond

import (
	"fmt"
	"strings"

	"tealeaf/internal/grid"
	"tealeaf/internal/kernels"
	"tealeaf/internal/par"
	"tealeaf/internal/stencil"
	"tealeaf/internal/tridiag"
)

// Preconditioner applies z = M⁻¹·r over a bounds rectangle. Applications
// must be local: no communication, no reads beyond the padded region.
type Preconditioner interface {
	// Apply computes z = M⁻¹ r over b. r and z must not alias unless the
	// implementation documents it as safe (all implementations here are
	// safe with r == z except BlockJacobi, which is also safe because it
	// buffers each strip).
	Apply(pool *par.Pool, b grid.Bounds, r, z *grid.Field)
	// Name returns the TeaLeaf input-deck name of the preconditioner.
	Name() string
}

// None is the identity preconditioner.
type None struct{}

// NewNone returns the identity preconditioner.
func NewNone() None { return None{} }

// Apply implements Preconditioner: z = r.
func (None) Apply(pool *par.Pool, b grid.Bounds, r, z *grid.Field) {
	if r != z {
		kernels.Copy(pool, b, z, r)
	}
}

// Name implements Preconditioner.
func (None) Name() string { return "none" }

// Jacobi is the point-diagonal preconditioner z = D⁻¹r.
type Jacobi struct {
	invDiag *grid.Field
}

// NewJacobi precomputes 1/diag(A) over the full addressable region (minus
// the outermost layer, where the stencil cannot be evaluated), so the
// preconditioner remains valid on matrix-powers extended bounds.
func NewJacobi(pool *par.Pool, op *stencil.Operator) *Jacobi {
	d := diagonal(pool, op)
	for i, v := range d.Data {
		if v != 0 {
			d.Data[i] = 1 / v
		}
	}
	return &Jacobi{invDiag: d}
}

// diagonal is diag(A) over the padded region minus its outermost layer
// (zero beyond it).
func diagonal(pool *par.Pool, op *stencil.Operator) *grid.Field {
	g := op.Grid
	d := grid.NewField(g)
	h, zh := g.Halo, g.ZHalo()
	inner := grid.Bounds{X0: -h + 1, X1: g.NX + h - 1, Y0: -h + 1, Y1: g.NY + h - 1, Z0: -zh + 1, Z1: g.NZ + zh - 1}
	if g.Flat() {
		inner.Z0, inner.Z1 = 0, 1
	}
	op.Diagonal(pool, inner, d)
	return d
}

// Apply implements Preconditioner.
func (m *Jacobi) Apply(pool *par.Pool, b grid.Bounds, r, z *grid.Field) {
	kernels.Mul(pool, b, r, m.invDiag, z)
}

// Name implements Preconditioner.
func (m *Jacobi) Name() string { return "jac_diag" }

// InvDiag returns the precomputed 1/diag(A) field, valid over the padded
// region minus its outermost layer. It implements DiagonalFoldable: the
// fused solver loops fold this field directly into their sweeps instead
// of calling Apply.
func (m *Jacobi) InvDiag() *grid.Field { return m.invDiag }

// DiagonalFoldable is implemented by preconditioners that are a pure
// diagonal scaling z = d ⊙ r. The fused single-reduction solver paths
// fold such preconditioners into their stencil and update sweeps for
// free, instead of spending a separate grid pass on Apply. None is
// foldable with a nil field (identity).
type DiagonalFoldable interface {
	InvDiag() *grid.Field
}

// FoldableDiag returns (diagonal-field, true) if m can be folded into
// fused sweeps: nil for the identity, the inverse diagonal for Jacobi.
// Block preconditioners are not foldable.
func FoldableDiag(m Preconditioner) (*grid.Field, bool) {
	if _, isNone := m.(None); isNone {
		return nil, true
	}
	if f, ok := m.(DiagonalFoldable); ok {
		return f.InvDiag(), true
	}
	return nil, false
}

// DefaultBlockSize is TeaLeaf's JAC_BLOCK_SIZE: strips of four cells.
const DefaultBlockSize = 4

// BlockJacobi solves an independent tridiagonal system per strip of
// blockSize cells along the grid's outermost axis: y-strips on a flat
// grid (coupled through Ky), z-lines in 3D (coupled through Kz).
type BlockJacobi struct {
	op        *stencil.Operator
	diag      *grid.Field // full diagonal of A, precomputed
	blockSize int
}

// NewBlockJacobi builds the strip preconditioner. blockSize <= 0 selects
// the TeaLeaf default of 4.
func NewBlockJacobi(pool *par.Pool, op *stencil.Operator, blockSize int) *BlockJacobi {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	return &BlockJacobi{op: op, diag: diagonal(pool, op), blockSize: blockSize}
}

// Apply implements Preconditioner: every line of b along the outermost
// axis is cut into strips of blockSize anchored at b's low edge
// (truncated at its high edge), and each strip's tridiagonal block
//
//	[ diag(c)     −K(c+1)                ]
//	[ −K(c+1)     diag(c+1)   −K(c+2)    ]  ...
//
// with K the coupling along the axis is solved by the Thomas algorithm.
// Strips never couple across b's edge, which is what makes the
// preconditioner communication-free. Safe with r == z: each strip is
// buffered before the solution is written back.
func (m *BlockJacobi) Apply(pool *par.Pool, b grid.Bounds, r, z *grid.Field) {
	if b.Empty() {
		return
	}
	g := m.op.Grid
	// The lines run along y (stride one row) on a flat grid and along z
	// (stride one plane) in 3D; the workers split the cross-section.
	kl, ls := m.op.Ky, g.Stride()
	l0, l1 := b.Y0, b.Y1
	c0, c1 := b.X0, b.X1 // flat: one line per column
	if !g.Flat() {
		kl, ls = m.op.Kz, g.PlaneStride()
		l0, l1 = b.Z0, b.Z1
		c0, c1 = b.Y0, b.Y1 // 3D: one row of lines per y
	}
	bs := m.blockSize
	kd, dd, rd, zd := kl.Data, m.diag.Data, r.Data, z.Data
	pool.For(c0, c1, func(lo, hi int) {
		sub := make([]float64, bs)
		dia := make([]float64, bs)
		sup := make([]float64, bs)
		rhs := make([]float64, bs)
		sol := make([]float64, bs)
		wrk := make([]float64, bs)
		for c := lo; c < hi; c++ {
			i0, i1, j := c, c+1, 0
			if !g.Flat() {
				i0, i1, j = b.X0, b.X1, c
			}
			for i := i0; i < i1; i++ {
				for s0 := l0; s0 < l1; s0 += bs {
					n := min(s0+bs, l1) - s0
					o := g.Index(i, j, s0) // start of the strip
					if g.Flat() {
						o = g.Index(i, s0, 0)
					}
					for t := 0; t < n; t++ {
						at := o + t*ls
						dia[t] = dd[at]
						sub[t], sup[t] = 0, 0
						if t > 0 {
							sub[t] = -kd[at]
						}
						if t < n-1 {
							sup[t] = -kd[at+ls]
						}
						rhs[t] = rd[at]
					}
					// The blocks are strictly diagonally dominant, so Thomas
					// cannot fail on well-formed operators; a failure would
					// indicate a corrupted coefficient field, which Build
					// already rejects.
					if err := tridiag.Thomas(sub[:n], dia[:n], sup[:n], rhs[:n], sol[:n], wrk[:n]); err != nil {
						panic(fmt.Sprintf("precond: block solve failed: %v", err))
					}
					for t := 0; t < n; t++ {
						zd[o+t*ls] = sol[t]
					}
				}
			}
		}
	})
}

// Name implements Preconditioner.
func (m *BlockJacobi) Name() string { return "jac_block" }

// BlockSize returns the strip length.
func (m *BlockJacobi) BlockSize() int { return m.blockSize }

// Spec is one entry of the preconditioner registry: the deck name plus
// the capability flags the solver consults. The registry is the single
// source of truth for which names exist and which solver configurations
// they compose with — FromName and the solver's option validation both
// read it, so a new preconditioner is added in exactly one place.
type Spec struct {
	// Name is the TeaLeaf input-deck name (tl_preconditioner_type).
	Name string
	// Summary is a one-line description for error messages and docs.
	Summary string
	// Foldable reports a pure diagonal scaling: the fused single-reduction
	// loops fold it into their sweeps (see DiagonalFoldable) instead of
	// spending a separate grid pass.
	Foldable bool
	// CommFree reports that applications need no communication (§IV-C1);
	// every registered preconditioner is comm-free today, which is what
	// makes them usable inside the communication-avoiding inner loop.
	CommFree bool
	// DeepHalo reports compatibility with matrix-powers halo depth > 1.
	// Block solves need fresh whole-strip data every application, which
	// would force an exchange per inner step and cancel the matrix-powers
	// benefit (§IV-C2), so they are not deep-halo compatible.
	DeepHalo bool
}

// registry lists every preconditioner in deck-name order.
var registry = []Spec{
	{Name: "none", Summary: "identity (z = r)",
		Foldable: true, CommFree: true, DeepHalo: true},
	{Name: "jac_diag", Summary: "point-diagonal Jacobi (z = D⁻¹r)",
		Foldable: true, CommFree: true, DeepHalo: true},
	{Name: "jac_block", Summary: "tridiagonal block-Jacobi (4-cell strips along y on a flat grid, along z in 3D)",
		Foldable: false, CommFree: true, DeepHalo: false},
}

// Specs returns the registry in deck-name order (a copy).
func Specs() []Spec {
	return append([]Spec(nil), registry...)
}

// Lookup finds the registry entry for a deck name. The empty name is the
// identity, matching the deck default.
func Lookup(name string) (Spec, bool) {
	if name == "" {
		name = "none"
	}
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Names returns every registered deck name.
func Names() []string {
	var out []string
	for _, s := range registry {
		out = append(out, s.Name)
	}
	return out
}

// FromName builds the preconditioner named by a TeaLeaf input deck value
// (tl_preconditioner_type), consulting the registry; an unknown name's
// error lists every registered one.
func FromName(name string, pool *par.Pool, op *stencil.Operator) (Preconditioner, error) {
	s, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("precond: unknown preconditioner %q (supported: %s)",
			name, strings.Join(Names(), ", "))
	}
	switch s.Name {
	case "none":
		return NewNone(), nil
	case "jac_diag":
		return NewJacobi(pool, op), nil
	case "jac_block":
		return NewBlockJacobi(pool, op, DefaultBlockSize), nil
	}
	return nil, fmt.Errorf("precond: %q is registered but has no constructor", s.Name)
}
