package stencil

import (
	"fmt"
	"math"
	"testing"

	"tealeaf/internal/grid"
	"tealeaf/internal/halo"
	"tealeaf/internal/par"
)

// TestApplyPPCGInnerMatchesComposed checks the one-sweep inner PPCG step
// against Apply followed by the separate updates it replaces,
//
//	rtemp −= w;  sd' = α·sd + β·(minv ⊙ rtemp)  over b;  z += sd'  over in,
//
// bit for bit on every stored value (cells outside b and in are left
// alone), on a flat and a 3D grid, on the interior and on the first
// matrix-powers bounds of a depth-3 schedule, with the identity and a
// diagonal preconditioner, across pool sizes.
func TestApplyPPCGInnerMatchesComposed(t *testing.T) {
	const alpha, beta = 0.83, 0.29
	grids := map[string]*grid.Grid{
		"flat": grid.UnitGrid(19, 13, 1, 3),
		"3D":   grid.UnitGrid(11, 7, 6, 3),
	}
	var pools []*par.Pool
	for _, workers := range []int{1, 2, 4, 7} {
		pools = append(pools, par.NewPool(workers).WithGrain(1))
	}
	for gname, g := range grids {
		density := randomField(g, 1)
		for i, v := range density.Data {
			density.Data[i] = 0.1 + 5*math.Abs(v)
		}
		op, err := BuildOperator(par.Serial, density, 0.05, Conductivity, grid.Sides{})
		if err != nil {
			t.Fatal(err)
		}
		in := g.Interior()
		powers, err := halo.NewSchedule(g, 3, grid.AllSides)
		if err != nil {
			t.Fatal(err)
		}
		powers.Refill()
		deep, _ := powers.Next()
		for bname, b := range map[string]grid.Bounds{"interior": in, "depth3": deep} {
			diag := grid.NewField(g)
			op.Diagonal(par.Serial, b, diag)
			for i, v := range diag.Data {
				if v != 0 {
					diag.Data[i] = 1 / v
				}
			}
			for pname, minv := range map[string]*grid.Field{"identity": nil, "diagonal": diag} {
				// Reference: Apply, then the cell-wise updates.
				sd := randomField(g, 2)
				rtRef, sdRef, zRef := randomField(g, 3), randomField(g, 4), randomField(g, 5)
				w := grid.NewField(g)
				op.Apply(par.Serial, b, sd, w)
				forCells(b, func(i, j, k int) {
					v := rtRef.Cell(i, j, k) - w.Cell(i, j, k)
					rtRef.SetCell(i, j, k, v)
					if minv == nil {
						sdRef.SetCell(i, j, k, alpha*sd.Cell(i, j, k)+beta*v)
					} else {
						sdRef.SetCell(i, j, k, alpha*sd.Cell(i, j, k)+beta*(minv.Cell(i, j, k)*v))
					}
				})
				forCells(in, func(i, j, k int) {
					zRef.SetCell(i, j, k, zRef.Cell(i, j, k)+sdRef.Cell(i, j, k))
				})
				for _, pool := range pools {
					name := fmt.Sprintf("%s/%s/%s/w%d", gname, bname, pname, pool.Workers())
					rt, sdNext, z := randomField(g, 3), randomField(g, 4), randomField(g, 5)
					op.ApplyPPCGInner(pool, b, in, alpha, beta, minv, sd, sdNext, rt, z)
					bitsEqual(t, name+" rtemp", rt, rtRef)
					bitsEqual(t, name+" sdNext", sdNext, sdRef)
					bitsEqual(t, name+" z", z, zRef)
				}
			}
		}
	}
}

// forCells calls fn on every cell of b.
func forCells(b grid.Bounds, fn func(i, j, k int)) {
	for k := b.Z0; k < b.Z1; k++ {
		for j := b.Y0; j < b.Y1; j++ {
			for i := b.X0; i < b.X1; i++ {
				fn(i, j, k)
			}
		}
	}
}

// bitsEqual fails t unless got and want hold the same bits everywhere,
// halos included.
func bitsEqual(t *testing.T, name string, got, want *grid.Field) {
	t.Helper()
	for i := range got.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: storage index %d holds %v, want %v", name, i, got.Data[i], want.Data[i])
		}
	}
}
