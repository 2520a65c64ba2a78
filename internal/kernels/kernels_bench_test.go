package kernels

import (
	"fmt"
	"testing"

	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/stencil"
)

// Per-kernel benchmarks at the paper-relevant mesh sizes. b.SetBytes is
// the kernel's memory traffic per sweep (reads + writes, 8 bytes each,
// counting read-modify-write fields twice), so the MB/s column is the
// achieved effective bandwidth — the figure of merit for every kernel in
// this package (§III-A).

func benchGrid(n int) *grid.Grid { return grid.UnitGrid(n, n, 1, 2) }

func benchField(g *grid.Grid, seed int64) *grid.Field {
	return testField(g, seed)
}

func benchOp(g *grid.Grid) *stencil.Operator {
	den := grid.NewField(g)
	den.Fill(1.7)
	op, err := stencil.BuildOperator(par.Serial, den, 0.04, stencil.Conductivity, grid.AllSides)
	if err != nil {
		panic(err)
	}
	return op
}

func sizes() []int { return []int{1024, 2048} }

func BenchmarkDot(b *testing.B) {
	for _, n := range sizes() {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			g := benchGrid(n)
			x, y := benchField(g, 1), benchField(g, 2)
			in := g.Interior()
			b.SetBytes(int64(n) * int64(n) * 8 * 2)
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += Dot(par.Serial, in, x, y)
			}
			_ = sink
		})
	}
}

func BenchmarkAxpy(b *testing.B) {
	for _, n := range sizes() {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			g := benchGrid(n)
			x, y := benchField(g, 1), benchField(g, 2)
			in := g.Interior()
			b.SetBytes(int64(n) * int64(n) * 8 * 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Axpy(par.Serial, in, 1e-9, x, y)
			}
		})
	}
}

func BenchmarkApply(b *testing.B) {
	for _, n := range sizes() {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			g := benchGrid(n)
			op := benchOp(g)
			p, w := benchField(g, 1), grid.NewField(g)
			in := g.Interior()
			b.SetBytes(int64(n) * int64(n) * 8 * 5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op.Apply(par.Serial, in, p, w)
			}
		})
	}
}

func BenchmarkApplyDot(b *testing.B) {
	for _, n := range sizes() {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			g := benchGrid(n)
			op := benchOp(g)
			p, w := benchField(g, 1), grid.NewField(g)
			in := g.Interior()
			b.SetBytes(int64(n) * int64(n) * 8 * 5)
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += op.ApplyDot(par.Serial, in, p, w)
			}
			_ = sink
		})
	}
}

func BenchmarkApplyDot2(b *testing.B) {
	for _, n := range sizes() {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			g := benchGrid(n)
			op := benchOp(g)
			p, w := benchField(g, 1), grid.NewField(g)
			in := g.Interior()
			b.SetBytes(int64(n) * int64(n) * 8 * 5)
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				pw, ww := op.ApplyDot2(par.Serial, in, p, w)
				sink += pw + ww
			}
			_ = sink
		})
	}
}

func BenchmarkPrecondDot(b *testing.B) {
	for _, n := range sizes() {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			g := benchGrid(n)
			minv, r, z := benchField(g, 1), benchField(g, 2), grid.NewField(g)
			in := g.Interior()
			b.SetBytes(int64(n) * int64(n) * 8 * 4)
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += PrecondDot(par.Serial, in, minv, r, z)
			}
			_ = sink
		})
	}
}

func BenchmarkFusedCGDirections(b *testing.B) {
	for _, n := range sizes() {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			g := benchGrid(n)
			minv, r, w := benchField(g, 1), benchField(g, 2), benchField(g, 3)
			p, s := benchField(g, 4), benchField(g, 5)
			in := g.Interior()
			b.SetBytes(int64(n) * int64(n) * 8 * 7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FusedCGDirections(par.Serial, in, minv, r, w, 0.5, p, s)
			}
		})
	}
}

func BenchmarkFusedCGUpdate(b *testing.B) {
	for _, n := range sizes() {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			g := benchGrid(n)
			minv, pv, sv := benchField(g, 1), benchField(g, 2), benchField(g, 3)
			x, r := benchField(g, 4), benchField(g, 5)
			in := g.Interior()
			b.SetBytes(int64(n) * int64(n) * 8 * 7)
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				gamma, rr := FusedCGUpdate(par.Serial, in, 1e-9, pv, sv, x, r, minv)
				sink += gamma + rr
			}
			_ = sink
		})
	}
}

// BenchmarkFusedPPCGInner times one whole inner PPCG step, matvec
// included (Operator.ApplyPPCGInner), on a 2D and a 3D grid. The traffic
// counts the face coefficient rows (two in 2D, three in 3D), sd, minv,
// rtemp (read and write), the new sd and z (read and write).
func BenchmarkFusedPPCGInner(b *testing.B) {
	cases := []struct {
		name    string
		g       *grid.Grid
		traffic int64
	}{
		{"2D/1024x1024", benchGrid(1024), 9},
		{"3D/128x128x128", grid.UnitGrid(128, 128, 128, 1), 10},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			g := c.g
			op := benchOp(g)
			minv := benchField(g, 1)
			sd, sdNext := benchField(g, 2), grid.NewField(g)
			rtemp, z := benchField(g, 3), benchField(g, 4)
			in := g.Interior()
			b.SetBytes(int64(in.Cells()) * 8 * c.traffic)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op.ApplyPPCGInner(par.Serial, in, in, 0.9, 0.1, minv, sd, sdNext, rtemp, z)
			}
		})
	}
}
