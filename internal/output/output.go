// Package output renders fields and data series: PGM/PPM heatmaps (the
// Fig. 3 temperature plot), terminal ASCII heatmaps, CSV series for the
// strong-scaling figures, and legacy-VTK structured grids for external
// viewers.
package output

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strings"

	"tealeaf/internal/grid"
)

// WritePGM writes the interior of f as a binary 8-bit PGM image, mapping
// [lo, hi] to [0, 255]. Pass lo >= hi to auto-range. Row order is flipped
// so y increases upward as in the paper's plots.
func WritePGM(w io.Writer, f *grid.Field, lo, hi float64) error {
	g := f.Grid
	if lo >= hi {
		lo, hi = f.MinMaxInterior()
		if lo == hi {
			hi = lo + 1
		}
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "P5\n%d %d\n255\n", g.NX, g.NY)
	for k := g.NY - 1; k >= 0; k-- {
		for j := 0; j < g.NX; j++ {
			v := (f.At(j, k) - lo) / (hi - lo)
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			if err := bw.WriteByte(byte(v * 255)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WritePPM writes a false-colour PPM using a blue→red heat map like the
// paper's Fig. 3 ("redder colors indicate higher temperatures").
func WritePPM(w io.Writer, f *grid.Field, lo, hi float64) error {
	g := f.Grid
	if lo >= hi {
		lo, hi = f.MinMaxInterior()
		if lo == hi {
			hi = lo + 1
		}
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "P6\n%d %d\n255\n", g.NX, g.NY)
	for k := g.NY - 1; k >= 0; k-- {
		for j := 0; j < g.NX; j++ {
			v := (f.At(j, k) - lo) / (hi - lo)
			r, gg, b := heatColor(v)
			bw.WriteByte(r)
			bw.WriteByte(gg)
			bw.WriteByte(b)
		}
	}
	return bw.Flush()
}

// heatColor maps t ∈ [0,1] onto a blue→cyan→yellow→red ramp.
func heatColor(t float64) (r, g, b byte) {
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	switch {
	case t < 0.25:
		return 0, byte(255 * t / 0.25), 255
	case t < 0.5:
		return 0, 255, byte(255 * (0.5 - t) / 0.25)
	case t < 0.75:
		return byte(255 * (t - 0.5) / 0.25), 255, 0
	default:
		return 255, byte(255 * (1 - t) / 0.25), 0
	}
}

// ASCIIHeatmap renders the interior of f as a width×height character
// map using a density ramp, averaging cells into character bins; handy
// for eyeballing the crooked pipe in a terminal.
func ASCIIHeatmap(f *grid.Field, width, height int) string {
	g := f.Grid
	if width <= 0 {
		width = 64
	}
	if height <= 0 {
		height = 32
	}
	if width > g.NX {
		width = g.NX
	}
	if height > g.NY {
		height = g.NY
	}
	lo, hi := f.MinMaxInterior()
	if hi == lo {
		hi = lo + 1
	}
	// Log scale reveals the pipe against the cold wall (the paper's plot
	// is linear but its dynamic range is small; ours spans decades).
	ramp := " .:-=+*#%@"
	var sb strings.Builder
	for row := height - 1; row >= 0; row-- {
		k0 := row * g.NY / height
		k1 := (row + 1) * g.NY / height
		for col := 0; col < width; col++ {
			j0 := col * g.NX / width
			j1 := (col + 1) * g.NX / width
			var sum float64
			n := 0
			for k := k0; k < k1; k++ {
				for j := j0; j < j1; j++ {
					sum += f.At(j, k)
					n++
				}
			}
			v := sum / float64(n)
			t := math.Log1p(v-lo) / math.Log1p(hi-lo)
			idx := int(t * float64(len(ramp)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			sb.WriteByte(ramp[idx])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// WriteCSVSeries writes aligned series as CSV: a header then one row per
// x value. All series must share xs.
func WriteCSVSeries(w io.Writer, xName string, xs []int, names []string, series [][]float64) error {
	for i, s := range series {
		if len(s) != len(xs) {
			return fmt.Errorf("output: series %q has %d points, want %d", names[i], len(s), len(xs))
		}
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s", xName)
	for _, n := range names {
		fmt.Fprintf(bw, ",%s", n)
	}
	fmt.Fprintln(bw)
	for i, x := range xs {
		fmt.Fprintf(bw, "%d", x)
		for _, s := range series {
			fmt.Fprintf(bw, ",%.6g", s[i])
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// WriteVTK writes the interior of the named fields as a legacy-VTK
// structured-points dataset readable by ParaView/VisIt.
func WriteVTK(w io.Writer, title string, fields map[string]*grid.Field) error {
	if len(fields) == 0 {
		return fmt.Errorf("output: no fields to write")
	}
	var g *grid.Grid
	for _, f := range fields {
		if g == nil {
			g = f.Grid
		} else if f.Grid.NX != g.NX || f.Grid.NY != g.NY {
			return fmt.Errorf("output: VTK fields must share a grid")
		}
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# vtk DataFile Version 3.0\n%s\nASCII\nDATASET STRUCTURED_POINTS\n", title)
	fmt.Fprintf(bw, "DIMENSIONS %d %d 1\n", g.NX, g.NY)
	fmt.Fprintf(bw, "ORIGIN %g %g 0\n", g.XMin+g.DX/2, g.YMin+g.DY/2)
	fmt.Fprintf(bw, "SPACING %g %g 1\n", g.DX, g.DY)
	fmt.Fprintf(bw, "POINT_DATA %d\n", g.NX*g.NY)
	// Deterministic field order.
	names := make([]string, 0, len(fields))
	for n := range fields {
		names = append(names, n)
	}
	sortStrings(names)
	for _, name := range names {
		f := fields[name]
		fmt.Fprintf(bw, "SCALARS %s double 1\nLOOKUP_TABLE default\n", name)
		for k := 0; k < g.NY; k++ {
			for j := 0; j < g.NX; j++ {
				fmt.Fprintf(bw, "%g\n", f.At(j, k))
			}
		}
	}
	return bw.Flush()
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
