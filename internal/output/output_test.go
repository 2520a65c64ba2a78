package output

import (
	"bytes"
	"strings"
	"testing"

	"tealeaf/internal/grid"
)

func gradientField(nx, ny int) *grid.Field {
	g := grid.MustGrid(nx, ny, 1, 1, 0, 1, 0, 1, 0, 1)
	f := grid.NewField(g)
	for k := 0; k < ny; k++ {
		for j := 0; j < nx; j++ {
			f.Set(j, k, float64(j+k))
		}
	}
	return f
}

func TestWritePGM(t *testing.T) {
	f := gradientField(8, 4)
	var buf bytes.Buffer
	if err := WritePGM(&buf, f, 0, 0); err != nil { // auto-range
		t.Fatal(err)
	}
	data := buf.Bytes()
	if !bytes.HasPrefix(data, []byte("P5\n8 4\n255\n")) {
		t.Fatalf("bad header: %q", data[:16])
	}
	pixels := data[len("P5\n8 4\n255\n"):]
	if len(pixels) != 32 {
		t.Fatalf("pixel count = %d", len(pixels))
	}
	// Top-left pixel is cell (0, NY-1) = value 3; bottom-right is (7,0)=7.
	// Range [0,10] → check monotone scan along the last row.
	if pixels[len(pixels)-1] <= pixels[len(pixels)-8] {
		t.Error("bottom row must increase left to right")
	}
	// Min maps to 0, max to 255.
	var lo, hi byte = 255, 0
	for _, p := range pixels {
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	if lo != 0 || hi != 255 {
		t.Errorf("auto-range must span [0,255], got [%d,%d]", lo, hi)
	}
}

func TestWritePGMConstantField(t *testing.T) {
	g := grid.MustGrid(4, 4, 1, 1, 0, 1, 0, 1, 0, 1)
	f := grid.NewField(g)
	f.FillBounds(g.Interior(), 5)
	var buf bytes.Buffer
	if err := WritePGM(&buf, f, 0, 0); err != nil {
		t.Fatalf("constant field must not divide by zero: %v", err)
	}
}

func TestWritePPM(t *testing.T) {
	f := gradientField(6, 6)
	var buf bytes.Buffer
	if err := WritePPM(&buf, f, 0, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("P6\n6 6\n255\n")) {
		t.Fatal("bad PPM header")
	}
	pix := buf.Bytes()[len("P6\n6 6\n255\n"):]
	if len(pix) != 6*6*3 {
		t.Fatalf("PPM pixel bytes = %d", len(pix))
	}
	// Coldest cell (bottom-left in field = value 0) must be blue-ish, the
	// hottest red-ish. Bottom field row is the LAST image row.
	last := pix[len(pix)-18:]
	if last[2] != 255 || last[0] != 0 {
		t.Errorf("cold pixel rgb = %v, want blue", last[:3])
	}
	first := pix[:18] // top image row = hottest field row
	r, g, b := first[15], first[16], first[17]
	if r != 255 || b != 0 {
		t.Errorf("hot pixel rgb = (%d,%d,%d), want red", r, g, b)
	}
}

func TestHeatColorRamp(t *testing.T) {
	r0, _, b0 := heatColor(0)
	r1, _, b1 := heatColor(1)
	if b0 != 255 || r0 != 0 {
		t.Error("t=0 must be blue")
	}
	if r1 != 255 || b1 != 0 {
		t.Error("t=1 must be red")
	}
	// Out-of-range clamps.
	heatColor(-1)
	heatColor(2)
}

func TestASCIIHeatmap(t *testing.T) {
	f := gradientField(32, 32)
	s := ASCIIHeatmap(f, 16, 8)
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 8 {
		t.Fatalf("rows = %d", len(lines))
	}
	for _, l := range lines {
		if len(l) != 16 {
			t.Fatalf("row width = %d", len(l))
		}
	}
	// Hot corner (top right) must use a denser glyph than cold corner
	// (bottom left).
	ramp := " .:-=+*#%@"
	hot := strings.IndexByte(ramp, lines[0][15])
	cold := strings.IndexByte(ramp, lines[7][0])
	if hot <= cold {
		t.Errorf("hot glyph %d must rank above cold %d", hot, cold)
	}
	// Degenerate sizes clamp.
	_ = ASCIIHeatmap(f, 0, 0)
	_ = ASCIIHeatmap(f, 1000, 1000)
}

func TestWriteCSVSeries(t *testing.T) {
	var buf bytes.Buffer
	err := WriteCSVSeries(&buf, "nodes", []int{1, 2, 4},
		[]string{"cg", "ppcg"}, [][]float64{{3, 2, 1}, {2.5, 1.5, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	want := "nodes,cg,ppcg\n1,3,2.5\n2,2,1.5\n4,1,0.5\n"
	if buf.String() != want {
		t.Errorf("csv = %q, want %q", buf.String(), want)
	}
	// Length mismatch.
	if err := WriteCSVSeries(&buf, "x", []int{1}, []string{"a"}, [][]float64{{1, 2}}); err == nil {
		t.Error("length mismatch must error")
	}
}

func TestWriteVTK(t *testing.T) {
	f := gradientField(4, 3)
	var buf bytes.Buffer
	err := WriteVTK(&buf, "test", map[string]*grid.Field{"energy": f, "density": f})
	if err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{
		"# vtk DataFile Version 3.0",
		"DIMENSIONS 4 3 1",
		"SCALARS density double 1",
		"SCALARS energy double 1",
		"POINT_DATA 12",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("VTK missing %q", want)
		}
	}
	// density must come before energy (sorted).
	if strings.Index(s, "density") > strings.Index(s, "energy") {
		t.Error("fields must be sorted")
	}
	if err := WriteVTK(&buf, "x", nil); err == nil {
		t.Error("no fields must error")
	}
	g2 := grid.MustGrid(5, 3, 1, 1, 0, 1, 0, 1, 0, 1)
	if err := WriteVTK(&buf, "x", map[string]*grid.Field{"a": f, "b": grid.NewField(g2)}); err == nil {
		t.Error("mismatched grids must error")
	}
}
