package problem

import (
	"testing"

	"tealeaf/internal/deck"
	"tealeaf/internal/grid"
)

// grid3ForDeck builds the full-domain 3D grid a deck describes.
func grid3ForDeck(t *testing.T, d *deck.Deck) *grid.Grid {
	t.Helper()
	g, err := grid.NewGrid3D(d.XCells, d.YCells, d.ZCells, 2,
		d.XMin, d.XMax, d.YMin, d.YMax, d.ZMin, d.ZMax)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPaint3DBackgroundAndBox(t *testing.T) {
	d := BenchmarkDeck3D(10)
	g := grid3ForDeck(t, d)
	den := grid.NewField(g)
	en := grid.NewField(g)
	if err := Paint(d.States, den, en); err != nil {
		t.Fatal(err)
	}
	// Background cell.
	if den.Cell(9, 9, 9) != 100 || en.Cell(9, 9, 9) != 0.0001 {
		t.Error("background not painted")
	}
	// Inside the hot box (cell centre (0.5,1.5,1.5) at n=10 on [0,10]³ is
	// cell (0,1,1)).
	if den.Cell(0, 1, 1) != 0.1 || en.Cell(0, 1, 1) != 25 {
		t.Errorf("hot box not painted: den=%v en=%v", den.Cell(0, 1, 1), en.Cell(0, 1, 1))
	}
	// Outside the box in z only.
	if den.Cell(0, 1, 5) != 100 {
		t.Error("box must be bounded in z")
	}
}

func TestPaint3DExtrudesEmptyZRange(t *testing.T) {
	d := BenchmarkDeck3D(8)
	d.States[1].ZMin, d.States[1].ZMax = 0, 0 // empty: extrude through z
	g := grid3ForDeck(t, d)
	den := grid.NewField(g)
	en := grid.NewField(g)
	if err := Paint(d.States, den, en); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < g.NZ; k++ {
		if den.Cell(0, 1, k) != 0.1 {
			t.Fatalf("extruded state missing at z=%d", k)
		}
	}
}

func TestPaint3DSphere(t *testing.T) {
	d := BenchmarkDeck3D(10)
	d.States[1] = deck.State{Index: 2, Density: 0.1, Energy: 25,
		Geometry: deck.GeomCircle, CX: 5, CY: 5, CZ: 5, Radius: 2}
	g := grid3ForDeck(t, d)
	den := grid.NewField(g)
	en := grid.NewField(g)
	if err := Paint(d.States, den, en); err != nil {
		t.Fatal(err)
	}
	if den.Cell(4, 4, 4) != 0.1 {
		t.Error("sphere centre cell not painted")
	}
	if den.Cell(0, 0, 0) != 100 {
		t.Error("corner must stay background")
	}
}

func TestEnergyURoundTrip3D(t *testing.T) {
	d := BenchmarkDeck3D(6)
	g := grid3ForDeck(t, d)
	den := grid.NewField(g)
	en := grid.NewField(g)
	if err := Paint(d.States, den, en); err != nil {
		t.Fatal(err)
	}
	u := grid.NewField(g)
	back := grid.NewField(g)
	EnergyToU(den, en, u)
	UToEnergy(den, u, back)
	if back.MaxDiff(en) > 1e-14 {
		t.Error("energy↔u round trip broken")
	}
}
