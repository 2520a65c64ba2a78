package propcheck

import (
	"math/rand"
	"strings"
	"testing"

	"tealeaf/internal/deck"
	"tealeaf/internal/grid"
)

// TestGenDeterministic: the generator's whole point is that a seed
// reproduces a corpus exactly — two independent streams from the same
// seed must emit identical decks, draw after draw.
func TestGenDeterministic(t *testing.T) {
	r1 := rand.New(rand.NewSource(5))
	r2 := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		a, b := Gen(r1).Format(), Gen(r2).Format()
		if a != b {
			t.Fatalf("draw %d diverged between identical streams:\n%s\n--- vs ---\n%s", i, a, b)
		}
	}
}

// TestGenValidAndRoundTrips: every generated deck validates (Gen panics
// otherwise, but the test documents the contract) and survives the
// Format -> ParseString -> Format round trip unchanged, so a shrunk
// reproducer printed in a failure report really is runnable as-is.
func TestGenValidAndRoundTrips(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	dims := map[int]int{}
	for i := 0; i < 50; i++ {
		d := Gen(r)
		if err := d.Validate(); err != nil {
			t.Fatalf("draw %d invalid: %v", i, err)
		}
		dims[d.Dims]++
		text := d.Format()
		back, err := deck.ParseString(text)
		if err != nil {
			t.Fatalf("draw %d does not re-parse: %v\n%s", i, err, text)
		}
		if got := back.Format(); got != text {
			t.Fatalf("draw %d round trip changed the deck:\n%s\n--- vs ---\n%s", i, text, got)
		}
	}
	if dims[2] == 0 || dims[3] == 0 {
		t.Errorf("50 draws covered dims %v; want both 2D and 3D", dims)
	}
}

// TestRunCleanCorpus: a small seeded run passes every checker and
// reports per-deck records suitable for BENCH_fuzz.json.
func TestRunCleanCorpus(t *testing.T) {
	rep := Run(Config{Seed: 1, N: 4, Log: t.Logf})
	if !rep.OK() {
		for _, c := range rep.Cases {
			if c.Failure != nil {
				t.Errorf("deck %d failed %s: %s\ndeck:\n%s\nshrunk:\n%s",
					c.Index, c.Failure.Checker, c.Failure.Detail, c.Failure.Deck, c.Failure.Shrunk)
			}
		}
	}
	if len(rep.Cases) != 4 {
		t.Fatalf("cases = %d, want 4", len(rep.Cases))
	}
	for _, c := range rep.Cases {
		if len(c.Checkers) == 0 {
			t.Errorf("deck %d: no checkers recorded", c.Index)
		}
		if c.Drift > TolConserve {
			t.Errorf("deck %d: drift %.3e above the conservation gate", c.Index, c.Drift)
		}
	}
}

// tamperDeck is the fixed deck the fault-injection tests run: small,
// two-state, converges in a handful of iterations, and sized so the
// shrinker has real work (mesh halvings, a droppable region).
func tamperDeck(t *testing.T) *deck.Deck {
	t.Helper()
	d := deck.Default()
	d.XCells, d.YCells = 12, 12
	d.EndStep = 2
	d.EndTime = 1e12
	d.Eps = 1e-9
	d.States = []deck.State{
		{Index: 1, Density: 1, Energy: 1},
		{Index: 2, Density: 5, Energy: 4, Geometry: deck.GeomRectangle, XMin: 2, XMax: 6, YMin: 2, YMax: 7},
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("tamper deck invalid: %v", err)
	}
	return d
}

// TestBrokenKernelDetectedAndShrunk is the acceptance demo: a fault
// injected into exactly one checker leg (the 2-worker tiled run, i.e. a
// simulated tiling-scheduler bug) is caught by the tiled-bit-identity
// checker and shrunk to a minimal ready-to-run reproducer that still
// fails.
func TestBrokenKernelDetectedAndShrunk(t *testing.T) {
	cfg := Config{
		Tamper: func(leg string, energy *grid.Field2D) {
			if leg != "tiled-w2" {
				return
			}
			b := energy.Grid.Interior()
			// One cell, one ULP-scale nudge: far below every relative
			// tolerance, visible only to the bit-identity contract.
			energy.Set(b.X0, b.Y0, energy.At(b.X0, b.Y0)*(1+1e-9))
		},
	}
	cr := CheckDeck(tamperDeck(t), cfg)
	if cr.Failure == nil {
		t.Fatal("tampered tiled-w2 leg was not detected")
	}
	if cr.Failure.Checker != "tiled-bit-identity" {
		t.Fatalf("caught by %q, want tiled-bit-identity (detail: %s)", cr.Failure.Checker, cr.Failure.Detail)
	}
	if !strings.Contains(cr.Failure.Detail, "expected bit-identical") {
		t.Errorf("detail %q does not state the bit-identity contract", cr.Failure.Detail)
	}
	if cr.Failure.ShrinkAttempts == 0 {
		t.Error("shrinker recorded no attempts")
	}

	// The shrunk reproducer must be a runnable deck...
	shrunk, err := deck.ParseString(cr.Failure.Shrunk)
	if err != nil {
		t.Fatalf("shrunk reproducer does not parse: %v\n%s", err, cr.Failure.Shrunk)
	}
	// ...that still trips the same checker...
	re := CheckDeck(shrunk, cfg)
	if re.Failure == nil || re.Failure.Checker != "tiled-bit-identity" {
		t.Fatalf("shrunk deck no longer reproduces the failure: %+v", re.Failure)
	}
	// ...and is minimal: the fault fires on every candidate, so the
	// shrinker must reach the floors — mesh halved to the minimum, one
	// step, background state only.
	if shrunk.XCells != 6 || shrunk.YCells != 6 {
		t.Errorf("shrunk mesh %dx%d, want 6x6", shrunk.XCells, shrunk.YCells)
	}
	if shrunk.Steps() != 1 {
		t.Errorf("shrunk steps = %d, want 1", shrunk.Steps())
	}
	if len(shrunk.States) != 1 {
		t.Errorf("shrunk states = %d, want 1", len(shrunk.States))
	}
}

// TestTamperedBaseTripsConservation: a fault in the base leg must be
// caught by the physics checkers, not just cross-leg comparisons — the
// re-summarised internal energy exposes it as a conservation violation.
func TestTamperedBaseTripsConservation(t *testing.T) {
	cfg := Config{
		Tamper: func(leg string, energy *grid.Field2D) {
			if leg != "base" {
				return
			}
			b := energy.Grid.Interior()
			energy.Set(b.X0, b.Y0, energy.At(b.X0, b.Y0)+1)
		},
	}
	cr := CheckDeck(tamperDeck(t), cfg)
	if cr.Failure == nil {
		t.Fatal("tampered base leg was not detected")
	}
	if cr.Failure.Checker != "conserve" {
		t.Fatalf("caught by %q, want conserve (detail: %s)", cr.Failure.Checker, cr.Failure.Detail)
	}
}

// TestShrinkReachesFloors: with an always-failing predicate the shrinker
// must strip every axis down to its floor and stay within budget.
func TestShrinkReachesFloors(t *testing.T) {
	d := tamperDeck(t)
	d.Solver = "ppcg"
	d.Precond = "jac_diag"
	d.Pipelined = true
	d.SplitSweeps = true
	d.HaloDepth = 3
	d.Tiling = true
	d.TileX, d.TileY = 4, 4
	d.XCells, d.YCells = 24, 24
	d.UseDeflation = true
	d.DeflationBlocks = 4
	d.DeflationLevels = 2
	if err := d.Validate(); err != nil {
		t.Fatalf("setup deck invalid: %v", err)
	}

	const budget = 60
	shrunk, attempts := Shrink(d, func(*deck.Deck) bool { return true }, budget)
	if attempts > budget {
		t.Errorf("attempts = %d, above budget %d", attempts, budget)
	}
	if shrunk.XCells != 6 || shrunk.YCells != 6 {
		t.Errorf("mesh %dx%d, want 6x6", shrunk.XCells, shrunk.YCells)
	}
	if shrunk.Steps() != 1 {
		t.Errorf("steps = %d, want 1", shrunk.Steps())
	}
	if len(shrunk.States) != 1 {
		t.Errorf("states = %d, want 1", len(shrunk.States))
	}
	if shrunk.UseDeflation || shrunk.Pipelined || shrunk.SplitSweeps || shrunk.Tiling {
		t.Errorf("options not fully stripped: %+v", shrunk)
	}
	if shrunk.Precond != "none" || shrunk.HaloDepth != 1 || shrunk.Solver != "cg" {
		t.Errorf("precond/halo/solver not at floors: %s %d %s", shrunk.Precond, shrunk.HaloDepth, shrunk.Solver)
	}
	// The original deck is untouched throughout.
	if d.XCells != 24 || !d.UseDeflation || d.Solver != "ppcg" {
		t.Error("Shrink mutated its input deck")
	}
}
