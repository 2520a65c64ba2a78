package halo

import (
	"testing"

	"tealeaf/internal/grid"
)

func TestNewScheduleValidation(t *testing.T) {
	g := grid.UnitGrid(8, 8, 1, 4)
	if _, err := NewSchedule(g, 0, grid.Sides{}); err == nil {
		t.Error("zero depth must error")
	}
	if _, err := NewSchedule(g, 5, grid.Sides{}); err == nil {
		t.Error("depth beyond halo must error")
	}
	s, err := NewSchedule(g, 4, grid.Sides{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Depth() != 4 || s.StepsPerExchange() != 4 {
		t.Error("depth accessors wrong")
	}
}

func TestScheduleRequiresRefillFirst(t *testing.T) {
	g := grid.UnitGrid(8, 8, 1, 4)
	s, _ := NewSchedule(g, 3, grid.Sides{Left: true, Right: true, Down: true, Up: true})
	if _, ok := s.Next(); ok {
		t.Error("Next before Refill must fail")
	}
	s.Refill()
	if s.Remaining() != 3 {
		t.Errorf("Remaining = %d, want 3", s.Remaining())
	}
}

func TestScheduleBoundsSequenceAllNeighbors(t *testing.T) {
	g := grid.UnitGrid(10, 10, 1, 4)
	s, _ := NewSchedule(g, 3, grid.Sides{Left: true, Right: true, Down: true, Up: true})
	s.Refill()
	want := []grid.Bounds{
		{X0: -2, X1: 12, Y0: -2, Y1: 12, Z0: 0, Z1: 1},
		{X0: -1, X1: 11, Y0: -1, Y1: 11, Z0: 0, Z1: 1},
		{X0: 0, X1: 10, Y0: 0, Y1: 10, Z0: 0, Z1: 1},
	}
	for i, w := range want {
		b, ok := s.Next()
		if !ok {
			t.Fatalf("step %d: exhausted early", i)
		}
		if b != w {
			t.Errorf("step %d: bounds %v, want %v", i, b, w)
		}
	}
	if _, ok := s.Next(); ok {
		t.Error("4th application must require a refill")
	}
	// Refill restarts the cycle identically.
	s.Refill()
	b, _ := s.Next()
	if b != want[0] {
		t.Errorf("after refill: %v, want %v", b, want[0])
	}
}

func TestSchedulePhysicalSidesNotExtended(t *testing.T) {
	g := grid.UnitGrid(8, 8, 1, 4)
	// Corner rank: neighbours only on the right and up.
	s, _ := NewSchedule(g, 4, grid.Sides{Right: true, Up: true})
	s.Refill()
	b, _ := s.Next()
	if b.X0 != 0 || b.Y0 != 0 {
		t.Errorf("physical sides must not extend: %v", b)
	}
	if b.X1 != 11 || b.Y1 != 11 {
		t.Errorf("neighbour sides must extend by depth-1: %v", b)
	}
	// Shrink only on extended sides.
	b, _ = s.Next()
	if b.X0 != 0 || b.X1 != 10 || b.Y0 != 0 || b.Y1 != 10 {
		t.Errorf("second step: %v", b)
	}
}

func TestScheduleDepth1EqualsClassic(t *testing.T) {
	g := grid.UnitGrid(8, 8, 1, 2)
	s, _ := NewSchedule(g, 1, grid.Sides{Left: true, Right: true, Down: true, Up: true})
	s.Refill()
	b, ok := s.Next()
	if !ok || b != g.Interior() {
		t.Errorf("depth-1 bounds = %v, want interior", b)
	}
	if _, ok := s.Next(); ok {
		t.Error("depth-1 buys exactly one application")
	}
}

func TestScheduleSingleRank(t *testing.T) {
	// No neighbours at all: bounds never extend, but the schedule still
	// counts applications (serial case — reflection stands in for fresh
	// data so each application is valid on the interior).
	g := grid.UnitGrid(8, 8, 1, 4)
	s, _ := NewSchedule(g, 4, grid.Sides{})
	s.Refill()
	for i := 0; i < 4; i++ {
		b, ok := s.Next()
		if !ok || b != g.Interior() {
			t.Fatalf("step %d: %v ok=%v", i, b, ok)
		}
	}
}

func TestRedundantCells(t *testing.T) {
	g := grid.UnitGrid(10, 10, 1, 4)
	// All neighbours, depth 3: extensions 2,1,0 →
	// (14² - 100) + (12² - 100) + 0 = 96 + 44 = 140.
	s, _ := NewSchedule(g, 3, grid.Sides{Left: true, Right: true, Down: true, Up: true})
	if got := s.RedundantCells(); got != 140 {
		t.Errorf("RedundantCells = %d, want 140", got)
	}
	// Depth 1: no redundancy.
	s1, _ := NewSchedule(g, 1, grid.Sides{Left: true, Right: true, Down: true, Up: true})
	if got := s1.RedundantCells(); got != 0 {
		t.Errorf("depth-1 RedundantCells = %d, want 0", got)
	}
	// No neighbours: no redundancy regardless of depth.
	s2, _ := NewSchedule(g, 4, grid.Sides{})
	if got := s2.RedundantCells(); got != 0 {
		t.Errorf("no-neighbour RedundantCells = %d, want 0", got)
	}
}

func TestRedundantCellsGrowsWithDepth(t *testing.T) {
	g := grid.UnitGrid(32, 32, 1, 16)
	all := grid.Sides{Left: true, Right: true, Down: true, Up: true}
	prev := -1
	for d := 1; d <= 16; d++ {
		s, err := NewSchedule(g, d, all)
		if err != nil {
			t.Fatal(err)
		}
		rc := s.RedundantCells()
		if rc <= prev && d > 1 {
			t.Errorf("depth %d: redundant cells %d not increasing (prev %d)", d, rc, prev)
		}
		prev = rc
	}
}
