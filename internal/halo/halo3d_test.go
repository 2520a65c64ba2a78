package halo

import (
	"testing"

	"tealeaf/internal/grid"
)

func TestSchedule3DShrinksPerStep(t *testing.T) {
	g := grid.UnitGrid(8, 8, 8, 3)
	adj := grid.Sides{Left: true, Right: true, Down: true, Up: true, Back: true, Front: true}
	s, err := NewSchedule(g, 3, adj)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("schedule must be empty before the first Refill")
	}
	s.Refill()
	want := []grid.Bounds{
		{X0: -2, X1: 10, Y0: -2, Y1: 10, Z0: -2, Z1: 10},
		{X0: -1, X1: 9, Y0: -1, Y1: 9, Z0: -1, Z1: 9},
		{X0: 0, X1: 8, Y0: 0, Y1: 8, Z0: 0, Z1: 8},
	}
	for i, w := range want {
		b, ok := s.Next()
		if !ok || b != w {
			t.Fatalf("step %d: bounds %v ok=%v, want %v", i, b, ok, w)
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("schedule must be exhausted after depth steps")
	}
	if s.StepsPerExchange() != 3 {
		t.Errorf("steps per exchange = %d", s.StepsPerExchange())
	}
}

func TestSchedule3DPhysicalSidesDoNotExtend(t *testing.T) {
	g := grid.UnitGrid(8, 8, 8, 2)
	// Only the Front face has a neighbour.
	s, err := NewSchedule(g, 2, grid.Sides{Front: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Refill()
	b, ok := s.Next()
	if !ok || b != (grid.Bounds{X0: 0, X1: 8, Y0: 0, Y1: 8, Z0: 0, Z1: 9}) {
		t.Fatalf("bounds %v", b)
	}
	b, _ = s.Next()
	if b != g.Interior() {
		t.Fatalf("second step must be the interior, got %v", b)
	}
}

func TestSchedule3DRedundantCells(t *testing.T) {
	g := grid.UnitGrid(8, 8, 8, 2)
	s, err := NewSchedule(g, 2, grid.Sides{Left: true, Right: true, Down: true, Up: true, Back: true, Front: true})
	if err != nil {
		t.Fatal(err)
	}
	// Depth 2: one application on 10³, one on 8³ → redundant = 10³ − 8³.
	if got, want := s.RedundantCells(), 1000-512; got != want {
		t.Errorf("redundant cells = %d, want %d", got, want)
	}
	if s2, _ := NewSchedule(g, 1, grid.Sides{}); s2.RedundantCells() != 0 {
		t.Error("depth 1 has no redundant work")
	}
}

func TestSchedule3DValidation(t *testing.T) {
	g := grid.UnitGrid(4, 4, 4, 2)
	if _, err := NewSchedule(g, 3, grid.Sides{}); err == nil {
		t.Error("depth beyond halo must error")
	}
	if _, err := NewSchedule(g, 0, grid.Sides{}); err == nil {
		t.Error("depth 0 must error")
	}
}
