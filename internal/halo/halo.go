// Package halo implements the matrix-powers kernel schedule of §IV-C2: the
// bookkeeping that lets the CPPCG inner loop perform depth-d matrix
// multiplications between halo exchanges by computing on extended bounds
// that shrink by one cell per step as the halo data goes stale.
//
// After a depth-d exchange, the first A·p runs on bounds extended by d−1
// beyond the interior (it reads one cell further, i.e. the full depth-d
// halo); each subsequent application shrinks the extension by one. When
// the extension is exhausted, a fresh exchange is needed. Sides on the
// physical domain boundary are never extended: their halos are zero-flux
// mirrors, not neighbour data, and the outer-boundary face coefficients
// are zero. A flat grid has no z halo, so its bounds never extend in z.
package halo

import (
	"fmt"

	"tealeaf/internal/grid"
)

// Schedule tracks how many matrix applications remain before the next
// exchange, and the bounds each application must run on.
type Schedule struct {
	depth    int
	g        *grid.Grid
	interior grid.Bounds
	// adj flags the sides with a rank neighbour: the halo there carries
	// fresh data and bounds may extend into it.
	adj grid.Sides
	// remaining applications before an exchange is required.
	remaining int
	// cur is the bounds for the next application.
	cur grid.Bounds
}

// NewSchedule creates a matrix-powers schedule for the given depth. adj
// flags the sides with a rank neighbour (the zero value is the single-rank
// case: nothing extends). The schedule starts exhausted: call Refill after
// the first depth-d exchange.
func NewSchedule(g *grid.Grid, depth int, adj grid.Sides) (*Schedule, error) {
	if depth < 1 || depth > g.Halo {
		return nil, fmt.Errorf("halo: schedule depth %d outside [1,%d]", depth, g.Halo)
	}
	return &Schedule{depth: depth, g: g, interior: g.Interior(), adj: adj}, nil
}

// Depth returns the exchange depth (the number of applications per
// exchange).
func (s *Schedule) Depth() int { return s.depth }

// extended is the interior grown by depth−1 on every side with a neighbour.
func (s *Schedule) extended() grid.Bounds {
	ext := s.depth - 1
	n := func(on bool) int {
		if on {
			return ext
		}
		return 0
	}
	a := s.adj
	return s.interior.ExpandSides(n(a.Left), n(a.Right), n(a.Down), n(a.Up), n(a.Back), n(a.Front), s.g)
}

// Refill marks a fresh depth-d exchange: the next application runs on the
// fully extended bounds.
func (s *Schedule) Refill() {
	s.remaining = s.depth
	s.cur = s.extended()
}

// Next returns the bounds for the next application and advances the
// schedule. ok is false when the schedule is exhausted (an exchange and
// Refill are needed first).
func (s *Schedule) Next() (grid.Bounds, bool) {
	if s.remaining == 0 {
		return grid.Bounds{}, false
	}
	b := s.cur
	s.remaining--
	s.cur = s.cur.ShrinkToward(1, s.interior)
	return b, true
}

// Remaining returns how many applications remain before an exchange.
func (s *Schedule) Remaining() int { return s.remaining }

// StepsPerExchange is the number of applications one exchange buys.
func (s *Schedule) StepsPerExchange() int { return s.depth }

// RedundantCells returns the total number of extra (non-interior) cell
// updates one full schedule cycle performs: the redundant computation the
// matrix-powers kernel trades for fewer exchanges.
func (s *Schedule) RedundantCells() int {
	total := 0
	b := s.extended()
	for i := 0; i < s.depth; i++ {
		total += b.Cells()
		b = b.ShrinkToward(1, s.interior)
	}
	return total - s.depth*s.interior.Cells()
}
