package core_test

import (
	"fmt"

	"tealeaf/internal/comm"
	"tealeaf/internal/core"
	"tealeaf/internal/deck"
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/solver"
)

// pinRank is one rank's instance as the bit-exact pin drives it.
type pinRank struct {
	comm comm.Communicator
	step func() (solver.Result, error)
	// energy returns the rank's interior energy values, x fastest.
	energy func() []float64
}

// runPinRanks brings up ranks ranks of deck d on the named backend
// (serial, hub or tcp), each with a pool of workers, splitting the mesh
// along its outermost axis, and calls fn on every rank.
func runPinRanks(d *deck.Deck, backend string, ranks, workers int, fn func(r pinRank) error) error {
	halo := core.HaloFor(d)
	if d.Dims == 3 {
		gg, err := grid.NewGrid3D(d.XCells, d.YCells, d.ZCells, halo, d.XMin, d.XMax, d.YMin, d.YMax, d.ZMin, d.ZMax)
		if err != nil {
			return err
		}
		part, err := grid.Decompose(d.XCells, d.YCells, d.ZCells, 1, 1, ranks)
		if err != nil {
			return err
		}
		rank := func(c comm.Communicator) error {
			e := part.ExtentOf(c.Rank())
			sub, err := gg.SubExtent(e)
			if err != nil {
				return err
			}
			base := par.NewPool(workers)
			defer base.Close()
			pool := base.WithGrain(1)
			inst, err := core.NewInstance3D(d, sub, pool, c)
			if err != nil {
				return err
			}
			return fn(pinRank{comm: c, step: inst.Step, energy: func() []float64 {
				var v []float64
				for k := 0; k < sub.NZ; k++ {
					for j := 0; j < sub.NY; j++ {
						for i := 0; i < sub.NX; i++ {
							v = append(v, inst.Energy.At(i, j, k))
						}
					}
				}
				return v
			}})
		}
		switch backend {
		case "serial":
			return rank(comm.NewSerial())
		case "hub":
			return comm.Run(part, func(c *comm.RankComm) error { return rank(c) })
		case "tcp":
			return comm.RunTCP(part, rank)
		}
		return fmt.Errorf("unknown backend %q", backend)
	}
	gg, err := grid.NewGrid2D(d.XCells, d.YCells, halo, d.XMin, d.XMax, d.YMin, d.YMax)
	if err != nil {
		return err
	}
	part, err := grid.NewPartition(d.XCells, d.YCells, 1, ranks)
	if err != nil {
		return err
	}
	rank := func(c comm.Communicator) error {
		e := part.ExtentOf(c.Rank())
		sub, err := gg.Sub(e.X0, e.X1, e.Y0, e.Y1)
		if err != nil {
			return err
		}
		base := par.NewPool(workers)
		defer base.Close()
		pool := base.WithGrain(1) // split even these small boxes across the workers
		inst, err := core.NewInstance(d, sub, pool, c)
		if err != nil {
			return err
		}
		return fn(pinRank{comm: c, step: inst.Step, energy: func() []float64 {
			var v []float64
			for k := 0; k < sub.NY; k++ {
				for j := 0; j < sub.NX; j++ {
					v = append(v, inst.Energy.At(j, k))
				}
			}
			return v
		}})
	}
	switch backend {
	case "serial":
		return rank(comm.NewSerial())
	case "hub":
		return comm.Run(part, func(c *comm.RankComm) error { return rank(c) })
	case "tcp":
		return comm.RunTCP(part, rank)
	}
	return fmt.Errorf("unknown backend %q", backend)
}
