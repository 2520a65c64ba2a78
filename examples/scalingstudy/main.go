// Scaling study: runs the same problem distributed over increasing
// goroutine-rank counts (real halo exchanges, real reductions), reports
// the measured communication traces that drive the paper's analysis —
// reductions and messages per solve for CG versus CPPCG — and then prices
// the full 4000² workload on the paper's three machines with the scaling
// model (a miniature of Figures 5–7).
package main

import (
	"fmt"
	"log"

	"tealeaf/internal/comm"
	"tealeaf/internal/core"
	"tealeaf/internal/grid"
	"tealeaf/internal/machine"
	"tealeaf/internal/model"
	"tealeaf/internal/par"
	"tealeaf/internal/problem"
)

func main() {
	const mesh = 96
	const steps = 2

	fmt.Println("== Measured: communication per solver on goroutine ranks ==")
	fmt.Printf("%-10s %-8s %-12s %-12s %-12s %-10s\n",
		"solver", "ranks", "reductions", "exchanges", "messages", "iters")
	for _, sName := range []string{"cg", "ppcg"} {
		for _, ranks := range [][2]int{{1, 1}, {2, 2}} {
			d := problem.CrookedPipeDeck(mesh, mesh)
			d.Solver = sName
			d.Eps = 1e-8
			d.HaloDepth = 4
			if sName == "cg" {
				d.HaloDepth = 1
			}

			part := grid.MustPartition(d.XCells, d.YCells, 1, ranks[0], ranks[1], 1)
			gg := grid.MustGrid(d.XCells, d.YCells, 1, core.HaloFor(d), d.XMin, d.XMax, d.YMin, d.YMax, 0, 1)
			var reductions, exchanges, messages, iters int
			err := comm.Run(part, func(c *comm.RankComm) error {
				ext := part.ExtentOf(c.Rank())
				sub, err := gg.Sub(ext.X0, ext.X1, ext.Y0, ext.Y1)
				if err != nil {
					return err
				}
				inst, err := core.NewInstance(d, sub, par.Serial, c)
				if err != nil {
					return err
				}
				sum, err := inst.Run(steps)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					tr := c.Trace()
					reductions = tr.Reductions
					exchanges = tr.HaloExchanges
					messages = tr.HaloMessages
					iters = sum.TotalIterations
				}
				return nil
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-10s %-8d %-12d %-12d %-12d %-10d\n",
				sName, ranks[0]*ranks[1], reductions, exchanges, messages, iters)
		}
	}

	fmt.Println()
	fmt.Println("== Modelled: the 4000^2 x 375-step run on the paper's machines ==")
	cal, err := model.Calibrate([]int{32, 48, 64}, 1, 10)
	if err != nil {
		log.Fatal(err)
	}
	nodes := []int{1, 64, 512, 2048}
	fmt.Printf("%-26s", "configuration")
	for _, n := range nodes {
		fmt.Printf(" %10d", n)
	}
	fmt.Println(" nodes")
	for _, c := range []struct {
		m   machine.Machine
		cfg model.Config
	}{
		{machine.Titan(), model.Config{Kind: model.CG, HaloDepth: 1, Hybrid: true}},
		{machine.Titan(), model.Config{Kind: model.PPCG, HaloDepth: 16, InnerSteps: 10, Hybrid: true}},
		{machine.PizDaint(), model.Config{Kind: model.PPCG, HaloDepth: 16, InnerSteps: 10, Hybrid: true}},
		{machine.Spruce(), model.Config{Kind: model.PPCG, HaloDepth: 1, InnerSteps: 10, Hybrid: false}},
	} {
		w := cal.Workload(c.cfg.Kind, model.FullMesh, model.FullSteps)
		fmt.Printf("%-26s", c.m.Name+" "+c.cfg.Label())
		for _, n := range nodes {
			t, _ := model.TimeToSolution(c.m, c.cfg, w, n)
			fmt.Printf(" %9.1fs", t)
		}
		fmt.Println()
	}
}
