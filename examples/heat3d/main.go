// Heat3D: the distributed 3D solve path end-to-end — a dims=3 input deck
// solved with PPCG, point-Jacobi preconditioning and depth-2 matrix-powers
// halos over a 2×2×1 goroutine-rank box decomposition, verified against
// the single-rank run. This is the smallest complete use of the 3D API
// (deck → Instance → RunDistributed → summary).
package main

import (
	"fmt"
	"log"

	"tealeaf/internal/core"
	"tealeaf/internal/par"
	"tealeaf/internal/problem"
)

func main() {
	// A 16³ version of the two-state benchmark: dense cold material with
	// a hot, low-density box in one corner; PPCG + jac_diag by default.
	d := problem.BenchmarkDeck3D(16)
	d.HaloDepth = 2 // one depth-2 exchange buys two inner matvecs (§IV-C2)
	const steps = 3

	// Single-rank reference.
	serial, err := core.NewSerial(d, par.NewPool(0))
	if err != nil {
		log.Fatal(err)
	}
	before := serial.Summarise()
	if _, err := serial.Run(steps); err != nil {
		log.Fatal(err)
	}
	after := serial.Summarise()
	fmt.Printf("serial:      avg temperature %.6g -> %.6g, energy drift %.2e\n",
		before.AvgTemperature, after.AvgTemperature,
		(after.InternalEnergy-before.InternalEnergy)/before.InternalEnergy)
	fmt.Printf("serial comm: %s\n", serial.Comm.Trace())

	// The same deck over 2×2×1 goroutine ranks: every face exchange and
	// reduction now crosses the comm layer, same answer.
	dist, err := core.RunDistributed(d, 2, 2, 1, steps, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed: avg temperature %.6g over 4 ranks\n", dist.Summary.AvgTemperature)
	diff := dist.Energy.MaxDiff(serial.Energy)
	fmt.Printf("max |ΔE| distributed vs serial: %.2e\n", diff)
	// CI smoke-runs this example: fail loudly if the rank layer ever
	// stops reproducing the single-rank answer.
	if diff > 1e-8 {
		log.Fatalf("distributed energy diverged from serial by %v", diff)
	}
}
