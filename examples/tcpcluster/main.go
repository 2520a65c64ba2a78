// Tcpcluster: run the same decomposed solve over both comm backends — the
// in-process goroutine Hub and the real-network TCP backend (four rank
// communicators speaking the wire protocol over loopback sockets) — and
// show they agree. This is core.RunDistributed's backend selector; the
// solver code is identical either way, which is exactly the design-space
// point: the communication fabric is a configuration, not an
// architecture.
//
// For a real multi-machine run, each rank is its own process instead:
// see `tealeaf -net tcp -rank R -peers ...` and `tealeaf -net launch`.
package main

import (
	"fmt"
	"log"
	"math"

	"tealeaf/internal/core"
	"tealeaf/internal/problem"
)

func main() {
	d := problem.BenchmarkDeck(48)
	d.Solver = "ppcg"
	const steps, px, py = 3, 2, 2

	hub, err := core.RunDistributed(d, px, py, 1, steps, 1)
	if err != nil {
		log.Fatal(err)
	}
	tcp, err := core.RunDistributed(d, px, py, 1, steps, 1, core.WithBackend(core.BackendTCP))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%dx%d ranks, %d steps of %dx%d cells (ppcg)\n", px, py, steps, d.XCells, d.YCells)
	fmt.Printf("hub backend: avg temperature %.9g, internal energy %.9g\n",
		hub.Summary.AvgTemperature, hub.Summary.InternalEnergy)
	fmt.Printf("tcp backend: avg temperature %.9g, internal energy %.9g\n",
		tcp.Summary.AvgTemperature, tcp.Summary.InternalEnergy)

	maxDiff := hub.Energy.MaxDiff(tcp.Energy)
	fmt.Printf("energy-field max diff across backends: %.2e\n", maxDiff)
	if maxDiff > 1e-10 || math.Abs(hub.Summary.AvgTemperature-tcp.Summary.AvgTemperature) > 1e-10 {
		log.Fatal("backends disagree beyond tolerance")
	}
	fmt.Println("backends agree: same solver code, different fabric")
}
