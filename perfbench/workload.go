package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"tealeaf/internal/deck"
	"tealeaf/internal/problem"
)

// workload is one benchmark configuration: a paper deck with its
// overrides, the rank × worker layout it runs on (one rank on
// comm.Serial, more over loopback TCP), and the number of timed steps
// of a run.
type workload struct {
	name string
	why  string
	// mesh is the default cells per side; tests pass a tiny one.
	mesh    int
	steps   int
	ranks   int
	workers int // par workers per rank
	base    func(mesh int) *deck.Deck
	// hot indexes the state the seed moves; shift is its largest offset
	// per axis (x, y, z) in domain units.
	hot   int
	shift [3]float64
}

// The seed perturbs every state's density and energy by at most
// valueJitter (relative) and moves the hot region by at most the
// workload's shift, small enough that the solve stays the paper's.
const valueJitter = 0.02

var workloads = []*workload{
	{
		name: "stiff-deflated-tcp",
		why: "stiff near-steady deck, fused CG with 16x16 subdomain deflation on 2 loopback " +
			"TCP ranks: latency-bound small reductions; the only deflate and TCP workload",
		mesh: 512, steps: 2, ranks: 2, workers: 1,
		base: func(n int) *deck.Deck {
			d := problem.StiffDeck(n)
			d.UseDeflation = true
			d.DeflationBlocks = 16
			return d
		},
		hot: 1, shift: [3]float64{0.02, 0.02, 0},
	},
	{
		name: "bench3d-hybrid",
		why: "3D two-state deck, PPCG with jac_diag on 1 rank x 2 par workers: " +
			"7-point stencil and worker pool, heap about the LLC size, no inter-rank comm",
		mesh: 160, steps: 1, ranks: 1, workers: 2,
		base: problem.BenchmarkDeck3D,
		hot:  1, shift: [3]float64{0.2, 0.2, 0.2},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// deckText generates the workload's deck for a seed as tea.in text. Seed
// 0 is exactly the paper deck; any other seed perturbs the state values
// and the hot region's placement deterministically.
func (w *workload) deckText(mesh int, seed uint64) string {
	d := w.base(mesh)
	d.EndStep = w.steps
	d.EndTime = float64(w.steps) * d.InitialTimestep
	if seed != 0 {
		rng := rand.New(rand.NewPCG(seed, 0x7ea1eaf))
		sym := func() float64 { return 2*rng.Float64() - 1 }
		for i := range d.States {
			s := &d.States[i]
			s.Density *= 1 + valueJitter*sym()
			s.Energy *= 1 + valueJitter*sym()
		}
		h := &d.States[w.hot]
		dx, dy, dz := w.shift[0]*sym(), w.shift[1]*sym(), w.shift[2]*sym()
		h.XMin, h.XMax = h.XMin+dx, h.XMax+dx
		h.YMin, h.YMax = h.YMin+dy, h.YMax+dy
		if d.Dims == 3 {
			h.ZMin, h.ZMax = h.ZMin+dz, h.ZMax+dz
		}
	}
	return d.Format()
}

// pin is a run's reference result at seed 0 on one mesh.
type pin struct {
	internalEnergy float64 // Σρe·V, conserved by every step
	avgTemp        float64 // mesh-average temperature after the steps
	iters          []int   // outer iterations per step
	inner          int     // Chebyshev inner steps over the run
}

// pins holds the seed-0 references, keyed by workload and mesh: the
// default meshes and the tiny ones the tests run.
var pins = map[string]pin{
	"stiff-deflated-tcp@512": {0.15624999999972447, 0.15625000000000674, []int{256, 256}, 0},
	"stiff-deflated-tcp@32":  {0.15624999999999892, 0.15625000000000044, []int{16, 16}, 0},
	"bench3d-hybrid@160":     {19.959999998638189, 0.088209819906901646, []int{29}, 100},
	"bench3d-hybrid@48":      {19.118652343725898, 0.077680008090181343, []int{21}, 20},
}

func pinKey(name string, mesh int) string { return fmt.Sprintf("%s@%d", name, mesh) }

// Relative tolerances of the output checks. Σρe changes only by the
// solver's residual each step. The pinned initial energy depends only on
// the deck and repeats to round-off; the final temperature is pinned to
// what any solve at the decks' eps reproduces, so that a change which
// only reorders floating-point work still passes.
const (
	conserveTol = 1e-9
	energyTol   = 1e-12
	tempTol     = 1e-8
)

// checkRun returns why a finished run's output is wrong, or nothing.
// Every rank's summaries must agree bit for bit, Σρe must be conserved,
// density must be untouched, and at seed 0 the pinned energy,
// temperature and iteration counts must match.
func checkRun(w *workload, mesh int, seed uint64, r *runOut) []string {
	var bad []string
	r0 := &r.ranks[0]
	for i := range r.ranks[1:] {
		ri := &r.ranks[i+1]
		if !sameBits(ri.after, r0.after) || !slices.Equal(ri.iters, r0.iters) || ri.inner != r0.inner {
			bad = append(bad, fmt.Sprintf("rank %d disagrees with rank 0", i+1))
		}
	}
	b, a := r0.before, r0.after
	for _, v := range []float64{a.Mass, a.InternalEnergy, a.AvgTemperature} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			bad = append(bad, "non-finite summary")
		}
	}
	if rel := math.Abs(a.InternalEnergy-b.InternalEnergy) / math.Abs(b.InternalEnergy); !(rel <= conserveTol) {
		bad = append(bad, fmt.Sprintf("internal energy not conserved: relative drift %.3e > %.0e", rel, conserveTol))
	}
	if a.Mass != b.Mass {
		bad = append(bad, "mass changed")
	}
	if seed != 0 {
		return bad
	}
	p, ok := pins[pinKey(w.name, mesh)]
	if !ok {
		return bad
	}
	if rel := math.Abs(b.InternalEnergy-p.internalEnergy) / p.internalEnergy; !(rel <= energyTol) {
		bad = append(bad, fmt.Sprintf("internal energy %.17g, pinned %.17g", b.InternalEnergy, p.internalEnergy))
	}
	if rel := math.Abs(a.AvgTemperature-p.avgTemp) / p.avgTemp; !(rel <= tempTol) {
		bad = append(bad, fmt.Sprintf("average temperature %.17g, pinned %.17g", a.AvgTemperature, p.avgTemp))
	}
	if !slices.Equal(r0.iters, p.iters) || r0.inner != p.inner {
		bad = append(bad, fmt.Sprintf("iterations %v inner %d, pinned %v inner %d", r0.iters, r0.inner, p.iters, p.inner))
	}
	return bad
}
