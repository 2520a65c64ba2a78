package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"tealeaf/internal/deck"
	"tealeaf/internal/stats"
)

// The bit-exact pin: a table of small decks spanning both dimensionalities,
// every solver and CG engine, the deep-halo and deflated paths,
// and the Serial, Hub and TCP backends, each recorded in testdata/pin.json
// as, per rank, the SHA-256 of the final energy interior's bits, the
// outer and inner iterations of every step, the resolved solver plan and
// every communication-trace counter. Any change that moves one bit of one
// iterate, one iteration count or one exchange fails it. Regenerate with
//
//	go test ./internal/core -run TestBitExactPin -update-pin
//
// only when a change is meant to alter the numerics.

var updatePin = flag.Bool("update-pin", false, "rewrite testdata/pin.json from the current code")

// pinCase is one deck of the table and the layout it runs on.
type pinCase struct {
	name    string
	dims    int
	backend string // serial | hub | tcp
	ranks   int
	workers int
	tune    func(d *deck.Deck)
}

// pinRankOut is what one rank of a pinned run produced.
type pinRankOut struct {
	EnergySHA string      `json:"energy_sha256"`
	Outer     []int       `json:"outer"`
	Inner     []int       `json:"inner"`
	Plan      string      `json:"plan"`
	Trace     stats.Trace `json:"trace"`
}

const pinSteps = 2

// pinDeck is the small two-dimensional base deck: a dense cold background
// with a hot rectangle, a low-density disc and a hot point, on a
// non-square mesh so an axis mix-up cannot cancel out.
func pinDeck() *deck.Deck {
	d := deck.Default()
	d.XCells, d.YCells = 24, 20
	d.XMin, d.XMax, d.YMin, d.YMax = 0, 10, 0, 10
	d.InitialTimestep = 0.004
	d.EndStep = pinSteps
	d.EndTime = pinSteps * d.InitialTimestep
	d.Eps = 1e-10
	d.States = []deck.State{
		{Index: 1, Density: 100, Energy: 0.0001},
		{Index: 2, Density: 0.1, Energy: 25, Geometry: deck.GeomRectangle,
			XMin: 0, XMax: 3, YMin: 1, YMax: 4, ZMin: 1, ZMax: 5},
		{Index: 3, Density: 1, Energy: 5, Geometry: deck.GeomCircle,
			CX: 6.5, CY: 6, CZ: 4, Radius: 2},
		{Index: 4, Density: 10, Energy: 40, Geometry: deck.GeomPoint,
			CX: 8.1, CY: 2.2, CZ: 6.3},
	}
	return d
}

// pinDeck3D extrudes pinDeck into a 10×12×8 box.
func pinDeck3D() *deck.Deck {
	d := pinDeck()
	d.Dims = 3
	d.XCells, d.YCells, d.ZCells = 10, 12, 8
	d.ZMin, d.ZMax = 0, 10
	return d
}

func pinCases() []pinCase {
	solvers := []struct {
		name string
		tune func(d *deck.Deck)
	}{
		{"cg-fused", func(d *deck.Deck) { d.Solver = "cg" }},
		{"cg-pipelined", func(d *deck.Deck) { d.Solver, d.Pipelined, d.Precond = "cg", true, "jac_diag" }},
		{"cg-jac-block", func(d *deck.Deck) { d.Solver, d.Precond = "cg", "jac_block" }},
		// A short eigenvalue bootstrap leaves the Chebyshev and PPCG phases
		// work to do.
		{"ppcg-depth1", func(d *deck.Deck) { d.Solver, d.Precond, d.InnerSteps, d.EigenCGIters = "ppcg", "jac_diag", 6, 4 }},
		{"ppcg-depth3", func(d *deck.Deck) {
			d.Solver, d.Precond, d.InnerSteps, d.EigenCGIters, d.HaloDepth = "ppcg", "jac_diag", 6, 4, 3
		}},
		{"chebyshev", func(d *deck.Deck) { d.Solver, d.Precond, d.EigenCGIters = "chebyshev", "jac_diag", 4 }},
		{"jacobi", func(d *deck.Deck) { d.Solver, d.Eps, d.MaxIters = "jacobi", 1e-6, 20000 }},
	}
	deflated := func(solver string) func(d *deck.Deck) {
		return func(d *deck.Deck) {
			d.Solver, d.UseDeflation, d.DeflationBlocks = solver, true, 4
			d.InitialTimestep, d.EndTime = 0.4, 0.8
		}
	}
	var cs []pinCase
	for _, dims := range []int{2, 3} {
		for _, s := range solvers {
			for _, ranks := range []int{1, 2} {
				backend := "serial"
				if ranks == 2 {
					backend = "hub"
				}
				cs = append(cs, pinCase{name: fmt.Sprintf("%dd/%s/%s", dims, s.name, backend),
					dims: dims, backend: backend, ranks: ranks, workers: 1, tune: s.tune})
			}
		}
		cs = append(cs,
			pinCase{name: fmt.Sprintf("%dd/cg-fused/tcp", dims), dims: dims, backend: "tcp", ranks: 2,
				workers: 1, tune: solvers[0].tune},
			pinCase{name: fmt.Sprintf("%dd/ppcg-depth3/tcp", dims), dims: dims, backend: "tcp", ranks: 2,
				workers: 1, tune: solvers[4].tune},
			pinCase{name: fmt.Sprintf("%dd/cg-deflated/serial", dims), dims: dims, backend: "serial", ranks: 1,
				workers: 1, tune: deflated("cg")},
			pinCase{name: fmt.Sprintf("%dd/ppcg-deflated/hub", dims), dims: dims, backend: "hub", ranks: 2,
				workers: 1, tune: deflated("ppcg")},
			// Two workers pin the band split of the untiled schedule: along
			// y on a flat box, along z on a 3D one.
			pinCase{name: fmt.Sprintf("%dd/cg-fused/serial-2workers", dims), dims: dims, backend: "serial",
				ranks: 1, workers: 2, tune: solvers[0].tune},
			pinCase{name: fmt.Sprintf("%dd/ppcg-depth3/hub-2workers", dims), dims: dims, backend: "hub",
				ranks: 2, workers: 2, tune: solvers[4].tune},
		)
	}
	cs = append(cs, pinCase{name: "2d/cg-temporal-depth3/serial-2workers", dims: 2, backend: "serial",
		ranks: 1, workers: 2, tune: func(d *deck.Deck) {
			d.Solver, d.Precond, d.HaloDepth = "cg", "jac_diag", 3
			d.Tiling, d.TileY = true, 4
		}})
	return cs
}

// interiorSHA hashes the bits of interior energy values in x-fastest
// order.
func interiorSHA(vals []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runPinCase runs one case's steps on every rank and returns the ranks'
// records in rank order.
func runPinCase(c pinCase) ([]pinRankOut, error) {
	d := pinDeck()
	if c.dims == 3 {
		d = pinDeck3D()
	}
	c.tune(d)
	outs := make([]pinRankOut, c.ranks)
	var mu sync.Mutex
	err := runPinRanks(d, c.backend, c.ranks, c.workers, func(r pinRank) error {
		var o pinRankOut
		for s := 0; s < pinSteps; s++ {
			res, err := r.step()
			if err != nil {
				return err
			}
			o.Outer = append(o.Outer, res.Iterations)
			o.Inner = append(o.Inner, res.TotalInner)
			o.Plan = res.Plan.String()
		}
		o.EnergySHA = interiorSHA(r.energy())
		o.Trace = *r.comm.Trace()
		mu.Lock()
		outs[r.comm.Rank()] = o
		mu.Unlock()
		return nil
	})
	return outs, err
}

func TestBitExactPin(t *testing.T) {
	path := filepath.Join("testdata", "pin.json")
	got := map[string][]pinRankOut{}
	for _, c := range pinCases() {
		outs, err := runPinCase(c)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[c.name] = outs
	}
	if *updatePin {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]pinRankOut
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("pin has %d cases, the table %d", len(want), len(got))
	}
	for _, c := range pinCases() {
		w, ok := want[c.name]
		if !ok {
			t.Errorf("%s: not in the pin", c.name)
			continue
		}
		g := got[c.name]
		for r := range w {
			if r >= len(g) {
				t.Errorf("%s: rank %d missing", c.name, r)
				continue
			}
			if !reflect.DeepEqual(g[r], w[r]) {
				gb, _ := json.Marshal(g[r])
				wb, _ := json.Marshal(w[r])
				t.Errorf("%s rank %d:\n got  %s\n want %s", c.name, r, gb, wb)
			}
		}
	}
}
