package propcheck

import (
	"fmt"
	"maps"
	"math"
	"reflect"

	"tealeaf/internal/comm"
	"tealeaf/internal/core"
	"tealeaf/internal/deck"
	"tealeaf/internal/grid"
	"tealeaf/internal/par"
	"tealeaf/internal/solver"
	"tealeaf/internal/stats"
)

// Checker tolerances. The exact-equality checkers (backend at 2 ranks,
// tiled across worker counts) take no tolerance at all: those contracts
// are bit-identity, pinned as such since PRs 4 and 8. The rest are
// relative to the final energy field's magnitude, matching the golden
// tests that established them.
// TolRank and TolHalo are floors, not the whole tolerance: the rank and
// halo checkers compare legs whose iterations follow different FP
// trajectories, so each stops with a different O(eps·κ) unconverged
// error component and the fields can only be expected to agree to a
// multiple of the solve tolerance (see legTol). The floors carry 2×
// slack over the golden 1e-10 contract because fuzz decks at
// eps=1e-12..1e-11 can flip a stop decision by ±1 iteration between
// decompositions and land the fields a final-update apart — observed up
// to 1.4e-10 relative on passing-grade decks.
const (
	TolConserve = 1e-8  // relative internal-energy drift over the run
	TolEngine   = 1e-8  // fused vs classic vs pipelined
	TolRank     = 2e-10 // floor: serial vs 2- and 4-rank decompositions
	TolHalo     = 2e-10 // floor: halo depth 2,3 vs 1
)

// legTol is the tolerance for comparing two converged-but-independent
// solve trajectories of the same deck: the larger of the contract floor
// and mult× the deck's stop tolerance, scaled by the field magnitude.
// The goldens pin 1e-10 at eps=1e-9 on decks with benign spectra;
// across arbitrary decks the stop error is O(eps·κ) with a
// leg-dependent direction, so the spread scales with eps. Rank and halo
// legs share the recurrence structure and differ only in summation
// order (observed spread ≤ ~8·eps → mult 30); engine and tiled-vs-
// untiled legs run structurally different recurrences with nearly
// independent stop errors (observed ≤ ~85·eps → mult 150). Both stay
// sharp invariants — a kernel bug perturbs fields at O(1)·Δ, decades
// above either bound.
func legTol(floor, mult float64, d *deck.Deck, base *runOut) float64 {
	t := floor
	if e := mult * d.Eps; e > t {
		t = e
	}
	return t * maxAbs(base)
}

// runOut is one solve leg's observables: the final energy field, the
// internal energy before and after stepping, the total outer-iteration
// count, and (on the legs that record it) every rank's communication
// trace.
type runOut struct {
	e        *grid.Field
	ie0, ie1 float64
	iters    int
	traces   []stats.Trace
}

// harness runs one deck's checker legs, caching the runs that several
// checkers share (the base serial solve and the 2×1 Hub solve).
type harness struct {
	d       *deck.Deck
	cfg     Config
	base    *runOut
	baseErr error
	hub2    *runOut
	hub2Err error
}

func newHarness(d *deck.Deck, cfg Config) *harness {
	return &harness{d: d, cfg: cfg}
}

// runSerial solves d in-process with the given worker count, applying
// mutate to the solver options before the first step (how the classic
// and pipelined legs are selected without re-parsing the deck). The
// leg name feeds the Tamper fault-injection hook.
func (h *harness) runSerial(d *deck.Deck, leg string, workers int, mutate func(*solver.Options)) (*runOut, error) {
	pool := par.Serial
	if workers > 1 {
		pool = par.NewPool(workers)
		defer pool.Close()
	}
	inst, err := core.NewSerial(d, pool)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", leg, err)
	}
	out := &runOut{ie0: inst.Summarise().InternalEnergy}
	if mutate != nil {
		mutate(inst.Options())
	}
	sum, err := inst.Run(d.Steps())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", leg, err)
	}
	if h.cfg.Tamper != nil {
		h.cfg.Tamper(leg, inst.Energy)
		// Re-summarise so a tampered field also perturbs the conserved
		// quantity — a fault injected into the base leg must trip the
		// conservation checker, not just the field comparisons.
		sum.InternalEnergy = inst.Summarise().InternalEnergy
	}
	out.e = inst.Energy
	out.ie1 = sum.InternalEnergy
	out.iters = sum.TotalIterations
	out.traces = []stats.Trace{copyTrace(inst.Comm.Trace())}
	return out, nil
}

// runDist solves d on a px×py×pz rank decomposition over the given
// backend with one worker per rank, returning the gathered global field
// and every rank's trace.
func (h *harness) runDist(d *deck.Deck, leg string, px, py, pz int, backend core.Backend) (*runOut, error) {
	if d.Dims != 3 {
		pz = 1
	}
	gg, err := core.GlobalGrid(d)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", leg, err)
	}
	part, err := grid.Decompose(gg.NX, gg.NY, gg.NZ, px, py, pz)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", leg, err)
	}
	out := &runOut{traces: make([]stats.Trace, part.Ranks())}
	rank := func(c comm.Communicator) error {
		res, err := core.RunRank(d, part, c, d.Steps(), 1)
		if err != nil {
			return err
		}
		out.traces[c.Rank()] = copyTrace(c.Trace())
		if c.Rank() == 0 {
			out.e, out.ie1, out.iters = res.Energy, res.Summary.InternalEnergy, res.Summary.TotalIterations
		}
		return nil
	}
	switch backend {
	case core.BackendTCP:
		err = comm.RunTCP(part, rank)
	default:
		err = comm.Run(part, func(c *comm.RankComm) error { return rank(c) })
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", leg, err)
	}
	if h.cfg.Tamper != nil {
		h.cfg.Tamper(leg, out.e)
	}
	return out, nil
}

// copyTrace deep-copies a trace (its depth histogram is a map).
func copyTrace(t *stats.Trace) stats.Trace {
	c := *t
	c.ExchangesByDepth = maps.Clone(t.ExchangesByDepth)
	return c
}

// baseRun lazily computes and caches the plain serial solve of the deck
// exactly as written, shared by the finite, conserve and engines
// checkers and by the report's iteration/drift columns.
func (h *harness) baseRun() (*runOut, error) {
	if h.base == nil && h.baseErr == nil {
		h.base, h.baseErr = h.runSerial(h.d, "base", 1, nil)
	}
	return h.base, h.baseErr
}

// hub2Run lazily computes and caches the 2×1(×1) Hub-backend solve,
// shared by the rank-invariance and backend checkers.
func (h *harness) hub2Run() (*runOut, error) {
	if h.hub2 == nil && h.hub2Err == nil {
		h.hub2, h.hub2Err = h.runDist(h.d, "hub2", 2, 1, 1, core.BackendHub)
	}
	return h.hub2, h.hub2Err
}

// maxAbs returns the final field's infinity norm, the scale the relative
// tolerances are anchored to (floored at 1 so near-zero fields do not
// turn roundoff into failures).
func maxAbs(o *runOut) float64 {
	m := 1.0
	eachCell(o.e, func(v float64) { m = math.Max(m, math.Abs(v)) })
	return m
}

// eachCell calls fn on every interior value of f, x fastest.
func eachCell(f *grid.Field, fn func(v float64)) {
	g := f.Grid
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for _, v := range f.Row(j, k, 0, g.NX) {
				fn(v)
			}
		}
	}
}

func maxDiff(a, b *runOut) float64 { return a.e.MaxDiff(b.e) }

// bitDiff counts interior cells whose values differ in any bit, and
// returns the largest absolute difference seen. NaNs compare unequal to
// themselves but the finite checker runs first, so a NaN here is already
// a reported failure.
func bitDiff(a, b *runOut) (cells int, worst float64) {
	var bv []float64
	eachCell(b.e, func(v float64) { bv = append(bv, v) })
	i := 0
	eachCell(a.e, func(va float64) {
		if vb := bv[i]; math.Float64bits(va) != math.Float64bits(vb) {
			cells++
			worst = math.Max(worst, math.Abs(va-vb))
		}
		i++
	})
	return cells, worst
}

func relDrift(o *runOut) float64 {
	scale := math.Abs(o.ie0)
	if scale == 0 {
		scale = 1
	}
	return math.Abs(o.ie1-o.ie0) / scale
}

type checkerDef struct {
	name    string
	applies func(d *deck.Deck) bool
	run     func(h *harness) error
}

// checkers is the fixed-order invariant suite; CheckDeck stops at the
// first failure so the shrinker has a single predicate to preserve.
var checkers = []checkerDef{
	{name: "finite", run: checkFinite},
	{name: "conserve", run: checkConserve},
	{name: "engines", run: checkEngines},
	{name: "rank-invariance", run: checkRankInvariance},
	{name: "backend-bit-equality", run: checkBackendBits},
	{name: "tiled-bit-identity", run: checkTiled},
	{name: "halo-depth",
		applies: func(d *deck.Deck) bool { return d.Precond != "jac_block" },
		run:     checkHaloDepth},
	{name: "temporal-chain",
		applies: func(d *deck.Deck) bool { return d.Solver == "cg" && d.Precond != "jac_block" },
		run:     checkTemporalChain},
	{name: "flat-embedding",
		applies: func(d *deck.Deck) bool { return d.Dims != 3 },
		run:     checkFlatEmbedding},
}

// checkFinite: every interior cell of the final energy field is finite.
func checkFinite(h *harness) error {
	base, err := h.baseRun()
	if err != nil {
		return err
	}
	bad := 0
	eachCell(base.e, func(v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			bad++
		}
	})
	if bad > 0 {
		return fmt.Errorf("final energy field has %d non-finite cells", bad)
	}
	return nil
}

// checkConserve: with reflecting (zero-flux) boundaries the implicit
// step's fluxes telescope, so total internal energy is analytically
// conserved; only solver tolerance and FP roundoff may move it.
func checkConserve(h *harness) error {
	base, err := h.baseRun()
	if err != nil {
		return err
	}
	if drift := relDrift(base); drift > TolConserve {
		return fmt.Errorf("internal energy drifted by %.3e relative (%g -> %g), tol %.0e",
			drift, base.ie0, base.ie1, TolConserve)
	}
	return nil
}

// checkEngines: the fused (default), classic and pipelined solver
// engines agree on the final field. Engines that do not apply to the
// deck's solver/preconditioner fall back (reported in the solve's plan),
// in which case the comparison is trivially exact — also correct.
func checkEngines(h *harness) error {
	base, err := h.baseRun()
	if err != nil {
		return err
	}
	classic, err := h.runSerial(h.d, "classic", 1, func(o *solver.Options) {
		o.Engine = solver.EngineClassic
	})
	if err != nil {
		return err
	}
	piped, err := h.runSerial(h.d, "pipelined", 1, func(o *solver.Options) {
		o.Engine = solver.EnginePipelined
	})
	if err != nil {
		return err
	}
	tol := legTol(TolEngine, 150, h.d, base)
	if diff := maxDiff(base, classic); diff > tol {
		return fmt.Errorf("base vs classic engines differ by %.3e (tol %.3e)", diff, tol)
	}
	if diff := maxDiff(base, piped); diff > tol {
		return fmt.Errorf("base vs pipelined engines differ by %.3e (tol %.3e)", diff, tol)
	}
	return nil
}

// checkRankInvariance: 2- and 4-rank Hub decompositions reproduce the
// serial answer to TolRank relative.
func checkRankInvariance(h *harness) error {
	base, err := h.baseRun()
	if err != nil {
		return err
	}
	r2, err := h.hub2Run()
	if err != nil {
		return err
	}
	r4, err := h.runDist(h.d, "rank2x2", 2, 2, 1, core.BackendHub)
	if err != nil {
		return err
	}
	tol := legTol(TolRank, 150, h.d, base)
	if diff := maxDiff(base, r2); diff > tol {
		return fmt.Errorf("serial vs 2-rank differ by %.3e (tol %.3e)", diff, tol)
	}
	if diff := maxDiff(base, r4); diff > tol {
		return fmt.Errorf("serial vs 4-rank differ by %.3e (tol %.3e)", diff, tol)
	}
	return nil
}

// checkBackendBits: at exactly two ranks the Hub's arrival-order
// reduction sums two partials, and two-term FP addition is commutative —
// so Hub and TCP must agree BIT FOR BIT. (At ≥3 ranks association order
// differs and only the 1e-10 golden contract holds; that regime is
// covered by checkRankInvariance.)
func checkBackendBits(h *harness) error {
	hub, err := h.hub2Run()
	if err != nil {
		return err
	}
	tcp, err := h.runDist(h.d, "tcp2", 2, 1, 1, core.BackendTCP)
	if err != nil {
		return err
	}
	if cells, worst := bitDiff(hub, tcp); cells > 0 {
		return fmt.Errorf("hub vs tcp at 2 ranks differ in %d cells (worst %.3e); expected bit-identical", cells, worst)
	}
	return nil
}

// checkTiled: tiled runs are bit-identical across pool sizes {1,2,4}
// (the tiled scheduler folds reduction partials in fixed tile order) and
// agree with the untiled run to TolEngine relative.
func checkTiled(h *harness) error {
	un := Clone(h.d)
	un.Tiling = false
	un.TileX, un.TileY, un.TileZ = 0, 0, 0
	td := Clone(h.d)
	td.Tiling = true
	// Pin explicit tile edges when the deck leaves them to the
	// auto-tuner: tiny meshes may auto-tune to a single tile, which
	// would make the cross-worker comparison vacuous.
	if td.TileX == 0 {
		td.TileX = maxInt(4, td.XCells/2)
	}
	if td.TileY == 0 {
		td.TileY = maxInt(2, td.YCells/3)
	}
	if td.Dims == 3 && td.TileZ == 0 {
		td.TileZ = maxInt(2, td.ZCells/2)
	}
	untiled, err := h.runSerial(un, "untiled", 1, nil)
	if err != nil {
		return err
	}
	w1, err := h.runSerial(td, "tiled-w1", 1, nil)
	if err != nil {
		return err
	}
	w2, err := h.runSerial(td, "tiled-w2", 2, nil)
	if err != nil {
		return err
	}
	w4, err := h.runSerial(td, "tiled-w4", 4, nil)
	if err != nil {
		return err
	}
	if cells, worst := bitDiff(w1, w2); cells > 0 {
		return fmt.Errorf("tiled 1 vs 2 workers differ in %d cells (worst %.3e); expected bit-identical", cells, worst)
	}
	if cells, worst := bitDiff(w1, w4); cells > 0 {
		return fmt.Errorf("tiled 1 vs 4 workers differ in %d cells (worst %.3e); expected bit-identical", cells, worst)
	}
	tol := legTol(TolEngine, 150, h.d, untiled)
	if diff := maxDiff(untiled, w1); diff > tol {
		return fmt.Errorf("untiled vs tiled differ by %.3e (tol %.3e)", diff, tol)
	}
	return nil
}

// checkHaloDepth: the matrix-powers deep-halo machinery must not change
// the answer — depths 2 and 3 reproduce depth 1 to TolHalo relative.
// (jac_block is depth-incompatible and gated out via applies.)
func checkHaloDepth(h *harness) error {
	mk := func(depth int) *deck.Deck {
		c := Clone(h.d)
		c.HaloDepth = depth
		return c
	}
	d1, err := h.runSerial(mk(1), "halo1", 1, nil)
	if err != nil {
		return err
	}
	d2, err := h.runSerial(mk(2), "halo2", 1, nil)
	if err != nil {
		return err
	}
	d3, err := h.runSerial(mk(3), "halo3", 1, nil)
	if err != nil {
		return err
	}
	tol := legTol(TolHalo, 150, h.d, d1)
	if diff := maxDiff(d1, d2); diff > tol {
		return fmt.Errorf("halo depth 2 vs 1 differ by %.3e (tol %.3e)", diff, tol)
	}
	if diff := maxDiff(d1, d3); diff > tol {
		return fmt.Errorf("halo depth 3 vs 1 differ by %.3e (tol %.3e)", diff, tol)
	}
	return nil
}

// checkTemporalChain: the temporal-blocked chained deep-halo cycle
// (tl_temporal) must be bit-identical to the unchained cycle — same
// iterates, same iteration counts — at chained depths 2 and 3 and at
// every worker count. The chain re-orders sweeps band by band but folds
// its per-tile partials in the same fixed tile order as the unchained
// reducers, so any deviating bit is a scheduler bug, not roundoff.
// (jac_block is depth-incompatible and the chain only exists in the CG
// engines, hence the applies gate.)
func checkTemporalChain(h *harness) error {
	for _, depth := range []int{2, 3} {
		mk := func(temporal bool) *deck.Deck {
			c := Clone(h.d)
			c.HaloDepth = depth
			c.Tiling = true
			// Pin tile edges as checkTiled does, and force band cells small
			// enough that the chain sees several bands on tiny meshes.
			if c.TileX == 0 {
				c.TileX = maxInt(4, c.XCells/2)
			}
			if c.TileY == 0 {
				c.TileY = maxInt(2, c.YCells/3)
			}
			if c.Dims == 3 && c.TileZ == 0 {
				c.TileZ = maxInt(2, c.ZCells/2)
			}
			c.Temporal = temporal
			if temporal {
				c.ChainBands = 5
			}
			return c
		}
		for _, workers := range []int{1, 2, 4} {
			un, err := h.runSerial(mk(false), fmt.Sprintf("temporal-un-d%d-w%d", depth, workers), workers, nil)
			if err != nil {
				return err
			}
			ch, err := h.runSerial(mk(true), fmt.Sprintf("temporal-ch-d%d-w%d", depth, workers), workers, nil)
			if err != nil {
				return err
			}
			if un.iters != ch.iters {
				return fmt.Errorf("depth %d workers %d: chained solve took %d iterations, unchained %d",
					depth, workers, ch.iters, un.iters)
			}
			if cells, worst := bitDiff(un, ch); cells > 0 {
				return fmt.Errorf("depth %d workers %d: chained vs unchained differ in %d cells (worst %.3e); expected bit-identical",
					depth, workers, cells, worst)
			}
		}
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// flatEmbedding returns the dims = 3 deck with one z-cell that embeds the
// 2D deck d: the same mesh as the flat case of the 3D stack, with circle
// and point centres on the single plane and rectangles given an empty
// z-range (so they extrude through it).
func flatEmbedding(d *deck.Deck) *deck.Deck {
	e := Clone(d)
	e.Dims, e.ZCells, e.ZMin, e.ZMax = 3, 1, 0, 1
	for i := range e.States {
		s := &e.States[i]
		s.CZ = 0.5
		s.ZMin, s.ZMax = 0, 0
	}
	return e
}

// checkFlatEmbedding: a 2D deck and its dims = 3, z_cells = 1 embedding
// are the same run — bit-identical energies, the same iteration counts
// and the same trace counters on every rank — single-rank and on a
// 2-rank Hub.
func checkFlatEmbedding(h *harness) error {
	emb := flatEmbedding(h.d)
	legs := []struct {
		name string
		run  func(d *deck.Deck, leg string) (*runOut, error)
	}{
		{"serial", func(d *deck.Deck, leg string) (*runOut, error) { return h.runSerial(d, leg, 1, nil) }},
		{"hub2", func(d *deck.Deck, leg string) (*runOut, error) {
			return h.runDist(d, leg, 2, 1, 1, core.BackendHub)
		}},
	}
	for _, l := range legs {
		flat, err := l.run(h.d, "flat-2d-"+l.name)
		if err != nil {
			return err
		}
		embedded, err := l.run(emb, "flat-3d-"+l.name)
		if err != nil {
			return err
		}
		if cells, worst := bitDiff(flat, embedded); cells > 0 {
			return fmt.Errorf("%s: 2D deck vs its z_cells=1 embedding differ in %d cells (worst %.3e); expected bit-identical",
				l.name, cells, worst)
		}
		if flat.iters != embedded.iters {
			return fmt.Errorf("%s: 2D deck took %d iterations, its z_cells=1 embedding %d", l.name, flat.iters, embedded.iters)
		}
		if !reflect.DeepEqual(flat.traces, embedded.traces) {
			return fmt.Errorf("%s: 2D deck and its z_cells=1 embedding leave different trace counters:\n%+v\n%+v",
				l.name, flat.traces, embedded.traces)
		}
	}
	return nil
}
