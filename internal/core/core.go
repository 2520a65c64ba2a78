// Package core is the TeaLeaf application layer: it turns an input deck
// into fields and an operator, runs the implicit time-step loop (one SPD
// solve per step — the stability-limit-free backward-Euler method of §II),
// and produces the field summaries TeaLeaf reports. The same Instance code
// drives a single-rank run (comm.Serial) and each rank of a distributed
// run (comm.RankComm or comm.TCP); RunDistributed wires the latter
// together over a goroutine-per-rank hub by default, or over real
// loopback TCP sockets with WithBackend(BackendTCP). Multi-machine runs
// use one process per rank (cmd/tealeaf -net tcp) around the same
// NewInstance code. A 2D deck and a dims = 3 deck run the same Instance:
// the 2D deck's mesh is the flat case of the 3D one.
package core

import (
	"fmt"
	"math"

	"tealeaf/internal/comm"
	"tealeaf/internal/deck"
	"tealeaf/internal/deflate"
	"tealeaf/internal/grid"
	"tealeaf/internal/machine"
	"tealeaf/internal/par"
	"tealeaf/internal/precond"
	"tealeaf/internal/problem"
	"tealeaf/internal/solver"
	"tealeaf/internal/stencil"
)

// Instance is one rank's view of a TeaLeaf run.
type Instance struct {
	Deck *deck.Deck
	Grid *grid.Grid
	Pool *par.Pool
	Comm comm.Communicator

	Density *grid.Field
	Energy  *grid.Field
	U       *grid.Field // solve variable u = density·energy
	u0      *grid.Field // per-step right-hand side
	Op      *stencil.Operator

	kind    solver.Kind
	opts    solver.Options
	stepNum int
	simTime float64
	dt      float64
}

// Instance3D is an Instance whose fields are addressed with three indices
// (its Energy is a grid.Field3D view of the same storage): the name the
// 3D solve path has always used.
type Instance3D struct {
	*Instance
	Energy *grid.Field3D
}

// engineFor maps the deck's engine key: tl_pipelined selects the
// pipelined CG engine, anything else the default fused one.
func engineFor(d *deck.Deck) solver.Engine {
	if d.Pipelined {
		return solver.EnginePipelined
	}
	return solver.EngineFused
}

// HaloFor returns the grid halo depth a deck requires: at least
// deck.MinHalo, and at least the matrix-powers exchange depth.
func HaloFor(d *deck.Deck) int { return max(deck.MinHalo, d.HaloDepth) }

// GlobalGrid builds the deck's whole mesh: flat for a 2D deck or a dims = 3
// deck with one z-cell, 3D otherwise.
func GlobalGrid(d *deck.Deck) (*grid.Grid, error) {
	if d.Dims == 3 {
		return grid.NewGrid(d.XCells, d.YCells, d.ZCells, HaloFor(d), d.XMin, d.XMax, d.YMin, d.YMax, d.ZMin, d.ZMax)
	}
	return grid.NewGrid2D(d.XCells, d.YCells, HaloFor(d), d.XMin, d.XMax, d.YMin, d.YMax)
}

// zCells is the z extent the host cache model sizes for: 0 on a flat grid.
func zCells(g *grid.Grid) int {
	if g.Flat() {
		return 0
	}
	return g.NZ
}

// tiledPool applies the deck's cache-tiling keys to the rank's thread
// team: explicit tl_tile_* edges pin the shape, and with all three at 0
// the shape is auto-tuned from the host's LLC model. The widest fused
// sweeps co-walk about six arrays per cell in 2D and eight in 3D
// (coefficients, recurrence vectors and the folded diagonal), which is
// what the auto-tuner sizes tiles for.
func tiledPool(d *deck.Deck, pool *par.Pool, g *grid.Grid) *par.Pool {
	if !d.Tiling {
		return pool
	}
	tx, ty, tz := d.TileX, d.TileY, d.TileZ
	if tx == 0 && ty == 0 && tz == 0 {
		fields := 6
		if zCells(g) > 1 {
			fields = 8
		}
		tx, ty, tz = machine.HostDevice().TileFor(g.NX, g.NY, zCells(g), fields)
		if tx == 0 && ty == 0 && tz == 0 {
			return pool // the whole sweep is LLC-resident; tiling buys nothing
		}
	}
	return pool.WithTiles(tx, ty, tz)
}

// chainBandCells resolves tl_chain_bands for the temporal-blocked deep
// solve cycles: an explicit value pins the band height in cells along
// the chain axis, 0 auto-sizes it from the host's LLC model for the
// deck's halo depth — staying 0 (one spanning band) when the working
// set already fits the cache. The chained sweeps co-walk up to eight
// arrays per cell (the pipelined step's recurrence vectors plus the
// folded diagonal), same as the widest 3D tiled sweep.
func chainBandCells(d *deck.Deck, g *grid.Grid) int {
	if !d.Temporal || d.ChainBands > 0 {
		return d.ChainBands
	}
	return machine.HostDevice().ChainBandRows(g.NX, g.NY, zCells(g), 8, HaloFor(d))
}

// NewSerial builds a single-rank instance covering the whole deck domain.
func NewSerial(d *deck.Deck, pool *par.Pool) (*Instance, error) {
	g, err := GlobalGrid(d)
	if err != nil {
		return nil, err
	}
	return NewInstance(d, g, pool, comm.NewSerial())
}

// NewInstance builds one rank's instance on the given (sub-)grid. The grid
// must carry true physical coordinates (grid.Grid.SubExtent does) so state
// painting and coefficients agree across ranks.
func NewInstance(d *deck.Deck, g *grid.Grid, pool *par.Pool, c comm.Communicator) (*Instance, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if pool == nil {
		pool = par.Serial
	}
	pool = tiledPool(d, pool, g)
	inst := &Instance{
		Deck: d, Grid: g, Pool: pool, Comm: c,
		dt:      d.InitialTimestep,
		Density: grid.NewField(g),
		Energy:  grid.NewField(g),
		U:       grid.NewField(g),
		u0:      grid.NewField(g),
	}
	if err := problem.Paint(d.States, inst.Density, inst.Energy); err != nil {
		return nil, err
	}
	// Coefficients need density halos one cell beyond any bounds the
	// solvers compute on: exchange/reflect to the full allocated depth.
	if err := c.Exchange(g.Halo, inst.Density); err != nil {
		return nil, err
	}
	op, err := inst.buildOperator(d.InitialTimestep)
	if err != nil {
		return nil, err
	}
	inst.Op = op

	kind, err := solver.ParseKind(d.Solver)
	if err != nil {
		return nil, err
	}
	inst.kind = kind
	m, err := precond.FromName(d.Precond, pool, op)
	if err != nil {
		return nil, err
	}
	inst.opts = solver.Options{
		Tol:            d.Eps,
		MaxIters:       d.MaxIters,
		Pool:           pool,
		Comm:           c,
		Precond:        m,
		EigenCGIters:   d.EigenCGIters,
		InnerSteps:     d.InnerSteps,
		HaloDepth:      d.HaloDepth,
		Engine:         engineFor(d),
		Temporal:       d.Temporal,
		ChainBandCells: chainBandCells(d, g),
	}
	if d.UseDeflation {
		// tl_use_deflation: build the distributed coarse subdomain
		// projector over this rank's slice of the solve operator (the
		// coarse partition spans the GLOBAL mesh; the constructor is
		// collective) and compose it into the CG or PPCG solve.
		if kind != solver.KindCG && kind != solver.KindPPCG {
			return nil, fmt.Errorf("core: tl_use_deflation composes with tl_use_cg and tl_use_ppcg only (deck selects %s)", kind)
		}
		b := d.DeflationBlocks
		defl, err := deflate.New(pool, c, op, deflGeometry(d, g), deflate.Config{
			BX: b, BY: b, BZ: b, Levels: d.DeflationLevels,
		})
		if err != nil {
			return nil, fmt.Errorf("core: tl_use_deflation: %w", err)
		}
		inst.opts.Deflation = defl
	}
	return inst, nil
}

// NewInstance3D is NewInstance returning the three-index face of the
// instance.
func NewInstance3D(d *deck.Deck, g *grid.Grid, pool *par.Pool, c comm.Communicator) (*Instance3D, error) {
	inst, err := NewInstance(d, g, pool, c)
	if err != nil {
		return nil, err
	}
	return &Instance3D{Instance: inst, Energy: (*grid.Field3D)(inst.Energy)}, nil
}

// buildOperator builds the solve operator A = I + dt·L from the density
// and the deck's coefficient mode, with zero flux on the physical sides.
func (inst *Instance) buildOperator(dt float64) (*stencil.Operator, error) {
	coef := stencil.Conductivity
	if inst.Deck.Coefficient == "recip_density" {
		coef = stencil.RecipConductivity
	}
	return stencil.BuildOperator(inst.Pool, inst.Density, dt, coef, inst.Comm.Physical())
}

// deflGeometry locates a rank's sub-grid inside the deck's global mesh.
// Sub-grids carry true physical coordinates (grid.Grid.SubExtent), so the
// offset is the vertex distance in cell widths, exact up to rounding.
func deflGeometry(d *deck.Deck, g *grid.Grid) deflate.Geometry {
	geom := deflate.Geometry{
		GlobalNX: d.XCells, GlobalNY: d.YCells, GlobalNZ: 1,
		OffsetX: int(math.Round((g.XMin - d.XMin) / g.DX)),
		OffsetY: int(math.Round((g.YMin - d.YMin) / g.DY)),
	}
	if !g.Flat() {
		geom.GlobalNZ = d.ZCells
		geom.OffsetZ = int(math.Round((g.ZMin - d.ZMin) / g.DZ))
	}
	return geom
}

// Options exposes the derived solver options (for harnesses that tweak
// them between steps).
func (inst *Instance) Options() *solver.Options { return &inst.opts }

// Kind returns the solver algorithm the deck selected.
func (inst *Instance) Kind() solver.Kind { return inst.kind }

// Step advances one implicit time step: u⁰ = ρ·e, solve A·u = u⁰, then
// e = u/ρ. Returns the solver result for the step.
func (inst *Instance) Step() (solver.Result, error) {
	problem.EnergyToU(inst.Density, inst.Energy, inst.u0)
	inst.U.CopyFrom(inst.u0) // initial guess: previous energy density
	res, err := solver.Solve(inst.kind, solver.Problem{Op: inst.Op, U: inst.U, RHS: inst.u0}, inst.opts)
	if err != nil {
		return res, fmt.Errorf("core: step %d: %w", inst.stepNum+1, err)
	}
	if !res.Converged {
		return res, fmt.Errorf("core: step %d: solver did not converge (residual %.3e after %d iterations)",
			inst.stepNum+1, res.FinalResidual, res.Iterations)
	}
	problem.UToEnergy(inst.Density, inst.U, inst.Energy)
	inst.stepNum++
	inst.simTime += inst.dt
	return res, nil
}

// SetTimestep changes the implicit time-step size for subsequent Steps.
// The solve operator A = I + dt·div(k·grad) depends on dt, so a changed
// dt rebuilds the operator and preconditioner and re-assembles the
// deflation projector's coarse matrix E = WᵀAW (one reduction round).
// An unchanged dt is a no-op: the operator, factorization and cached E
// all carry over with zero computation and zero communication — which
// is why harnesses stepping at constant dt pay the coarse assembly
// exactly once. Collective when the dt actually changes and deflation
// is configured.
func (inst *Instance) SetTimestep(dt float64) error {
	if dt <= 0 {
		return fmt.Errorf("core: SetTimestep requires dt > 0, got %g", dt)
	}
	if dt == inst.dt {
		return nil
	}
	d := inst.Deck
	op, err := inst.buildOperator(dt)
	if err != nil {
		return fmt.Errorf("core: SetTimestep: %w", err)
	}
	m, err := precond.FromName(d.Precond, inst.Pool, op)
	if err != nil {
		return fmt.Errorf("core: SetTimestep: %w", err)
	}
	if defl, ok := inst.opts.Deflation.(*deflate.Deflation); ok && defl != nil {
		if err := defl.Refresh(op, true); err != nil {
			return fmt.Errorf("core: SetTimestep: %w", err)
		}
	}
	inst.Op = op
	inst.opts.Precond = m
	inst.dt = dt
	return nil
}

// StepCount returns the number of completed steps.
func (inst *Instance) StepCount() int { return inst.stepNum }

// Time returns the simulated time.
func (inst *Instance) Time() float64 { return inst.simTime }

// Summary is TeaLeaf's field summary, globally reduced.
type Summary struct {
	Volume         float64
	Mass           float64
	InternalEnergy float64
	// AvgTemperature is the mesh-average specific energy (temperature at
	// unit heat capacity) — the quantity Fig. 4 tracks against mesh size.
	AvgTemperature float64
	Steps          int
	SimTime        float64
	// TotalIterations and TotalInner accumulate across Run.
	TotalIterations int
	TotalInner      int
	// Plan is the solver plan this rank's last Run step resolved: the
	// engine that ran and every fallback it took.
	Plan solver.Plan
}

// Summarise computes the global field summary (collective: every rank
// must call it).
func (inst *Instance) Summarise() Summary {
	g := inst.Grid
	cellVol := g.CellVolume()
	vol := cellVol * float64(g.Cells())
	var mass, ie, temp float64
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			rho, e := inst.Density.Row(j, k, 0, g.NX), inst.Energy.Row(j, k, 0, g.NX)
			for i := range rho {
				mass += rho[i] * cellVol
				ie += rho[i] * e[i] * cellVol
				// Temperature is the specific energy (unit heat capacity);
				// unlike ρ·e, its mesh average is NOT conserved by
				// diffusion through variable-density material, which is
				// what makes the Fig. 4 convergence study meaningful.
				temp += e[i] * cellVol
			}
		}
	}
	gvol := inst.Comm.AllReduceSum(vol)
	gmass, gie := inst.Comm.AllReduceSum2(mass, ie)
	gtemp := inst.Comm.AllReduceSum(temp)
	return Summary{
		Volume:         gvol,
		Mass:           gmass,
		InternalEnergy: gie,
		AvgTemperature: gtemp / gvol,
		Steps:          inst.stepNum,
		SimTime:        inst.simTime,
	}
}

// Run advances the given number of steps (or the deck's own step count if
// steps <= 0) and returns the final summary.
func (inst *Instance) Run(steps int) (Summary, error) {
	if steps <= 0 {
		steps = inst.Deck.Steps()
	}
	var totalIters, totalInner int
	var plan solver.Plan
	for s := 0; s < steps; s++ {
		res, err := inst.Step()
		if err != nil {
			return Summary{}, err
		}
		totalIters += res.Iterations
		totalInner += res.TotalInner
		plan = res.Plan
	}
	sum := inst.Summarise()
	sum.TotalIterations = totalIters
	sum.TotalInner = totalInner
	sum.Plan = plan
	return sum, nil
}

// DistResult is what RunDistributed hands back: the gathered global
// energy field and the global summary.
type DistResult struct {
	Energy  *grid.Field
	Summary Summary
}

// Backend names a multi-rank communication fabric RunDistributed can run
// over. Both backends drive the identical rank code — the selector only
// changes what carries the halo slabs and reduction scalars.
type Backend string

// The registered comm backends.
const (
	// BackendHub is the in-process reference: ranks are goroutines,
	// messages travel over channels (comm.Hub).
	BackendHub Backend = "hub"
	// BackendTCP runs every rank over real loopback TCP sockets speaking
	// the comm.TCP wire protocol — the single-machine configuration of
	// the real-network backend, used for testing and as the template for
	// multi-machine runs (where each rank is its own process; see
	// cmd/tealeaf -net tcp).
	BackendTCP Backend = "tcp"
)

// DistOption tweaks a RunDistributed call.
type DistOption func(*distConfig)

type distConfig struct {
	backend Backend
}

// WithBackend selects the communication fabric (default BackendHub).
func WithBackend(b Backend) DistOption {
	return func(c *distConfig) { c.backend = b }
}

func applyDistOptions(opts []DistOption) distConfig {
	cfg := distConfig{backend: BackendHub}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// RunRank executes one rank of a distributed run: the communicator must
// span the given partition of the deck's mesh (its Rank selects the
// sub-domain). On rank 0 the returned DistResult carries the gathered
// global energy field; on other ranks Energy is nil. The Summary is
// globally reduced and valid on every rank. This is the per-process entry
// point of a real-network run (cmd/tealeaf -net tcp); RunDistributed
// drives the same code with one goroutine per rank.
func RunRank(d *deck.Deck, part *grid.Partition, c comm.Communicator, steps, workersPerRank int) (*DistResult, error) {
	gg, err := GlobalGrid(d)
	if err != nil {
		return nil, err
	}
	if part.NX != gg.NX || part.NY != gg.NY || part.NZ != gg.NZ {
		return nil, fmt.Errorf("core: partition %s does not match the deck's %s cells",
			shape(part.NX, part.NY, part.NZ), shape(gg.NX, gg.NY, gg.NZ))
	}
	sub, err := gg.SubExtent(part.ExtentOf(c.Rank()))
	if err != nil {
		return nil, err
	}
	pool := par.Serial
	if workersPerRank > 1 {
		pool = par.NewPool(workersPerRank)
	}
	inst, err := NewInstance(d, sub, pool, c)
	if err != nil {
		return nil, err
	}
	sum, err := inst.Run(steps)
	if err != nil {
		return nil, err
	}
	out := &DistResult{Summary: sum}
	if c.Rank() == 0 {
		out.Energy = grid.NewField(gg)
	}
	if err := c.GatherInterior(inst.Energy, out.Energy); err != nil {
		return nil, err
	}
	return out, nil
}

// shape formats a cell extent, in two dimensions when flat.
func shape(nx, ny, nz int) string {
	if nz == 1 {
		return fmt.Sprintf("%dx%d", nx, ny)
	}
	return fmt.Sprintf("%dx%dx%d", nx, ny, nz)
}

// RunDistributed runs the deck for the given number of steps on a
// px×py×pz rank decomposition (pz = 1 for a flat mesh) and gathers the
// final energy field. workersPerRank sizes each rank's thread team (the
// hybrid MPI+OpenMP configuration of §IV-A); 1 reproduces flat MPI. By
// default ranks are goroutines wired through a comm.Hub;
// WithBackend(BackendTCP) runs the same rank code over real loopback TCP
// sockets instead.
func RunDistributed(d *deck.Deck, px, py, pz, steps, workersPerRank int, opts ...DistOption) (*DistResult, error) {
	cfg := applyDistOptions(opts)
	gg, err := GlobalGrid(d)
	if err != nil {
		return nil, err
	}
	part, err := grid.Decompose(gg.NX, gg.NY, gg.NZ, px, py, pz)
	if err != nil {
		return nil, err
	}
	out := &DistResult{}
	rank := func(c comm.Communicator) error {
		res, err := RunRank(d, part, c, steps, workersPerRank)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			*out = *res
		}
		return nil
	}
	switch cfg.backend {
	case BackendTCP:
		err = comm.RunTCP(part, rank)
	case BackendHub:
		err = comm.Run(part, func(c *comm.RankComm) error { return rank(c) })
	default:
		// An unknown backend must not silently run as a hub: callers
		// comparing backends would then compare hub against hub.
		err = fmt.Errorf("core: unknown comm backend %q (have: hub, tcp)", cfg.backend)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
