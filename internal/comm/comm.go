// Package comm is the distributed-memory communication substrate: the role
// MPI plays in the original TeaLeaf. Three backends implement the same
// Communicator contract:
//
//   - Serial: single-rank; halo exchanges reduce to reflective boundary
//     fills and reductions are identities.
//   - Hub / RankComm: ranks are goroutines in one process; point-to-point
//     halo messages travel over buffered channels and global reductions
//     use a shared generation-counted accumulator (semantically an
//     MPI_Allreduce). This is the reference implementation.
//   - TCP: one process per rank on a real network, speaking the
//     length-prefixed frame protocol in wire.go over per-neighbour
//     persistent connections, with recursive-doubling reductions — the
//     backend that takes the same solver code across actual machines.
//
// Solvers are written against the Communicator interface exactly as
// TeaLeaf's solvers are written against MPI: every deep-halo exchange and
// every dot-product reduction goes through it, so the same solver code
// runs single-rank or multi-rank on any backend, and every communication
// event is recorded in a stats.Trace for the performance model.
package comm

import (
	"fmt"

	"tealeaf/internal/grid"
	"tealeaf/internal/stats"
)

// Communicator is the solver-facing communication interface.
type Communicator interface {
	// Rank returns this communicator's rank id in [0, Size).
	Rank() int
	// Size returns the number of ranks.
	Size() int
	// Exchange refreshes depth halo layers of the given fields: neighbour
	// data across internal boundaries, reflective (zero-flux) mirrors on
	// physical boundaries, with edge and corner halo cells made coherent
	// by the x, y, z phase ordering (no z phase on a flat mesh). depth must
	// not exceed the fields' grid halo.
	Exchange(depth int, fields ...*grid.Field) error
	// Exchange3D is Exchange for fields under the name the 3D solve path
	// has always used.
	Exchange3D(depth int, fields ...*grid.Field3D) error
	// AllReduceSum returns the sum of x over all ranks.
	AllReduceSum(x float64) float64
	// AllReduceSum2 fuses two sums into one reduction (one latency).
	AllReduceSum2(x, y float64) (float64, float64)
	// AllReduceSumN sums each element of vals over all ranks in a single
	// reduction round — the §VII restructuring that lets a fused solver
	// iteration pay one allreduce latency for all of its dot products.
	// The returned slice may alias vals; it never aliases another rank's
	// result, so callers may mutate it freely.
	AllReduceSumN(vals []float64) []float64
	// AllReduceSumNStart begins the same fused reduction split-phase: it
	// posts whatever messages this rank can send without waiting on peers
	// and returns immediately, so the reduction's latency overlaps whatever
	// the caller computes before Finish. It is exactly
	// AllReduceSumNStartTagged with tag 0; the contract below governs both.
	//
	// Contract: several tagged reductions may be in flight per rank at
	// once, but at most one per tag, and every rank must Start the same
	// set of in-flight tags in the same order (tags are matched across
	// ranks, not inferred from arrival order). Between the first Start and
	// the last Finish the caller may run halo exchanges and local compute
	// but no blocking collective (AllReduceSum*, Barrier, or gather);
	// Start may not assume any peer has entered the reduction yet, so it
	// must never block on peer data — all receives belong to Finish.
	// In-flight handles may be Finished in any order; each Finish returns
	// that round's fused sums (the slice may alias vals) and each round
	// counts as the same single reduction round AllReduceSumN would have
	// been.
	//
	// Determinism: every backend folds the ranks' contributions in a
	// fixed, schedule-independent order — the Hub in ascending rank
	// order, TCP along its fixed recursive-doubling schedule — never in
	// arrival order, so for a given backend and rank count the same
	// contributions produce bit-identical sums run to run and regardless
	// of each rank's worker count. (Arrival order hides at 2 ranks
	// because IEEE addition is commutative; at 3+ it is not associative
	// and an arrival-order fold would leak scheduling into the last bits
	// of every dot product.) The blocking AllReduceSum* share the same
	// fold. The two backends' fold orders differ from each other, so
	// bit-reproducibility holds per backend, not across them.
	AllReduceSumNStart(vals []float64) ReduceHandle
	// AllReduceSumNStartTagged is AllReduceSumNStart for one of several
	// concurrently in-flight reduction rounds, distinguished by a small
	// non-negative tag (backends may bound it; [0,16) is always safe).
	// See AllReduceSumNStart for the shared in-flight contract.
	AllReduceSumNStartTagged(tag int, vals []float64) ReduceHandle
	// AllReduceMax returns the maximum of x over all ranks.
	AllReduceMax(x float64) float64
	// Barrier blocks until every rank has entered it.
	Barrier()
	// GatherInterior assembles the ranks' interior blocks into the global
	// field dst on rank 0 (dst may be nil on other ranks). Collective:
	// every rank must call it. Used for output and verification, not in
	// solver inner loops.
	GatherInterior(local *grid.Field, dst *grid.Field) error
	// Physical reports which sides of this rank touch the domain boundary
	// (both z sides of a flat mesh do).
	Physical() grid.Sides
	// Trace returns this rank's communication trace (never nil).
	Trace() *stats.Trace
}

// ReduceHandle is an in-flight split-phase reduction returned by
// AllReduceSumNStart. Finish blocks until every rank's contribution has
// been combined and returns the fused sums; it must be called exactly
// once, from the same goroutine that called Start.
type ReduceHandle interface {
	Finish() []float64
}

// doneHandle is a ReduceHandle whose result is already known at Start
// time: the Serial backend (reductions are identities) and single-rank
// TCP communicators.
type doneHandle []float64

func (h doneHandle) Finish() []float64 { return h }

// Serial is the single-rank communicator: halo exchanges reduce to
// reflective boundary fills and reductions are identities. It still
// records every operation in its trace so single-rank runs produce the
// same instrumentation as distributed ones.
type Serial struct {
	trace stats.Trace
}

// NewSerial returns a fresh single-rank communicator.
func NewSerial() *Serial { return &Serial{} }

// Rank implements Communicator.
func (s *Serial) Rank() int { return 0 }

// Size implements Communicator.
func (s *Serial) Size() int { return 1 }

// Physical implements Communicator: every side is the domain boundary.
func (s *Serial) Physical() grid.Sides { return grid.AllSides }

// Exchange implements Communicator by reflecting every side. It
// validates exactly as the multi-rank exchange does — depth against the
// halo, and a shared grid shape across all fields — so a mixed-shape
// multi-field exchange fails identically single- and multi-rank.
func (s *Serial) Exchange(depth int, fields ...*grid.Field) error {
	if len(fields) == 0 {
		return nil
	}
	if err := checkFields(depth, fields); err != nil {
		return err
	}
	g := fields[0].Grid
	if depth > g.NX || depth > g.NY || (!g.Flat() && depth > g.NZ) {
		// A zero-flux mirror deeper than the domain would read outside the
		// interior — reject it like the multi-rank exchange does for
		// sub-domains thinner than the depth.
		return fmt.Errorf("comm: exchange depth %d exceeds the domain extent %s",
			depth, extentString(g.Flat(), g.NX, g.NY, g.NZ))
	}
	for _, f := range fields {
		f.ReflectHalos(depth)
	}
	s.trace.AddExchange(depth, 0, 0)
	return nil
}

// Exchange3D implements Communicator.
func (s *Serial) Exchange3D(depth int, fields ...*grid.Field3D) error {
	return s.Exchange(depth, asFields(fields)...)
}

// AllReduceSum implements Communicator.
func (s *Serial) AllReduceSum(x float64) float64 {
	s.trace.AddReduction(1)
	return x
}

// AllReduceSum2 implements Communicator.
func (s *Serial) AllReduceSum2(x, y float64) (float64, float64) {
	s.trace.AddReduction(2)
	return x, y
}

// AllReduceSumN implements Communicator.
func (s *Serial) AllReduceSumN(vals []float64) []float64 {
	s.trace.AddReduction(len(vals))
	return vals
}

// AllReduceSumNStart implements Communicator: single-rank, the result is
// ready before Finish.
func (s *Serial) AllReduceSumNStart(vals []float64) ReduceHandle {
	s.trace.AddReduction(len(vals))
	return doneHandle(vals)
}

// AllReduceSumNStartTagged implements Communicator: single-rank, every
// tagged round is an identity ready before Finish, so any number can be
// in flight.
func (s *Serial) AllReduceSumNStartTagged(tag int, vals []float64) ReduceHandle {
	s.trace.AddReduction(len(vals))
	return doneHandle(vals)
}

// AllReduceMax implements Communicator.
func (s *Serial) AllReduceMax(x float64) float64 {
	s.trace.AddReduction(1)
	return x
}

// Barrier implements Communicator.
func (s *Serial) Barrier() {}

// GatherInterior implements Communicator: single-rank, the "gather" is a
// straight interior copy into dst (which must match the local shape).
func (s *Serial) GatherInterior(local *grid.Field, dst *grid.Field) error {
	g := local.Grid
	if dst == nil {
		return fmt.Errorf("comm: rank 0 needs a destination field")
	}
	if dst.Grid.NX != g.NX || dst.Grid.NY != g.NY || dst.Grid.NZ != g.NZ {
		return fmt.Errorf("comm: destination %s does not match global %s",
			extentString(g.Flat(), dst.Grid.NX, dst.Grid.NY, dst.Grid.NZ), extentString(g.Flat(), g.NX, g.NY, g.NZ))
	}
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			copy(dst.Row(j, k, 0, g.NX), local.Row(j, k, 0, g.NX))
		}
	}
	return nil
}

// Trace implements Communicator.
func (s *Serial) Trace() *stats.Trace { return &s.trace }

var _ Communicator = (*Serial)(nil)
