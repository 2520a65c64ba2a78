package comm

import (
	"fmt"
	"sync"

	"tealeaf/internal/grid"
	"tealeaf/internal/stats"
)

// Hub owns the shared state of a multi-rank run: the partition, the
// point-to-point mailboxes, and the collective accumulator. Create one
// Hub per distributed solve, obtain one RankComm per rank with Comm, and
// run each rank in its own goroutine.
type Hub struct {
	part *grid.Partition
	// mail[rank][side] delivers messages that arrive at rank from the
	// given direction. Buffered so a rank can post all its sends for a
	// phase before draining its receives.
	mail [][]chan []float64
	coll *collective
	// colls holds the per-tag collectives of tagged split-phase rounds
	// (AllReduceSumNStartTagged): one generation-counted accumulator per
	// tag, created lazily. Tag 0 maps to coll so tagged and untagged
	// rounds on tag 0 share one generation sequence.
	collMu sync.Mutex
	colls  map[int]*collective
	gat    chan gatherMsg
}

// NewHub builds the communication fabric for the given partition.
func NewHub(part *grid.Partition) *Hub {
	n := part.Ranks()
	h := &Hub{
		part: part,
		mail: make([][]chan []float64, n),
		coll: newCollective(n),
		gat:  make(chan gatherMsg, n),
	}
	for r := 0; r < n; r++ {
		h.mail[r] = make([]chan []float64, grid.NumSides)
		for s := range h.mail[r] {
			h.mail[r][s] = make(chan []float64, 2)
		}
	}
	return h
}

// Ranks returns the hub's rank count.
func (h *Hub) Ranks() int { return h.part.Ranks() }

// Partition returns the partition the hub was built for.
func (h *Hub) Partition() *grid.Partition { return h.part }

// Comm returns the communicator endpoint for the given rank.
func (h *Hub) Comm(rank int) *RankComm {
	if rank < 0 || rank >= h.Ranks() {
		panic(fmt.Sprintf("comm: rank %d outside [0,%d)", rank, h.Ranks()))
	}
	return &RankComm{hub: h, rank: rank}
}

// RankComm is one rank's endpoint of a Hub. Methods must be called from
// that rank's goroutine only.
type RankComm struct {
	hub   *Hub
	rank  int
	trace stats.Trace
}

var _ Communicator = (*RankComm)(nil)

// Rank implements Communicator.
func (c *RankComm) Rank() int { return c.rank }

// Size implements Communicator.
func (c *RankComm) Size() int { return c.hub.Ranks() }

// Trace implements Communicator.
func (c *RankComm) Trace() *stats.Trace { return &c.trace }

// Physical implements Communicator.
func (c *RankComm) Physical() grid.Sides { return c.hub.part.Physical(c.rank) }

// hubSlabs carries exchange slabs over the Hub's buffered mailbox
// channels; it is RankComm's slabTransport for the shared exchange core.
type hubSlabs struct{ c *RankComm }

func (h hubSlabs) sendSlab(to int, side grid.Side, msg []float64) error {
	h.c.hub.mail[to][side] <- msg
	return nil
}

func (h hubSlabs) recvSlab(from int, side grid.Side, wantLen int) ([]float64, error) {
	msg := <-h.c.hub.mail[h.c.rank][side]
	if len(msg) != wantLen {
		return nil, fmt.Errorf("comm: rank %d: exchange slab from rank %d has %d values, want %d (mismatched field sets across ranks?)",
			h.c.rank, from, len(msg), wantLen)
	}
	return msg, nil
}

// Exchange implements Communicator with the phased corner-correct
// scheme — exactly TeaLeaf's update_halo ordering. The phase core
// (validation, reflect/pack/send/recv/unpack) is shared with the TCP
// backend in exchange.go; only the slab transport differs.
func (c *RankComm) Exchange(depth int, fields ...*grid.Field) error {
	if len(fields) == 0 {
		return nil
	}
	messages, bytes, err := exchange(hubSlabs{c}, c.hub.part, c.rank, depth, fields)
	if err != nil {
		return err
	}
	c.trace.AddExchange(depth, messages, bytes)
	return nil
}

// Exchange3D implements Communicator.
func (c *RankComm) Exchange3D(depth int, fields ...*grid.Field3D) error {
	return c.Exchange(depth, asFields(fields)...)
}

// AllReduceSum implements Communicator.
func (c *RankComm) AllReduceSum(x float64) float64 {
	c.trace.AddReduction(1)
	return c.hub.coll.reduce(opSum, c.rank, x)[0]
}

// AllReduceSum2 implements Communicator: two sums, one reduction latency.
func (c *RankComm) AllReduceSum2(x, y float64) (float64, float64) {
	c.trace.AddReduction(2)
	r := c.hub.coll.reduce(opSum, c.rank, x, y)
	return r[0], r[1]
}

// AllReduceSumN implements Communicator: len(vals) sums, one reduction
// latency.
func (c *RankComm) AllReduceSumN(vals []float64) []float64 {
	c.trace.AddReduction(len(vals))
	return c.hub.coll.reduce(opSum, c.rank, vals...)
}

// AllReduceSumNStart implements Communicator split-phase: the
// contribution joins the collective's current generation immediately
// (without waiting for the other ranks), and Finish blocks on the
// generation's completion. The Hub deliberately mirrors the TCP
// semantics — Start never waits on a peer, Finish does all the waiting —
// so the two backends cannot drift.
func (c *RankComm) AllReduceSumNStart(vals []float64) ReduceHandle {
	c.trace.AddReduction(len(vals))
	return c.hub.coll.start(opSum, c.rank, vals)
}

// AllReduceSumNStartTagged implements Communicator: each tag gets its own
// generation-counted collective, so several tagged rounds can be in
// flight at once (at most one per tag per rank). Tag 0 is the untagged
// AllReduceSumNStart collective.
func (c *RankComm) AllReduceSumNStartTagged(tag int, vals []float64) ReduceHandle {
	c.trace.AddReduction(len(vals))
	return c.hub.collFor(tag).start(opSum, c.rank, vals)
}

// collFor returns the collective for a reduction tag, creating it on
// first use. Tag 0 aliases the untagged collective by construction.
func (h *Hub) collFor(tag int) *collective {
	if tag == 0 {
		return h.coll
	}
	h.collMu.Lock()
	defer h.collMu.Unlock()
	if h.colls == nil {
		h.colls = make(map[int]*collective)
	}
	coll, ok := h.colls[tag]
	if !ok {
		coll = newCollective(h.Ranks())
		h.colls[tag] = coll
	}
	return coll
}

// AllReduceMax implements Communicator.
func (c *RankComm) AllReduceMax(x float64) float64 {
	c.trace.AddReduction(1)
	return c.hub.coll.reduce(opMax, c.rank, x)[0]
}

// Barrier implements Communicator.
func (c *RankComm) Barrier() { c.hub.coll.reduce(opSum, c.rank) }

// collective is a generation-counted all-reduce accumulator. Every rank
// calls reduce once per generation; the last arrival publishes the result
// and releases the waiters. The published result is stable until every
// rank of the *next* generation has arrived, which cannot happen before
// all waiters of this generation have returned.
//
// Contributions are stashed per rank and folded in ascending RANK order at
// publication — never in arrival order. Arrival order depends on goroutine
// scheduling, so an arrival-order fold makes every ≥3-rank sum a function
// of timing (two-rank sums escape because IEEE addition is commutative,
// which is exactly why the bug hid at small rank counts): the same deck
// would produce different bits run to run and across per-rank worker
// counts, breaking the solver's determinism contract and the temporal
// chain's chained-equals-unchained guarantee.
type collective struct {
	n       int
	mu      sync.Mutex
	cnt     int
	width   int
	contrib [][]float64
	res     []float64
	done    chan struct{}
}

func newCollective(n int) *collective { return &collective{n: n} }

type reduceOp int

const (
	opSum reduceOp = iota
	opMax
)

// reduce combines vals across all ranks and writes the result back into
// this caller's vals slice, returning it. Every rank receives its own
// backing array (never the shared accumulator): AllReduceSumN documents
// that callers may mutate the returned slice, so handing out one shared
// slice would let rank A's mutation corrupt rank B's result.
//
// It is literally start followed by Finish, so the blocking and
// split-phase paths share one generation protocol by construction.
func (c *collective) reduce(op reduceOp, rank int, vals ...float64) []float64 {
	return c.start(op, rank, vals).Finish()
}

// start contributes vals to the collective's current generation without
// waiting for the other ranks — the Hub's half of the split-phase
// contract (Start may not block on peers) — and returns the handle whose
// Finish waits for the generation to complete. The last arrival folds the
// stashed contributions in ascending rank order, publishes the result and
// releases every waiter at start time, so its Finish is free.
func (c *collective) start(op reduceOp, rank int, vals []float64) *collHandle {
	c.mu.Lock()
	if c.cnt == 0 {
		c.width = len(vals)
		if c.contrib == nil {
			c.contrib = make([][]float64, c.n)
		}
		c.done = make(chan struct{})
	} else if len(vals) != c.width {
		c.mu.Unlock()
		panic(fmt.Sprintf("comm: collective value-count mismatch: this rank contributed %d values but the generation started with %d (every rank must pass the same number of values to each reduction)",
			len(vals), c.width))
	}
	c.contrib[rank] = append(c.contrib[rank][:0], vals...)
	c.cnt++
	if c.cnt == c.n {
		c.cnt = 0
		res := make([]float64, c.width)
		copy(res, c.contrib[0])
		for r := 1; r < c.n; r++ {
			for i, v := range c.contrib[r] {
				switch op {
				case opSum:
					res[i] += v
				case opMax:
					if v > res[i] {
						res[i] = v
					}
				}
			}
		}
		c.res = res
		close(c.done)
	}
	done := c.done
	c.mu.Unlock()
	return &collHandle{coll: c, vals: vals, done: done}
}

// collHandle is the Hub's in-flight split-phase reduction. The published
// result (coll.res, a fresh allocation per generation) is stable until
// every rank of the *next* generation has arrived, which — under the
// one-outstanding-reduction-per-rank contract — cannot happen before
// every Finish of this generation has returned.
type collHandle struct {
	coll *collective
	vals []float64
	done chan struct{}
}

func (h *collHandle) Finish() []float64 {
	<-h.done
	copy(h.vals, h.coll.res)
	return h.vals
}

// gatherMsg carries one rank's interior block to rank 0.
type gatherMsg struct {
	extent grid.Extent
	data   []float64 // x fastest, then y, then z
}

// GatherInterior assembles the ranks' interior blocks into the provided
// global field on rank 0 (dst may be nil on other ranks). Collective: every
// rank must call it. Used for output and verification, not in solver inner
// loops.
func (c *RankComm) GatherInterior(local *grid.Field, dst *grid.Field) error {
	p := c.hub.part
	if err := checkLocal(p, c.rank, local); err != nil {
		return err
	}
	ext := p.ExtentOf(c.rank)
	c.hub.gat <- gatherMsg{extent: ext, data: pack([]*grid.Field{local}, local.Grid.Interior())}
	if c.rank != 0 {
		// The trailing barrier keeps consecutive gathers from interleaving:
		// nobody starts the next gather until rank 0 drained this one.
		c.Barrier()
		return nil
	}
	err := checkDst(p, dst)
	// Drain even on error so the other ranks' barrier is released.
	for i := 0; i < c.Size(); i++ {
		m := <-c.hub.gat
		if err == nil {
			unpack([]*grid.Field{dst}, m.data, extentBox(m.extent))
		}
	}
	c.Barrier()
	return err
}

// Run launches fn on every rank of the partition in its own goroutine and
// waits for all of them; the returned error is the first non-nil error by
// rank order. This is the `mpirun` of the package.
func Run(part *grid.Partition, fn func(c *RankComm) error) error {
	h := NewHub(part)
	errs := make([]error, part.Ranks())
	var wg sync.WaitGroup
	for r := 0; r < part.Ranks(); r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = fn(h.Comm(rank))
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
