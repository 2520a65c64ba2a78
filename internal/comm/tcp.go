package comm

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"tealeaf/internal/grid"
	"tealeaf/internal/stats"
)

// TCP is the real-network communicator: one OS process per rank, peers
// reached over persistent TCP connections carrying the length-prefixed
// frame protocol in wire.go. It implements the same Communicator contract
// as the goroutine Hub — two-phase (2D) / three-phase (3D) corner-correct
// halo exchanges, fused multi-value reductions, interior gathers and a
// barrier — so the solver stack is byte-for-byte unaware of which fabric
// it runs on; the Hub is the in-process reference, TCP takes the same
// solve across actual machines.
//
// Connections are created lazily on first use and kept for the life of
// the communicator: a halo exchange only ever touches grid neighbours, a
// recursive-doubling reduction touches the log₂(P) butterfly partners,
// and gathers touch rank 0. For each pair the lower rank dials and the
// higher rank accepts, so exactly one connection exists per pair and both
// ends agree on it without coordination.
//
// Methods must be called from one goroutine only (the rank's driver), as
// with RankComm. Exchange and the gathers return descriptive errors on
// any transport or protocol failure. The reduction methods have no error
// return in the Communicator contract; a transport failure inside one is
// unrecoverable mid-solve (exactly like a failed MPI_Allreduce), so they
// panic with a *TCPError — RunTCP and Protect convert that into an
// ordinary error at the rank boundary.
type TCP struct {
	rank, size  int
	peers       []string
	part        *grid.Partition
	dialTimeout time.Duration

	ln    net.Listener
	trace stats.Trace

	mu      sync.Mutex
	conns   map[int]*peerConn
	connSig chan struct{} // closed+replaced whenever conns changes
	closed  bool

	acceptDone chan struct{}
}

var _ Communicator = (*TCP)(nil)

// TCPConfig describes one rank of a real-network run.
type TCPConfig struct {
	// Rank is this process's rank in [0, len(Peers)).
	Rank int
	// Peers lists every rank's address as host:port, indexed by rank
	// (including this rank's own entry). Every rank must receive the same
	// list in the same order.
	Peers []string
	// Part is the domain decomposition; its rank count must equal
	// len(Peers). Every peer must be built over the identical partition —
	// the handshake verifies this.
	Part *grid.Partition
	// DialTimeout bounds connection establishment: how long to keep
	// re-dialing a peer that is not up yet, and how long to wait for a
	// lower-ranked peer to dial us. Default 10s.
	DialTimeout time.Duration
	// Listener optionally supplies a pre-bound listener (used by RunTCP so
	// port assignment and listening cannot race). When nil, NewTCP listens
	// on ListenAddr, or on Peers[Rank] if that is empty too.
	Listener net.Listener
	// ListenAddr optionally overrides the listen address, for deployments
	// where the address peers dial (Peers[Rank]) is not bindable locally
	// (NAT, container port mapping). Ignored when Listener is set.
	ListenAddr string
}

// TCPError wraps an unrecoverable transport failure raised inside a
// reduction or barrier (which cannot return errors through the
// Communicator contract). Protect and RunTCP convert it back into an
// ordinary error.
type TCPError struct{ Err error }

func (e *TCPError) Error() string { return e.Err.Error() }
func (e *TCPError) Unwrap() error { return e.Err }

// NewTCP starts one rank of a real-network run: it binds the listener and
// begins accepting peer connections, but does not require any peer to be
// up yet — connections are established lazily, with redials until
// DialTimeout, so ranks may start in any order.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	n := len(cfg.Peers)
	if n == 0 {
		return nil, fmt.Errorf("comm: tcp: empty peer list")
	}
	if cfg.Rank < 0 || cfg.Rank >= n {
		return nil, fmt.Errorf("comm: tcp: rank %d outside [0,%d)", cfg.Rank, n)
	}
	if cfg.Part == nil {
		return nil, fmt.Errorf("comm: tcp: a partition (Part) is required")
	}
	ranks := cfg.Part.Ranks()
	if ranks != n {
		return nil, fmt.Errorf("comm: tcp: partition has %d ranks but the peer list has %d entries", ranks, n)
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	t := &TCP{
		rank:        cfg.Rank,
		size:        n,
		peers:       cfg.Peers,
		part:        cfg.Part,
		dialTimeout: cfg.DialTimeout,
		conns:       make(map[int]*peerConn),
		connSig:     make(chan struct{}),
		acceptDone:  make(chan struct{}),
	}
	ln := cfg.Listener
	if ln == nil {
		addr := cfg.ListenAddr
		if addr == "" {
			addr = cfg.Peers[cfg.Rank]
		}
		var err error
		ln, err = net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("comm: tcp rank %d: listen on %s: %w", cfg.Rank, addr, err)
		}
	}
	t.ln = ln
	go t.acceptLoop()
	return t, nil
}

// Rank implements Communicator.
func (t *TCP) Rank() int { return t.rank }

// Size implements Communicator.
func (t *TCP) Size() int { return t.size }

// Trace implements Communicator.
func (t *TCP) Trace() *stats.Trace { return &t.trace }

// Physical implements Communicator.
func (t *TCP) Physical() grid.Sides { return t.part.Physical(t.rank) }

// Close shuts the communicator down gracefully: a Bye frame is flushed on
// every peer connection (so a peer still reading reports "peer shut down"
// rather than a bare reset), then connections and the listener close.
// Safe to call more than once. Callers should reach a synchronisation
// point (the final gather or a barrier) before closing, as with any MPI
// finalize.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]*peerConn, 0, len(t.conns))
	for _, pc := range t.conns {
		conns = append(conns, pc)
	}
	close(t.connSig)
	t.connSig = make(chan struct{})
	t.mu.Unlock()

	err := t.ln.Close()
	<-t.acceptDone
	for _, pc := range conns {
		pc.shutdown()
	}
	return err
}

// peerConn is one persistent connection to a peer rank. The rank's driver
// goroutine is the only reader; writes go through a dedicated writer
// goroutine fed by the out queue, so a send never blocks the driver even
// when both ends of a pair post their halo slabs simultaneously (the same
// deadlock-freedom the Hub gets from buffered mailboxes).
type peerConn struct {
	rank int
	nc   net.Conn
	out  chan []byte
	done chan struct{} // writer exited

	// pending stashes frames that arrived ahead of the one the driver is
	// reading for — the minimal MPI-style message matching that lets a
	// split-phase reduction's butterfly frames interleave with halo
	// exchange slabs on a connection shared by a rank that is both
	// butterfly partner and grid neighbour. Only the driver goroutine
	// touches it (overlapped exchanges hand the connection back before
	// Finish runs), so it needs no lock.
	pending []pendingFrame

	closeOnce sync.Once
}

// pendingFrame is one stashed out-of-order frame.
type pendingFrame struct {
	typ, tag, inst byte
	payload        []byte
}

// maxPendingFrames bounds the stash: legitimate interleavings (one
// in-flight reduction plus one exchange phase) stay in single digits, so
// growth past this is a protocol desync, not reordering.
const maxPendingFrames = 64

func newPeerConn(rank int, nc net.Conn) *peerConn {
	pc := &peerConn{rank: rank, nc: nc, out: make(chan []byte, 16), done: make(chan struct{})}
	go pc.writeLoop()
	return pc
}

func (pc *peerConn) writeLoop() {
	defer close(pc.done)
	for buf := range pc.out {
		if buf == nil { // shutdown sentinel: flush Bye, then close
			_, _ = pc.nc.Write(floatFrame(frameBye, 0, 0, nil))
			_ = pc.nc.Close()
			return
		}
		if _, err := pc.nc.Write(buf); err != nil {
			// Keep draining so senders never block; the failure surfaces
			// at the peer (missing data) and at our next read.
			for range pc.out {
			}
			_ = pc.nc.Close()
			return
		}
	}
	_ = pc.nc.Close()
}

// shutdown asks the writer to flush a Bye and close the socket. The
// write deadline bounds the whole sequence: if the writer is wedged in a
// Write against a partitioned or stalled peer (TCP window full), the
// deadline errors it out, so Close never hangs on a dead network.
func (pc *peerConn) shutdown() {
	pc.closeOnce.Do(func() {
		_ = pc.nc.SetWriteDeadline(time.Now().Add(2 * time.Second))
		pc.out <- nil
		close(pc.out)
	})
	<-pc.done
}

// acceptLoop admits peer connections for the life of the communicator:
// each is handshaken on its own goroutine and registered under the peer's
// rank once verified.
func (t *TCP) acceptLoop() {
	defer close(t.acceptDone)
	for {
		nc, err := t.ln.Accept()
		if err != nil {
			return // listener closed (Close) or fatal; lazy dial waiters time out
		}
		go t.admit(nc)
	}
}

// admit runs the accept side of the handshake: read Hello, verify rank
// and geometry, answer Welcome (or Reject with the reason) and register
// the connection.
func (t *TCP) admit(nc net.Conn) {
	_ = nc.SetDeadline(time.Now().Add(t.dialTimeout))
	typ, _, _, payload, err := readFrame(nc)
	if err != nil {
		_ = nc.Close()
		return
	}
	reject := func(reason string) {
		buf := appendFrameHeader(nil, frameReject, 0, 0, len(reason))
		_, _ = nc.Write(append(buf, reason...))
		_ = nc.Close()
	}
	if typ != frameHello {
		reject(fmt.Sprintf("expected hello frame, got %s", frameTypeName(typ)))
		return
	}
	peer, err := decodeHandshake(payload)
	if err != nil {
		reject(err.Error())
		return
	}
	if err := t.checkGeometry(peer); err != nil {
		reject(err.Error())
		return
	}
	if peer.rank > t.rank {
		reject(fmt.Sprintf("connection direction violation: rank %d must wait for rank %d to dial (lower rank dials)", peer.rank, t.rank))
		return
	}
	// Check for duplicates BEFORE answering Welcome, so a misconfigured
	// second process claiming an already-connected rank reads the reason
	// instead of a successful handshake followed by a confusing EOF.
	t.mu.Lock()
	dup := t.closed || t.conns[peer.rank] != nil
	t.mu.Unlock()
	if dup {
		reject("duplicate or late connection")
		return
	}
	if _, err := nc.Write(t.handshakeFor().encode(frameWelcome)); err != nil {
		_ = nc.Close()
		return
	}
	_ = nc.SetDeadline(time.Time{})

	t.mu.Lock()
	if t.closed || t.conns[peer.rank] != nil {
		// Lost a (misconfiguration-only) race since the pre-check above;
		// the loser's dialer sees the connection close after Welcome.
		t.mu.Unlock()
		_ = nc.Close()
		return
	}
	t.conns[peer.rank] = newPeerConn(peer.rank, nc)
	close(t.connSig)
	t.connSig = make(chan struct{})
	t.mu.Unlock()
}

// conn returns the persistent connection to peer, establishing it on
// first use: the lower rank dials (with redials until the timeout, so
// ranks may start in any order), the higher rank waits for the dial to
// arrive.
func (t *TCP) conn(peer int) (*peerConn, error) {
	if peer == t.rank || peer < 0 || peer >= t.size {
		return nil, fmt.Errorf("comm: tcp rank %d: no connection to rank %d", t.rank, peer)
	}
	t.mu.Lock()
	if pc := t.conns[peer]; pc != nil {
		t.mu.Unlock()
		return pc, nil
	}
	if t.closed {
		t.mu.Unlock()
		return nil, fmt.Errorf("comm: tcp rank %d: communicator closed", t.rank)
	}
	t.mu.Unlock()

	if t.rank < peer {
		return t.dial(peer)
	}
	return t.waitForDial(peer)
}

// dial establishes the connection to a higher-ranked peer, retrying
// refused/unreachable dials until the timeout so process start-up order
// does not matter, then runs the client side of the handshake.
func (t *TCP) dial(peer int) (*peerConn, error) {
	addr := t.peers[peer]
	deadline := time.Now().Add(t.dialTimeout)
	var nc net.Conn
	var err error
	for backoff := 5 * time.Millisecond; ; backoff = min(2*backoff, 200*time.Millisecond) {
		nc, err = net.DialTimeout("tcp", addr, time.Until(deadline))
		if err == nil {
			break
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, fmt.Errorf("comm: tcp rank %d: dialing rank %d at %s: timed out after %v (last error: %w)",
				t.rank, peer, addr, t.dialTimeout, err)
		}
		time.Sleep(backoff)
	}
	fail := func(err error) (*peerConn, error) {
		_ = nc.Close()
		return nil, fmt.Errorf("comm: tcp rank %d: handshake with rank %d at %s: %w", t.rank, peer, addr, err)
	}
	// The handshake gets a fresh budget: a peer that came up just inside
	// the dial window should not fail its Hello/Welcome round-trip on the
	// few milliseconds left of the dial deadline.
	_ = nc.SetDeadline(time.Now().Add(t.dialTimeout))
	if _, err := nc.Write(t.handshakeFor().encode(frameHello)); err != nil {
		return fail(err)
	}
	typ, _, _, payload, err := readFrame(nc)
	if err != nil {
		return fail(err)
	}
	switch typ {
	case frameWelcome:
	case frameReject:
		return fail(fmt.Errorf("rejected by peer: %s", payload))
	default:
		return fail(fmt.Errorf("expected welcome frame, got %s", frameTypeName(typ)))
	}
	hs, err := decodeHandshake(payload)
	if err != nil {
		return fail(err)
	}
	if hs.rank != peer {
		return fail(fmt.Errorf("address %s answered as rank %d, expected rank %d (peer list out of order?)", addr, hs.rank, peer))
	}
	if err := t.checkGeometry(hs); err != nil {
		return fail(err)
	}
	_ = nc.SetDeadline(time.Time{})

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		_ = nc.Close()
		return nil, fmt.Errorf("comm: tcp rank %d: communicator closed", t.rank)
	}
	if pc := t.conns[peer]; pc != nil { // lost a race we cannot actually have; be safe
		_ = nc.Close()
		return pc, nil
	}
	pc := newPeerConn(peer, nc)
	t.conns[peer] = pc
	close(t.connSig)
	t.connSig = make(chan struct{})
	return pc, nil
}

// waitForDial blocks until a lower-ranked peer's connection has been
// admitted, or the dial timeout passes.
func (t *TCP) waitForDial(peer int) (*peerConn, error) {
	timer := time.NewTimer(t.dialTimeout)
	defer timer.Stop()
	for {
		t.mu.Lock()
		if pc := t.conns[peer]; pc != nil {
			t.mu.Unlock()
			return pc, nil
		}
		if t.closed {
			t.mu.Unlock()
			return nil, fmt.Errorf("comm: tcp rank %d: communicator closed", t.rank)
		}
		sig := t.connSig
		t.mu.Unlock()
		select {
		case <-sig:
		case <-timer.C:
			return nil, fmt.Errorf("comm: tcp rank %d: timed out after %v waiting for rank %d to connect (is it running, and does its peer list match ours?)",
				t.rank, t.dialTimeout, peer)
		}
	}
}

// send enqueues one frame to peer. The enqueue is decoupled from the
// socket write, so matching send/send+recv/recv sequences between a pair
// cannot deadlock. inst is the reduction-instance byte (zero outside
// frameReduce).
func (t *TCP) send(peer int, typ, tag, inst byte, vals []float64) error {
	// Guard the frame cap on the sender, where the cause is nameable:
	// without this a huge gather block would either trip the receiver's
	// cap with a misleading "corrupt stream?" error or, past 2^29 values,
	// silently wrap the uint32 length prefix and desync the stream.
	if n := 8 * len(vals); n > maxFrameBytes {
		return fmt.Errorf("comm: tcp rank %d: %s message to rank %d is %d bytes, exceeding the %d-byte frame cap (block too large for one frame)",
			t.rank, frameTypeName(typ), peer, n, maxFrameBytes)
	}
	pc, err := t.conn(peer)
	if err != nil {
		return err
	}
	pc.out <- floatFrame(typ, tag, inst, vals)
	return nil
}

// recvFloats reads the next (wantType, wantTag, wantInst) frame from
// peer. A frame of a different type, tag or instance arriving first is
// stashed on the connection and matched by a later read — split-phase
// reductions legitimately put butterfly frames on the wire ahead of the
// exchange slabs the driver reads next, and two tagged reductions in
// flight interleave each other's butterfly steps. A Bye, a transport
// failure, or a stash overflow is a descriptive error.
func (t *TCP) recvFloats(peer int, wantType, wantTag, wantInst byte, op string) ([]float64, error) {
	pc, err := t.conn(peer)
	if err != nil {
		return nil, err
	}
	decode := func(payload []byte) ([]float64, error) {
		vals, err := decodeFloats(payload)
		if err != nil {
			return nil, fmt.Errorf("comm: tcp rank %d: %s frame from rank %d: %w", t.rank, op, peer, err)
		}
		return vals, nil
	}
	for i, f := range pc.pending {
		if f.typ == wantType && f.tag == wantTag && f.inst == wantInst {
			pc.pending = append(pc.pending[:i], pc.pending[i+1:]...)
			return decode(f.payload)
		}
	}
	for {
		typ, tag, inst, payload, err := readFrame(pc.nc)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
				return nil, fmt.Errorf("comm: tcp rank %d: connection to rank %d lost during %s: %w", t.rank, peer, op, err)
			}
			return nil, fmt.Errorf("comm: tcp rank %d: reading from rank %d during %s: %w", t.rank, peer, op, err)
		}
		if typ == frameBye {
			return nil, fmt.Errorf("comm: tcp rank %d: rank %d shut down mid-%s", t.rank, peer, op)
		}
		if typ == wantType && tag == wantTag && inst == wantInst {
			return decode(payload)
		}
		if len(pc.pending) >= maxPendingFrames {
			return nil, fmt.Errorf("comm: tcp rank %d: protocol desync during %s: %d frames stashed from rank %d while waiting for %s (tag %d, instance %d); latest was %s (tag %d, instance %d)",
				t.rank, op, len(pc.pending), peer, frameTypeName(wantType), wantTag, wantInst, frameTypeName(typ), tag, inst)
		}
		pc.pending = append(pc.pending, pendingFrame{typ: typ, tag: tag, inst: inst, payload: payload})
	}
}

// tcpSlabs carries exchange slabs over the peer connections; it is the
// TCP backend's slabTransport for the shared exchange core.
type tcpSlabs struct{ t *TCP }

func (s tcpSlabs) sendSlab(to int, side grid.Side, msg []float64) error {
	return s.t.send(to, frameExchange, byte(side), 0, msg)
}

func (s tcpSlabs) recvSlab(from int, side grid.Side, wantLen int) ([]float64, error) {
	msg, err := s.t.recvFloats(from, frameExchange, byte(side), 0, "exchange")
	if err != nil {
		return nil, err
	}
	if len(msg) != wantLen {
		return nil, fmt.Errorf("comm: tcp rank %d: exchange slab from rank %d has %d values, want %d (mismatched field sets or grid shapes across ranks?)",
			s.t.rank, from, len(msg), wantLen)
	}
	return msg, nil
}

// Exchange implements Communicator over the wire. The phased
// corner-correct core (validation, reflect/pack/send/recv/unpack) is
// literally the Hub's — shared in exchange.go — so the two backends are
// bit-identical by construction; only the slab transport differs.
func (t *TCP) Exchange(depth int, fields ...*grid.Field) error {
	if len(fields) == 0 {
		return nil
	}
	messages, bytes, err := exchange(tcpSlabs{t}, t.part, t.rank, depth, fields)
	if err != nil {
		return err
	}
	t.trace.AddExchange(depth, messages, bytes)
	return nil
}

// Exchange3D implements Communicator.
func (t *TCP) Exchange3D(depth int, fields ...*grid.Field3D) error {
	return t.Exchange(depth, asFields(fields)...)
}

// tcpReduceState is one in-flight reduction: startReduce posts the sends
// that need no peer data, finishReduce receives and completes the
// butterfly. The blocking reduce is start immediately followed by finish.
type tcpReduceState struct {
	op   reduceOp
	inst byte      // reduction-instance byte: the caller-level tag
	vals []float64 // caller's slice; the result is copied back into it
	acc  []float64 // private accumulator for butterfly ranks
	p2   int       // largest power of two ≤ size
	rem  int       // size − p2 (ranks folded in by the pre/post step)
	// sentRounds counts the butterfly rounds whose send was already
	// posted by startReduce (0 or 1); finishReduce posts the rest.
	sentRounds int
}

func (t *TCP) combine(op reduceOp, acc, other []float64) error {
	if len(other) != len(acc) {
		return fmt.Errorf("comm: tcp rank %d: reduction value-count mismatch: we contributed %d values, a peer contributed %d (every rank must pass the same number of values to each reduction)",
			t.rank, len(acc), len(other))
	}
	for i, v := range other {
		switch op {
		case opSum:
			acc[i] += v
		case opMax:
			if v > acc[i] {
				acc[i] = v
			}
		}
	}
	return nil
}

// startReduce posts this rank's opening sends of the recursive-doubling
// butterfly — everything it can put on the wire without waiting on a
// peer. Fold-in ranks (≥ p2) post their whole contribution; butterfly
// ranks outside the fold-in window post their round-0 exchange (send is
// an enqueue to the writer goroutine, so this never blocks); ranks that
// must first receive a folded contribution post nothing and do all their
// work in finishReduce. send serialises the frame at enqueue time, so
// later mutation of acc cannot corrupt a posted frame.
func (t *TCP) startReduce(op reduceOp, inst byte, vals []float64) (*tcpReduceState, error) {
	st := &tcpReduceState{op: op, inst: inst, vals: vals, p2: 1}
	for st.p2*2 <= t.size {
		st.p2 *= 2
	}
	st.rem = t.size - st.p2
	if t.rank >= st.p2 {
		return st, t.send(t.rank-st.p2, frameReduce, tagReduceFold, inst, vals)
	}
	st.acc = append(make([]float64, 0, len(vals)), vals...)
	if t.rank < st.rem || st.p2 == 1 {
		return st, nil
	}
	if err := t.send(t.rank^1, frameReduce, 0, inst, st.acc); err != nil {
		return nil, err
	}
	st.sentRounds = 1
	return st, nil
}

// finishReduce completes the butterfly begun by startReduce: fold-in
// ranks receive the finished result; butterfly ranks run the remaining
// rounds (receiving round 0 from a partner whose send was already posted
// at its own start) and send results back to their fold-in partners.
// Round tags catch schedule desync.
func (t *TCP) finishReduce(st *tcpReduceState) ([]float64, error) {
	vals := st.vals
	if t.rank >= st.p2 {
		res, err := t.recvFloats(t.rank-st.p2, frameReduce, tagReduceResult, st.inst, "reduction")
		if err != nil {
			return nil, err
		}
		if len(res) != len(vals) {
			return nil, fmt.Errorf("comm: tcp rank %d: reduction result has %d values, want %d", t.rank, len(res), len(vals))
		}
		copy(vals, res)
		return vals, nil
	}
	acc := st.acc
	if t.rank < st.rem {
		other, err := t.recvFloats(t.rank+st.p2, frameReduce, tagReduceFold, st.inst, "reduction")
		if err != nil {
			return nil, err
		}
		if err := t.combine(st.op, acc, other); err != nil {
			return nil, err
		}
	}
	round := 0
	for mask := 1; mask < st.p2; mask <<= 1 {
		partner := t.rank ^ mask
		if round >= st.sentRounds {
			if err := t.send(partner, frameReduce, byte(round), st.inst, acc); err != nil {
				return nil, err
			}
		}
		other, err := t.recvFloats(partner, frameReduce, byte(round), st.inst, "reduction")
		if err != nil {
			return nil, err
		}
		if err := t.combine(st.op, acc, other); err != nil {
			return nil, err
		}
		round++
	}
	if t.rank < st.rem {
		if err := t.send(t.rank+st.p2, frameReduce, tagReduceResult, st.inst, acc); err != nil {
			return nil, err
		}
	}
	copy(vals, acc)
	return vals, nil
}

// reduce runs one fused allreduce over all ranks: log₂(P) rounds for
// power-of-two rank counts; otherwise the trailing ranks fold their
// contribution into a partner first and receive the result back after the
// butterfly (the classic Rabenseifner pre/post step). It is literally
// startReduce followed by finishReduce, so the blocking and split-phase
// paths share one schedule by construction.
func (t *TCP) reduce(op reduceOp, vals []float64) ([]float64, error) {
	if t.size == 1 {
		return vals, nil
	}
	st, err := t.startReduce(op, 0, vals)
	if err != nil {
		return nil, err
	}
	return t.finishReduce(st)
}

// mustReduce adapts reduce to the error-free reduction contract: a
// transport failure mid-collective is unrecoverable (the solve cannot
// proceed with partial sums), so it panics with a *TCPError that Protect
// and RunTCP convert back into an error at the rank boundary.
func (t *TCP) mustReduce(op reduceOp, vals []float64) []float64 {
	res, err := t.reduce(op, vals)
	if err != nil {
		panic(&TCPError{Err: err})
	}
	return res
}

// AllReduceSum implements Communicator.
func (t *TCP) AllReduceSum(x float64) float64 {
	t.trace.AddReduction(1)
	return t.mustReduce(opSum, []float64{x})[0]
}

// AllReduceSum2 implements Communicator: two sums, one reduction latency.
func (t *TCP) AllReduceSum2(x, y float64) (float64, float64) {
	t.trace.AddReduction(2)
	r := t.mustReduce(opSum, []float64{x, y})
	return r[0], r[1]
}

// AllReduceSumN implements Communicator: len(vals) sums, one reduction
// latency (one butterfly, every round carrying all the values).
func (t *TCP) AllReduceSumN(vals []float64) []float64 {
	t.trace.AddReduction(len(vals))
	return t.mustReduce(opSum, vals)
}

// AllReduceSumNStart implements Communicator split-phase: the opening
// butterfly sends go on the wire immediately (enqueued to the writer
// goroutines, never blocking on a peer), and Finish performs the receives
// and remaining rounds — so the reduction's wire latency overlaps
// whatever the caller computes in between. Transport failures panic with
// a *TCPError exactly as the blocking reductions do.
func (t *TCP) AllReduceSumNStart(vals []float64) ReduceHandle {
	return t.AllReduceSumNStartTagged(0, vals)
}

// AllReduceSumNStartTagged implements Communicator: the tag travels in
// every butterfly frame's reduction-instance byte, so the steps of
// distinct in-flight rounds match only their own round's frames and any
// number of tagged reductions (one per tag) can overlap on the same peer
// connections. The wire carries one byte, so tags must be in [0,256).
func (t *TCP) AllReduceSumNStartTagged(tag int, vals []float64) ReduceHandle {
	if tag < 0 || tag > 255 {
		panic(fmt.Sprintf("comm: tcp rank %d: reduction tag %d outside [0,256)", t.rank, tag))
	}
	t.trace.AddReduction(len(vals))
	if t.size == 1 {
		return doneHandle(vals)
	}
	st, err := t.startReduce(opSum, byte(tag), vals)
	if err != nil {
		panic(&TCPError{Err: err})
	}
	return &tcpReduceHandle{t: t, st: st}
}

// tcpReduceHandle is the TCP backend's in-flight split-phase reduction.
type tcpReduceHandle struct {
	t  *TCP
	st *tcpReduceState
}

func (h *tcpReduceHandle) Finish() []float64 {
	res, err := h.t.finishReduce(h.st)
	if err != nil {
		panic(&TCPError{Err: err})
	}
	return res
}

// AllReduceMax implements Communicator.
func (t *TCP) AllReduceMax(x float64) float64 {
	t.trace.AddReduction(1)
	return t.mustReduce(opMax, []float64{x})[0]
}

// Barrier implements Communicator as a zero-width reduction: every rank
// completes the butterfly, hence every rank has entered it.
func (t *TCP) Barrier() { t.mustReduce(opSum, nil) }

// Protect runs fn and converts a *TCPError panic (an unrecoverable
// transport failure inside a reduction or barrier) into an ordinary
// error, so single-rank drivers get the same error-return behaviour
// RunTCP gives its rank goroutines.
func (t *TCP) Protect(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if te, ok := r.(*TCPError); ok {
				err = te.Err
				return
			}
			panic(r)
		}
	}()
	return fn()
}

// GatherInterior implements Communicator: every rank streams its interior
// block to rank 0 over its persistent connection; rank 0 assembles them
// into dst by partition extent. The trailing barrier keeps consecutive
// gathers from interleaving, exactly as in the Hub.
func (t *TCP) GatherInterior(local *grid.Field, dst *grid.Field) error {
	if err := checkLocal(t.part, t.rank, local); err != nil {
		return err
	}
	in := local.Grid.Interior()
	if t.rank != 0 {
		if err := t.send(0, frameGather, 0, 0, pack([]*grid.Field{local}, in)); err != nil {
			return err
		}
		return t.Protect(func() error { t.Barrier(); return nil })
	}
	err := checkDst(t.part, dst)
	if err == nil {
		unpack([]*grid.Field{dst}, pack([]*grid.Field{local}, in), extentBox(t.part.ExtentOf(0)))
	}
	// Drain every peer's block even on error, so the streams stay in sync
	// for the barrier and whatever follows.
	for r := 1; r < t.size; r++ {
		re := t.part.ExtentOf(r)
		data, rerr := t.recvFloats(r, frameGather, 0, 0, "gather")
		if rerr != nil {
			return rerr
		}
		if len(data) != re.Cells() {
			return fmt.Errorf("comm: tcp rank 0: gather block from rank %d has %d values, want %d", r, len(data), re.Cells())
		}
		if err == nil {
			unpack([]*grid.Field{dst}, data, extentBox(re))
		}
	}
	if berr := t.Protect(func() error { t.Barrier(); return nil }); berr != nil {
		return berr
	}
	return err
}

// RunTCP launches fn on every rank of the partition, each rank backed by
// its own real TCP communicator over loopback listeners — the in-process
// `mpirun` of the TCP backend, and the harness the Hub-equivalence tests
// drive. A *TCPError panic inside fn (a failed reduction) is converted to
// that rank's error; the returned error is the first non-nil by rank.
func RunTCP(part *grid.Partition, fn func(c Communicator) error) error {
	n := part.Ranks()
	lns := make([]net.Listener, n)
	peers := make([]string, n)
	for r := 0; r < n; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:r] {
				_ = l.Close()
			}
			return fmt.Errorf("comm: tcp: listen for rank %d: %w", r, err)
		}
		lns[r] = ln
		peers[r] = ln.Addr().String()
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, err := NewTCP(TCPConfig{
				Rank: rank, Peers: peers, Part: part, Listener: lns[rank],
			})
			if err != nil {
				errs[rank] = err
				return
			}
			defer c.Close()
			errs[rank] = c.Protect(func() error { return fn(c) })
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
