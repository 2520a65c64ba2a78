package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"

	"tealeaf/internal/comm"
	"tealeaf/internal/deflate"
	"tealeaf/internal/grid"
)

// spanKind names what a span covers: a time step, a call into the
// communicator, or a call into the deflation projector.
type spanKind uint8

const (
	spanStep spanKind = iota
	spanExchange
	spanReduce // a blocking reduction or barrier
	spanPost   // split-phase reduction Start
	spanWait   // split-phase reduction Finish
	spanProject
	spanCorrect
)

var spanNames = [...]string{"step", "comm.exchange", "comm.reduce", "comm.reduce_post",
	"comm.reduce_wait", "deflate.project", "deflate.correct"}

// encloses reports whether spans of this kind can have children: steps
// hold comm and deflate spans, deflate spans hold comm spans.
func (k spanKind) encloses() bool { return k == spanStep || k == spanProject || k == spanCorrect }

// span is one recorded interval, in nanoseconds since the run started.
type span struct {
	kind       spanKind
	parent     int32 // index of the enclosing span, -1 at top level
	n          int32 // scalars reduced (reductions only)
	start, end int64
}

// recorder keeps one rank's spans in memory. Spans are opened and closed
// on the rank's goroutine; the mutex only guards against a backend that
// calls the communicator from a helper goroutine.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	stack []int32 // open enclosing spans
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

// begin opens a span and returns its index; on a nil recorder (an
// untraced run) it records nothing.
func (r *recorder) begin(k spanKind, n int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := int32(-1)
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	i := len(r.spans)
	r.spans = append(r.spans, span{kind: k, parent: parent, n: int32(n), start: now})
	if k.encloses() {
		r.stack = append(r.stack, int32(i))
	}
	return i
}

func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].end = now
	if n := len(r.stack); n > 0 && r.stack[n-1] == int32(i) {
		r.stack = r.stack[:n-1]
	}
}

// tracedComm records a span around every exchange and reduction it
// forwards to the wrapped communicator. Everything else, Trace included,
// passes straight through, so the program's own counters are unchanged.
type tracedComm struct {
	comm.Communicator
	rec *recorder
}

func (t *tracedComm) Exchange(depth int, fields ...*grid.Field2D) error {
	s := t.rec.begin(spanExchange, 0)
	defer t.rec.end(s)
	return t.Communicator.Exchange(depth, fields...)
}

func (t *tracedComm) Exchange3D(depth int, fields ...*grid.Field3D) error {
	s := t.rec.begin(spanExchange, 0)
	defer t.rec.end(s)
	return t.Communicator.Exchange3D(depth, fields...)
}

func (t *tracedComm) AllReduceSum(x float64) float64 {
	s := t.rec.begin(spanReduce, 1)
	defer t.rec.end(s)
	return t.Communicator.AllReduceSum(x)
}

func (t *tracedComm) AllReduceSum2(x, y float64) (float64, float64) {
	s := t.rec.begin(spanReduce, 2)
	defer t.rec.end(s)
	return t.Communicator.AllReduceSum2(x, y)
}

func (t *tracedComm) AllReduceSumN(vals []float64) []float64 {
	s := t.rec.begin(spanReduce, len(vals))
	defer t.rec.end(s)
	return t.Communicator.AllReduceSumN(vals)
}

func (t *tracedComm) AllReduceMax(x float64) float64 {
	s := t.rec.begin(spanReduce, 1)
	defer t.rec.end(s)
	return t.Communicator.AllReduceMax(x)
}

func (t *tracedComm) Barrier() {
	s := t.rec.begin(spanReduce, 0)
	defer t.rec.end(s)
	t.Communicator.Barrier()
}

func (t *tracedComm) AllReduceSumNStart(vals []float64) comm.ReduceHandle {
	s := t.rec.begin(spanPost, len(vals))
	defer t.rec.end(s)
	return tracedHandle{t.Communicator.AllReduceSumNStart(vals), t.rec}
}

func (t *tracedComm) AllReduceSumNStartTagged(tag int, vals []float64) comm.ReduceHandle {
	s := t.rec.begin(spanPost, len(vals))
	defer t.rec.end(s)
	return tracedHandle{t.Communicator.AllReduceSumNStartTagged(tag, vals), t.rec}
}

type tracedHandle struct {
	h   comm.ReduceHandle
	rec *recorder
}

func (h tracedHandle) Finish() []float64 {
	s := h.rec.begin(spanWait, 0)
	defer h.rec.end(s)
	return h.h.Finish()
}

// tracedDeflator records a span around every call into the deflation
// projector. It forwards the optional deep-halo and split-phase methods
// too: without them the solver would see a projector that lacks them
// and silently pick a different engine.
type tracedDeflator struct {
	d   *deflate.Deflation
	rec *recorder
}

func (t *tracedDeflator) CoarseCorrect(r, u *grid.Field2D) {
	s := t.rec.begin(spanCorrect, 0)
	defer t.rec.end(s)
	t.d.CoarseCorrect(r, u)
}

func (t *tracedDeflator) ProjectW(w *grid.Field2D) {
	s := t.rec.begin(spanProject, 0)
	defer t.rec.end(s)
	t.d.ProjectW(w)
}

func (t *tracedDeflator) ProjectWBounds(b grid.Bounds, w *grid.Field2D) {
	s := t.rec.begin(spanProject, 0)
	defer t.rec.end(s)
	t.d.ProjectWBounds(b, w)
}

func (t *tracedDeflator) ProjectWBoundsStart(w *grid.Field2D) comm.ReduceHandle {
	s := t.rec.begin(spanProject, 0)
	defer t.rec.end(s)
	return t.d.ProjectWBoundsStart(w)
}

func (t *tracedDeflator) ProjectWBoundsFinish(h comm.ReduceHandle, b grid.Bounds, w *grid.Field2D) {
	s := t.rec.begin(spanProject, 0)
	defer t.rec.end(s)
	t.d.ProjectWBoundsFinish(h, b, w)
}

// rankLayers is one rank's time and counts per layer over the timed
// steps. Self time is a span's duration less the comm spans nested in
// it; sweep self time is what is left of the steps.
type rankLayers struct {
	stepS, stepMaxS            float64
	exchangeS, postS, waitS    float64
	projectSelfS, correctSelfS float64
	sweepSelfS                 float64
	exchanges, rounds, values  int
	projects, corrects         int
}

func layersOf(rec *recorder) rankLayers {
	var l rankLayers
	sp := rec.spans
	inStep := func(i int32) bool {
		for ; i >= 0; i = sp[i].parent {
			if sp[i].kind == spanStep {
				return true
			}
		}
		return false
	}
	for _, s := range sp {
		d := float64(s.end-s.start) / 1e9
		if s.kind != spanStep && !inStep(s.parent) {
			continue // setup, summaries and the benchmark's own barriers
		}
		nestedComm := !s.kind.encloses() && s.parent >= 0
		switch s.kind {
		case spanStep:
			l.stepS += d
			l.stepMaxS = max(l.stepMaxS, d)
		case spanExchange:
			l.exchangeS += d
			l.exchanges++
		case spanReduce:
			l.waitS += d
			l.rounds++
			l.values += int(s.n)
		case spanPost:
			l.postS += d
			l.values += int(s.n)
		case spanWait:
			l.waitS += d
			l.rounds++
		case spanProject:
			l.projectSelfS += d
			l.projects++
		case spanCorrect:
			l.correctSelfS += d
			l.corrects++
		}
		if nestedComm {
			switch sp[s.parent].kind {
			case spanProject:
				l.projectSelfS -= d
			case spanCorrect:
				l.correctSelfS -= d
			}
		}
	}
	l.sweepSelfS = l.stepS - l.commS() - l.projectSelfS - l.correctSelfS
	return l
}

func (l rankLayers) commS() float64 { return l.exchangeS + l.postS + l.waitS }

// writeSpans writes every rank's spans as CSV, one span a line.
func writeSpans(path string, ranks []rankOut) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "rank,index,name,parent,start_ns,end_ns,values")
	for r := range ranks {
		for i, s := range ranks[r].rec.spans {
			fmt.Fprintf(bw, "%d,%d,%s,%d,%d,%d,%d\n", r, i, spanNames[s.kind], s.parent, s.start, s.end, s.n)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
