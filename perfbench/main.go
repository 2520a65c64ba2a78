// Command perfbench is TeaLeaf's end-to-end benchmark. It runs one
// workload — a paper deck, generated from a seed — from the deck through
// setup and the timed steps to the energy update, checks every run's
// output, and prints the metrics as one JSON line:
//
//	perfbench --workload stiff-deflated-tcp --seed 0 --seconds 20 --trace 0
//
// With --trace 0 it times untraced runs and reports the end-to-end
// metrics (solve_s, setup_s, max_rss_mb). With --trace 1 it alternates
// traced and untraced runs and reports the per-layer metrics, measured
// from outside the program by wrapping the communicator and the
// deflation projector; every traced run must reproduce the untraced one
// bit for bit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"time"

	"tealeaf/internal/deck"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports.
var endToEnd = []metricDef{
	{"solve_s", "s"},
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports. Per-rank values are the
// mean across ranks; .max_rank is the slowest rank.
var perLayer = []metricDef{
	{"sweep.self_s", "s"},
	{"sweep.self_s.max_rank", "s"},
	{"sweep.bytes_computed", "B"},
	{"sweep.gbps_computed", "GB/s"},
	{"sweep.roofline_frac", "ratio"},
	{"comm.exchange_count", "count"},
	{"comm.exchange_bytes", "B"},
	{"comm.exchange_s", "s"},
	{"comm.exchange_s.max_rank", "s"},
	{"comm.reduce_rounds", "count"},
	{"comm.reduce_values", "count"},
	{"comm.reduce_post_s", "s"},
	{"comm.reduce_post_s.max_rank", "s"},
	{"comm.reduce_wait_s", "s"},
	{"comm.reduce_wait_s.max_rank", "s"},
	{"deflate.project_count", "count"},
	{"deflate.project_self_s", "s"},
	{"deflate.project_self_s.max_rank", "s"},
	{"deflate.correct_count", "count"},
	{"deflate.correct_self_s", "s"},
	{"deflate.correct_self_s.max_rank", "s"},
	{"solver.outer_iters", "count"},
	{"solver.inner_iters", "count"},
	{"solver.matvec_cells", "count"},
	{"solver.vector_cells", "count"},
	{"solver.dot_cells", "count"},
	{"solver.precond_cells", "count"},
	{"core.steps", "count"},
	{"core.step_s", "s"},
	{"core.step_s.max", "s"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_s", "s"},
	{"host.triad_gbps", "GB/s"},
	{"host.triad_array_bytes", "B"},
	{"host.llc_bytes", "B"},
	{"host.working_set_ratio", "ratio"},
	{"host.nproc", "count"},
	{"host.gomaxprocs", "count"},
	{"trace.overhead_frac", "ratio"},
}

// options configures one benchmark invocation.
type options struct {
	w       *workload
	mesh    int
	seed    uint64
	budget  time.Duration // keep starting runs until this much has passed
	traced  bool
	tamper  bool   // corrupt every run's output (tests only)
	spanDir string // where a traced run's spans go; "" keeps them in memory only
	log     io.Writer
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench starts runs of the workload while the next one, taking as long
// as the last, would end within the budget (at least one run; in traced
// mode at least an untraced and a traced one), and reports medians over
// the runs that passed every check. A run that errs or fails a check
// counts as failed and contributes no numbers; if no run passes, bench
// returns the counts with an error.
func bench(o options) (*result, error) {
	d, err := deck.ParseString(o.w.deckText(o.mesh, o.seed))
	if err != nil {
		return nil, fmt.Errorf("generated deck: %w", err)
	}
	h := fingerprint()
	var triadGBps, triadBytes float64
	if o.traced {
		triadGBps, triadBytes = triad()
	}

	res := &result{Metrics: map[string]metric{}}
	var ref, lastTraced *runOut
	var solves, setups, tracedSolves []float64
	var layers []map[string]float64
	begin := time.Now()
	var last time.Duration // the previous run's wall time: the next one's estimate
	for i := 0; i == 0 || (o.traced && i == 1) || time.Since(begin)+last <= o.budget; i++ {
		traced := o.traced && i%2 == 1
		res.Attempted++
		debug.FreeOSMemory() // each run starts from a released heap, like a fresh process
		t := time.Now()
		r, err := runOnce(o.w, d, traced, o.tamper)
		last = time.Since(t)
		var bad []string
		var lm map[string]float64
		if err != nil {
			bad = append(bad, err.Error())
		} else {
			bad = checkRun(o.w, o.mesh, o.seed, r)
			if ref != nil {
				if err := sameRun(r, ref); err != nil {
					bad = append(bad, "identity gate: "+err.Error())
				}
			}
			if traced {
				if lm, err = layerMetrics(r, d.Dims, h, triadGBps, triadBytes); err != nil {
					bad = append(bad, err.Error())
				}
			}
		}
		kind := "untraced"
		if traced {
			kind = "traced"
		}
		if len(bad) > 0 {
			res.Failed++
			fmt.Fprintf(o.log, "run %d (%s): FAILED: %v\n", i, kind, bad)
			continue
		}
		fmt.Fprintf(o.log, "run %d (%s): setup %.4fs solve %.4fs iters %v inner %d energy %.17g temperature %.17g\n",
			i, kind, r.setup.Seconds(), r.solve.Seconds(), r.ranks[0].iters, r.ranks[0].inner,
			r.ranks[0].before.InternalEnergy, r.ranks[0].after.AvgTemperature)
		if ref == nil {
			ref = r
		}
		if traced {
			tracedSolves = append(tracedSolves, r.solve.Seconds())
			layers = append(layers, lm)
			lastTraced = r
		} else {
			solves = append(solves, r.solve.Seconds())
			setups = append(setups, r.setup.Seconds())
		}
	}
	res.Correct = res.Failed == 0
	if len(solves) == 0 || (o.traced && len(tracedSolves) == 0) {
		return res, fmt.Errorf("%s: %d of %d runs failed; nothing to report", o.w.name, res.Failed, res.Attempted)
	}

	if !o.traced {
		res.add("solve_s", median(solves))
		res.add("setup_s", median(setups))
		res.add("max_rss_mb", maxRSSMB())
		return res, nil
	}
	for _, m := range perLayer {
		vals := make([]float64, 0, len(layers))
		for _, l := range layers {
			if v, ok := l[m.name]; ok {
				vals = append(vals, v)
			}
		}
		if len(vals) > 0 {
			res.add(m.name, median(vals))
		}
	}
	res.add("trace.overhead_frac", median(tracedSolves)/median(solves)-1)
	if o.spanDir != "" {
		path := filepath.Join(o.spanDir, fmt.Sprintf("spans-%s-seed%d.csv", o.w.name, o.seed))
		if err := writeSpans(path, lastTraced.ranks); err != nil {
			return res, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(o.log, "spans: %s\n", path)
	}
	return res, nil
}

func (r *result) add(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range defs {
			if m.name == name {
				r.Metrics[name] = metric{Value: v, Unit: m.unit}
				return
			}
		}
	}
	panic("perfbench: unregistered metric " + name)
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Field visits per cell the program's counters stand for, for the
// computed byte count: a 5-point (7-point) matvec reads u and the two
// (three) face-coefficient arrays and writes one vector; an AXPY-class
// pass reads two vectors and writes one; a dot reads two; a diagonal
// preconditioner reads the residual and diagonal and writes one.
const (
	visitsMatvec2D = 4
	visitsMatvec3D = 5
	visitsVector   = 3
	visitsDot      = 2
	visitsPrecond  = 3
)

// layerMetrics turns one traced run into the per-layer metrics. It also
// checks the span accounting: sweep self time is what the comm and
// deflate spans leave of the steps, so on every rank the layers add up to
// the summed step time and none may be negative (which would mean spans
// overlapped); and the wrapper must have seen every exchange and
// reduction round the program counted.
func layerMetrics(r *runOut, dims int, h host, triadGBps, triadBytes float64) (map[string]float64, error) {
	m := map[string]float64{}
	nr := float64(len(r.ranks))
	mv := visitsMatvec2D
	if dims == 3 {
		mv = visitsMatvec3D
	}
	maxOf := func(name string, v float64) { m[name] = max(m[name], v) }
	var totalBytes, maxSweep float64
	for rk := range r.ranks {
		ro := &r.ranks[rk]
		l := layersOf(ro.rec)
		t := ro.stepTrace
		if l.sweepSelfS < 0 || l.projectSelfS < 0 || l.correctSelfS < 0 {
			return nil, fmt.Errorf("rank %d: span accounting: negative self time (overlapping spans)", rk)
		}
		if l.exchanges != t.HaloExchanges || l.rounds != t.Reductions {
			return nil, fmt.Errorf("rank %d: wrapper saw %d exchanges and %d reduction rounds, the program counted %d and %d",
				rk, l.exchanges, l.rounds, t.HaloExchanges, t.Reductions)
		}
		bytes := 8 * float64(int64(mv)*t.MatvecCells+visitsVector*t.VectorCells+visitsDot*t.DotCells+visitsPrecond*t.PrecondCells)
		totalBytes += bytes
		maxSweep = max(maxSweep, l.sweepSelfS)
		mean := map[string]float64{
			"sweep.self_s":           l.sweepSelfS,
			"sweep.bytes_computed":   bytes,
			"comm.exchange_count":    float64(l.exchanges),
			"comm.exchange_bytes":    float64(t.HaloBytes),
			"comm.exchange_s":        l.exchangeS,
			"comm.reduce_rounds":     float64(l.rounds),
			"comm.reduce_values":     float64(l.values),
			"comm.reduce_post_s":     l.postS,
			"comm.reduce_wait_s":     l.waitS,
			"deflate.project_count":  float64(l.projects),
			"deflate.project_self_s": l.projectSelfS,
			"deflate.correct_count":  float64(l.corrects),
			"deflate.correct_self_s": l.correctSelfS,
			"solver.matvec_cells":    float64(t.MatvecCells),
			"solver.vector_cells":    float64(t.VectorCells),
			"solver.dot_cells":       float64(t.DotCells),
			"solver.precond_cells":   float64(t.PrecondCells),
			"core.step_s":            l.stepS,
		}
		for k, v := range mean {
			m[k] += v / nr
			if hasMetric(k + ".max_rank") {
				maxOf(k+".max_rank", v)
			}
		}
		maxOf("core.step_s.max", l.stepMaxS)
	}
	var outer int
	for _, it := range r.ranks[0].iters {
		outer += it
	}
	m["solver.outer_iters"] = float64(outer)
	m["solver.inner_iters"] = float64(r.ranks[0].inner)
	m["core.steps"] = float64(len(r.ranks[0].iters))
	if maxSweep > 0 {
		m["sweep.gbps_computed"] = totalBytes / maxSweep / 1e9
		m["sweep.roofline_frac"] = m["sweep.gbps_computed"] / triadGBps
	}
	m["go.alloc_mb"] = float64(r.memAfter.TotalAlloc-r.memBefore.TotalAlloc) / (1 << 20)
	m["go.gc_cycles"] = float64(r.memAfter.NumGC - r.memBefore.NumGC)
	m["go.gc_pause_s"] = float64(r.memAfter.PauseTotalNs-r.memBefore.PauseTotalNs) / 1e9
	m["host.triad_gbps"] = triadGBps
	m["host.triad_array_bytes"] = triadBytes
	m["host.llc_bytes"] = h.llcBytes
	m["host.working_set_ratio"] = float64(r.heapAfterSetup) / h.llcBytes
	m["host.nproc"] = float64(h.nproc)
	m["host.gomaxprocs"] = float64(h.gomaxprocs)
	return m, nil
}

func hasMetric(name string) bool {
	for _, m := range perLayer {
		if m.name == name {
			return true
		}
	}
	return false
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: stiff-deflated-tcp or bench3d-hybrid")
		seed    = flag.Uint64("seed", 0, "workload seed; 0 is the paper deck")
		seconds = flag.Int("seconds", 10, "keep starting runs for this many seconds")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from traced runs, 0 end-to-end metrics")
		out     = flag.String("out", ".bench_build", "directory for the traced run's spans")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload stiff-deflated-tcp|bench3d-hybrid and --trace 0|1")
		os.Exit(2)
	}
	// Every invocation must end within 180 s; a hung rank must not hold
	// the caller past that.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: timed out")
		os.Exit(1)
	})
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o := options{w: w, mesh: w.mesh, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, spanDir: *out, log: os.Stderr}
	h := fingerprint()
	fmt.Printf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s llc_bytes=%.0f\n",
		h.cpu, h.nproc, h.gomaxprocs, h.goVersion, h.llcBytes)
	res, err := bench(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("workload %s seed %d mesh %d: %d runs attempted, %d failed\n", w.name, *seed, w.mesh, res.Attempted, res.Failed)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range defs {
			if v, ok := res.Metrics[m.name]; ok {
				fmt.Printf("  %-34s %14.6g %s\n", m.name, v.Value, v.Unit)
			}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
