package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"tealeaf/internal/deck"
)

// tinyMesh runs every workload through the benchmark's own code path in
// well under a second; each has a seed-0 pin, so the pin check runs too.
var tinyMesh = map[string]int{
	"stiff-deflated-tcp": 32,
	"bench3d-hybrid":     48,
}

func tinyOptions(t *testing.T, w *workload, traced bool) options {
	t.Helper()
	mesh, ok := tinyMesh[w.name]
	if !ok {
		t.Fatalf("no tiny mesh for %s", w.name)
	}
	if _, ok := pins[pinKey(w.name, mesh)]; !ok {
		t.Fatalf("no seed-0 pin for %s", pinKey(w.name, mesh))
	}
	return options{w: w, mesh: mesh, traced: traced, log: io.Discard}
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := bench(tinyOptions(t, w, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d runs failed", w.name, traced, res.Failed, res.Attempted)
			}
			want := endToEnd
			if traced {
				want = perLayer
				// The untraced reference and at least one traced run, which
				// the identity gate compared against it.
				if res.Attempted < 2 {
					t.Errorf("%s: traced mode made %d runs, want at least 2", w.name, res.Attempted)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.name, got, m.unit)
				}
			}
		}
	}
}

func TestTracedLayersMatchTheWorkload(t *testing.T) {
	w, _ := workloadByName("stiff-deflated-tcp")
	res, err := bench(tinyOptions(t, w, true))
	if err != nil {
		t.Fatal(err)
	}
	v := func(name string) float64 { return res.Metrics[name].Value }
	if v("deflate.project_count") == 0 || v("deflate.correct_count") == 0 {
		t.Errorf("deflated workload recorded no deflation calls")
	}
	// Fused deflated CG: the scalar round and the coarse round each iteration.
	if v("comm.reduce_rounds") < 2*v("solver.outer_iters") {
		t.Errorf("reduce_rounds %v < 2 × outer_iters %v", v("comm.reduce_rounds"), v("solver.outer_iters"))
	}
	sum := v("sweep.self_s") + v("comm.exchange_s") + v("comm.reduce_post_s") + v("comm.reduce_wait_s") +
		v("deflate.project_self_s") + v("deflate.correct_self_s")
	// Medians of sums are not sums of medians; one traced run makes them equal.
	if res.Attempted == 2 && math.Abs(sum-v("core.step_s")) > 1e-9 {
		t.Errorf("layers sum to %v, steps took %v", sum, v("core.step_s"))
	}

	w3, _ := workloadByName("bench3d-hybrid")
	res3, err := bench(tinyOptions(t, w3, true))
	if err != nil {
		t.Fatal(err)
	}
	if n := res3.Metrics["deflate.project_count"].Value; n != 0 {
		t.Errorf("bench3d-hybrid recorded %v deflation calls", n)
	}
	if b := res3.Metrics["comm.exchange_bytes"].Value; b != 0 {
		t.Errorf("single-rank bench3d-hybrid moved %v halo bytes", b)
	}
}

func TestTamperedEnergyIsAFailedRun(t *testing.T) {
	for _, w := range workloads {
		o := tinyOptions(t, w, false)
		o.tamper = true
		res, err := bench(o)
		if err == nil {
			t.Fatalf("%s: tampered energy was reported as a result", w.name)
		}
		if res.Correct || res.Attempted != 1 || res.Failed != 1 || len(res.Metrics) != 0 {
			t.Errorf("%s: tampered run counted as %+v, want 1 attempted, 1 failed, no metrics", w.name, res)
		}
	}
}

func TestPinnedIterationsAreChecked(t *testing.T) {
	w, _ := workloadByName("bench3d-hybrid")
	o := tinyOptions(t, w, false)
	d, err := deck.ParseString(w.deckText(o.mesh, 0))
	if err != nil {
		t.Fatal(err)
	}
	r, err := runOnce(w, d, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if bad := checkRun(w, o.mesh, 0, r); len(bad) != 0 {
		t.Fatalf("seed-0 run fails its checks: %v", bad)
	}
	r.ranks[0].iters[0]++
	if bad := checkRun(w, o.mesh, 0, r); len(bad) == 0 {
		t.Errorf("an iteration count off its pin passed the check")
	}
}

func TestIdentityGate(t *testing.T) {
	w, _ := workloadByName("stiff-deflated-tcp")
	o := tinyOptions(t, w, false)
	d, err := deck.ParseString(w.deckText(o.mesh, 0))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := runOnce(w, d, false, false)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runOnce(w, d, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRun(traced, ref); err != nil {
		t.Fatalf("traced run differs from the untraced one: %v", err)
	}
	traced.ranks[1].trace.ReducedValues++
	if sameRun(traced, ref) == nil {
		t.Errorf("a changed trace counter passed the identity gate")
	}
	traced.ranks[1].trace.ReducedValues--
	traced.ranks[0].after.AvgTemperature = math.Nextafter(traced.ranks[0].after.AvgTemperature, 1)
	if sameRun(traced, ref) == nil {
		t.Errorf("a changed summary passed the identity gate")
	}
}

func TestSeededDecks(t *testing.T) {
	for _, w := range workloads {
		paper := w.base(40)
		paper.EndStep = w.steps
		paper.EndTime = float64(w.steps) * paper.InitialTimestep
		if got := w.deckText(40, 0); got != paper.Format() {
			t.Errorf("%s: seed 0 is not the paper deck", w.name)
		}
		a, b := w.deckText(40, 7), w.deckText(40, 7)
		if a != b {
			t.Errorf("%s: seed 7 generated two different decks", w.name)
		}
		if a == w.deckText(40, 0) || a == w.deckText(40, 8) {
			t.Errorf("%s: seeds 0, 7 and 8 do not all differ", w.name)
		}
		if _, err := deck.ParseString(a); err != nil {
			t.Errorf("%s: seeded deck does not parse: %v", w.name, err)
		}
	}
}

func TestLayersSelfTime(t *testing.T) {
	ms := int64(time.Millisecond)
	rec := &recorder{spans: []span{
		{kind: spanReduce, parent: -1, start: 0, end: 1 * ms}, // a barrier outside the steps
		{kind: spanStep, parent: -1, start: 1 * ms, end: 11 * ms},
		{kind: spanExchange, parent: 1, start: 2 * ms, end: 3 * ms},
		{kind: spanProject, parent: 1, start: 4 * ms, end: 8 * ms},
		{kind: spanPost, parent: 3, n: 4, start: 4 * ms, end: 5 * ms},
		{kind: spanWait, parent: 3, start: 6 * ms, end: 7 * ms},
		{kind: spanReduce, parent: 1, n: 2, start: 9 * ms, end: 10 * ms},
	}}
	l := layersOf(rec)
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	if !near(l.stepS, 0.010) || !near(l.exchangeS, 0.001) || !near(l.postS, 0.001) || !near(l.waitS, 0.002) {
		t.Errorf("step/comm times %+v", l)
	}
	if !near(l.projectSelfS, 0.002) || l.projects != 1 {
		t.Errorf("project self %v (count %d), want 0.002 s (1)", l.projectSelfS, l.projects)
	}
	// 10 ms of steps less 4 ms of comm and 2 ms of projector self time.
	if !near(l.sweepSelfS, 0.004) {
		t.Errorf("sweep self %v, want 0.004", l.sweepSelfS)
	}
	if l.rounds != 2 || l.values != 6 || l.exchanges != 1 {
		t.Errorf("counts: rounds %d values %d exchanges %d", l.rounds, l.values, l.exchanges)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code's tables in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q: %q", i, b.Workloads[i].Name, w.name, w.why)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		var g, w []string
		for _, m := range got {
			g = append(g, m.Name+" "+m.Unit)
		}
		for _, m := range want {
			w = append(w, m.name+" "+m.unit)
		}
		if strings.Join(g, ",") != strings.Join(w, ",") {
			t.Errorf("%s metrics: BENCHMARK.json %v, code %v", kind, g, w)
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
