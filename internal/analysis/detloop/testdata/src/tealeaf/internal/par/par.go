// Package par is under the reproducibility contract because its
// fixed-order reducers fold floating-point partials: detloop must flag
// map-order folds here exactly as in the other numeric packages.
package par

// badBandWeights folds per-band partials in map iteration order: the
// sum would differ run to run, the exact failure the reducers'
// ascending-tile-order fold exists to rule out.
func badBandWeights(byBand map[int][]float64) []float64 {
	out := make([]float64, 1)
	for _, p := range byBand {
		for _, v := range p {
			out[0] += v // want `floating-point accumulation of out over randomized map iteration order`
		}
	}
	return out
}

// foldTiles mirrors ForTilesReduceN's fold of its per-tile partial
// table: a slice walk in ascending tile order — no map, no finding.
func foldTiles(k int, partial []float64) []float64 {
	out := make([]float64, k)
	for t := 0; t*k < len(partial); t++ {
		for i := 0; i < k; i++ {
			out[i] += partial[t*k+i]
		}
	}
	return out
}
