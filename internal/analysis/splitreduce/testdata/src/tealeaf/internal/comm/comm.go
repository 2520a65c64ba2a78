// Package comm is the analysistest stub of the real communication layer:
// the same import path suffix, interface names and method signatures the
// analyzers match on, with field types simplified to []float64 so the
// testdata tree stays hermetic.
package comm

// ReduceHandle mirrors comm.ReduceHandle.
type ReduceHandle interface {
	Finish() []float64
}

// Communicator mirrors the solver-facing subset of comm.Communicator.
type Communicator interface {
	Rank() int
	Size() int
	Exchange(depth int, fields ...[]float64) error
	Exchange3D(depth int, fields ...[]float64) error
	AllReduceSum(x float64) float64
	AllReduceSum2(x, y float64) (float64, float64)
	AllReduceSumN(vals []float64) []float64
	AllReduceSumNStart(vals []float64) ReduceHandle
	AllReduceSumNStartTagged(tag int, vals []float64) ReduceHandle
	AllReduceMax(x float64) float64
	Barrier()
	GatherInterior(local, dst []float64) error
}
