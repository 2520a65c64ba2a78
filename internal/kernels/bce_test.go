package kernels

import (
	"testing"

	"tealeaf/internal/analysis/bcecheck"
)

// TestHotLoopsBoundsCheckFree holds the innermost loop of every vector
// kernel to zero compiler bounds checks (see the package comment).
func TestHotLoopsBoundsCheckFree(t *testing.T) {
	bcecheck.Check(t,
		"dot4", "Axpy", "Xpay", "Axpby", "Scale", "ScaleTo", "Fill", "Sub", "Mul",
		"AxpyDot", "Dot2", "PrecondDot", "AxpyAxpy", "AxpbyPre", "PPCGInnerInit",
		"FusedCGDirections", "fusedCGUpdateBody", "pipelinedCGStepBody")
}
