package stencil

import (
	"testing"

	"tealeaf/internal/analysis/bcecheck"
)

// TestHotLoopsBoundsCheckFree holds the innermost loop of every sweep
// kernel to zero compiler bounds checks (see the package comment).
func TestHotLoopsBoundsCheckFree(t *testing.T) {
	bcecheck.Check(t,
		"ApplyPPCGInner", "mulRow", "dot2", "dot4",
		"apply5", "applyBuf5", "applyPreDotInit5", "ppcgInner5", "residual5", "jacobi5", "diagonal5",
		"apply7", "applyDot7", "applyPreDot7", "applyPreDotInit7", "ppcgInner7", "residual7", "jacobi7", "diagonal7")
}
