package grid

import (
	"context"

	"adawave/internal/wavelet"
)

// Handles for the external grid_test package, whose oracle-equivalence
// tests cannot live in package grid: the oracle imports it.

const ParallelCellCutoff = parallelCellCutoff

var IsCanonical = isCanonical

// TransformDimFlat is transformDimFlatCtx without cancellation.
func TransformDimFlat(f *FlatGrid, j int, b wavelet.Basis, workers int) *FlatGrid {
	out, _ := transformDimFlatCtx(context.Background(), f, j, b, workers)
	return out
}
