package grid

import (
	"context"

	"adawave/internal/pointset"
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

var CountingKeySpace = countingKeySpace

// QuantizeCounting and QuantizeRadix run one regime of QuantizeDatasetCtx
// regardless of the cut-off, so the regime-equivalence tests can pit each
// against the other and the oracle. ds must be non-empty.
func QuantizeCounting(ctx context.Context, q *Quantizer, ds *pointset.Dataset, workers int) (*FlatGrid, []int32, error) {
	k := 1
	for j := 0; j < q.Dim(); j++ {
		k *= q.Scale
	}
	return q.quantizeCounting(ctx, ds, shardWorkers(ds.N, workers), k)
}

func QuantizeRadix(ctx context.Context, q *Quantizer, ds *pointset.Dataset, workers int) (*FlatGrid, []int32, error) {
	return q.quantizeRadix(ctx, ds, shardWorkers(ds.N, workers))
}
