package grid

import (
	"context"
	"errors"

	"adawave/internal/pointset"
)

// NewQuantizerDatasetCtx computes the quantizer of a flat row-major
// dataset: the bounding-box scan reads strided rows out of one backing
// slice and is sharded across workers with exact min/max merging, and
// non-finite coordinates are reported for the lowest offending point index,
// so the result (and any error) is identical for every worker count. Every
// shard polls ctx at its boundary (and every ctxCheckStride points within),
// and a cancelled scan returns the taxonomy error of CtxErr without
// building a quantizer.
func NewQuantizerDatasetCtx(ctx context.Context, ds *pointset.Dataset, scale, workers int) (*Quantizer, error) {
	if ds == nil || ds.N == 0 {
		return nil, ErrNoPoints
	}
	if err := checkScale(scale); err != nil {
		return nil, err
	}
	d := ds.D
	if d == 0 {
		return nil, invalidInput(errors.New("grid: zero-dimensional points"))
	}
	n := ds.N
	if workers <= 1 || n < parallelCellCutoff {
		workers = 1
	}
	states := make([]bboxShard, workers)
	ParallelRangesCtx(ctx, n, workers, func(w, lo, hi int) {
		if ctx.Err() != nil {
			return
		}
		st := &states[w]
		st.init(ds.Row(lo))
		for i := lo; i < hi; i++ {
			if (i-lo)%ctxCheckStride == ctxCheckStride-1 && ctx.Err() != nil {
				return
			}
			if !st.scan(i, ds.Data[i*d:(i+1)*d]) {
				return
			}
		}
	})
	if err := CtxErr(ctx); err != nil {
		return nil, err
	}
	return finishQuantizer(states, scale, d)
}

// QuantizeDatasetCtx builds the sparse density grid of a flat dataset —
// the paper's Algorithm 2, linear in n, storing only occupied cells. Each
// worker quantizes a contiguous shard of points, radix-sorts and
// run-length-dedupes its cells, and the per-shard accumulators are k-way
// merged (summing duplicate cells) at the end; cell masses are integer
// point counts, so the merge is exact and the grid — in canonical cell
// order — is identical for every worker count. It additionally memoizes
// every point's base-cell index: ids[i] is the canonical-order index of
// point i's cell in the returned grid. The memo costs no searches: point
// indices ride through the radix sort as a payload, the dedupe pass stamps
// each point with its shard-local cell number, and the shard merge
// renumbers those to global indices — so each point's cell coordinates are
// computed exactly once and never recomputed by an assignment pass. Each
// shard polls ctx at its boundary (and every ctxCheckStride points
// within), and a cancelled run returns before the shard merge, with no
// grid and no memo published.
func (q *Quantizer) QuantizeDatasetCtx(ctx context.Context, ds *pointset.Dataset, workers int) (*FlatGrid, []int32, error) {
	d := q.Dim()
	size := make([]int, d)
	for j := range size {
		size[j] = q.Scale
	}
	n := ds.N
	if n == 0 {
		return &FlatGrid{Size: size}, nil, nil
	}
	if workers <= 1 || n < parallelCellCutoff {
		workers = 1
	}
	passes := make([]int, 0, d)
	for p := d - 1; p >= 0; p-- {
		passes = append(passes, p)
	}
	ids := make([]int32, n)
	shards := make([]*FlatGrid, workers)
	ParallelRangesCtx(ctx, n, workers, func(w, lo, hi int) {
		if ctx.Err() != nil {
			return
		}
		s := getFlatScratch()
		defer putFlatScratch(s)
		nn := hi - lo
		coords := make([]uint16, nn*d)
		idx := make([]int32, nn)
		for i := lo; i < hi; i++ {
			if (i-lo)%ctxCheckStride == ctxCheckStride-1 && ctx.Err() != nil {
				return
			}
			q.CellCoordsU16(ds.Data[i*d:(i+1)*d], coords[(i-lo)*d:(i-lo+1)*d])
			idx[i-lo] = int32(i - lo)
		}
		sorted, _, sortedIdx := radixSortCells(coords, nil, idx, d, size, passes, s)
		cells, counts := dedupeRunsIdx(sorted, sortedIdx, d, ids[lo:hi])
		shards[w] = &FlatGrid{Size: size, Coords: cells, Vals: counts}
	})
	if err := CtxErr(ctx); err != nil {
		return nil, nil, err
	}
	if workers == 1 {
		return shards[0], ids, nil
	}
	f, remap := mergeSortedShardsInto(shards, size, d, true)
	// Renumber the shard-local cell ids to canonical-grid indices.
	// ParallelRanges carves the same deterministic shard boundaries as the
	// quantization pass above, so worker w sees exactly its own ids.
	ParallelRangesCtx(ctx, n, workers, func(w, lo, hi int) {
		r := remap[w]
		for i := lo; i < hi; i++ {
			ids[i] = r[ids[i]]
		}
	})
	return f, ids, nil
}

// dedupeRunsIdx collapses equal consecutive coordinate tuples of a sorted
// cell list in place, returning the compacted coords and the run lengths as
// densities. With a non-nil idx payload it additionally records, for every
// point, the shard-local index of the cell its run collapsed into:
// ids[idx[e]] is set to the compacted cell number of element e.
func dedupeRunsIdx(coords []uint16, idx []int32, d int, ids []int32) ([]uint16, []float64) {
	n := len(coords) / d
	if n == 0 {
		return coords[:0], nil
	}
	vals := make([]float64, 0, n)
	w := 0
	for i := 0; i < n; {
		r := i + 1
		for r < n && cmpCoords(coords[i*d:(i+1)*d], coords[r*d:(r+1)*d]) == 0 {
			r++
		}
		if idx != nil {
			for e := i; e < r; e++ {
				ids[idx[e]] = int32(w)
			}
		}
		copy(coords[w*d:(w+1)*d], coords[i*d:(i+1)*d])
		vals = append(vals, float64(r-i))
		w++
		i = r
	}
	return coords[:w*d], vals
}

// mergeSortedShardsInto is the one k-way merge of canonically sorted shard
// grids: duplicate cells are summed in shard order, so the integer sums are
// deterministic. With withMap set, remap[si][j] records where shard si's
// cell j landed in the merged grid (QuantizeDatasetCtx renumbers its memoized
// cell ids through it); without it no remap is allocated. Nil shards —
// ParallelRanges can produce fewer ranges than workers — are skipped.
func mergeSortedShardsInto(shards []*FlatGrid, size []int, d int, withMap bool) (*FlatGrid, [][]int32) {
	var remap [][]int32
	if withMap {
		remap = make([][]int32, len(shards))
	}
	total := 0
	for si, sh := range shards {
		if sh == nil {
			continue
		}
		if withMap {
			remap[si] = make([]int32, sh.Len())
		}
		total += sh.Len()
	}
	out := NewFlat(size, total)
	heads := make([]int, len(shards))
	for {
		min := -1
		for si, sh := range shards {
			if sh == nil || heads[si] >= sh.Len() {
				continue
			}
			if min < 0 || cmpCoords(sh.CellCoords(heads[si]), shards[min].CellCoords(heads[min])) < 0 {
				min = si
			}
		}
		if min < 0 {
			break
		}
		cell := shards[min].CellCoords(heads[min])
		outIdx := int32(out.Len())
		var mass float64
		for si, sh := range shards {
			if sh != nil && heads[si] < sh.Len() && cmpCoords(sh.CellCoords(heads[si]), cell) == 0 {
				mass += sh.Vals[heads[si]]
				if withMap {
					remap[si][heads[si]] = outIdx
				}
				heads[si]++
			}
		}
		out.Append(cell, mass)
	}
	return out, remap
}

// AncestorLabelsIntoCtx builds the per-level assignment table into dst
// (whose capacity is reused): out[c] is the label of base cell c's ancestor
// after `levels` dyadic downsamplings — the kept cell whose coordinates
// equal the base cell's right-shifted by levels — or −1 when the ancestor
// was filtered out or keptLabels demoted it. One pass over the base cells
// (O(cells·(d + log cells)) via binary search in kept) replaces a
// per-point coordinate recomputation and search. Each assignment shard
// polls ctx at its boundary (and every ctxCheckStride cells within). The
// returned slice is always valid for pooling — on cancellation its
// contents are unspecified and the error is non-nil.
func AncestorLabelsIntoCtx(ctx context.Context, dst []int32, base, kept *FlatGrid, levels int, keptLabels []int32, workers int) ([]int32, error) {
	d := base.Dim()
	m := base.Len()
	if cap(dst) < m {
		dst = make([]int32, m)
	}
	out := dst[:m]
	shift := uint(levels)
	ParallelRangesCtx(ctx, m, workers, func(_, lo, hi int) {
		if ctx.Err() != nil {
			return
		}
		coords := make([]uint16, d)
		for c := lo; c < hi; c++ {
			if (c-lo)%ctxCheckStride == ctxCheckStride-1 && ctx.Err() != nil {
				return
			}
			bc := base.Coords[c*d : (c+1)*d]
			for p := 0; p < d; p++ {
				coords[p] = bc[p] >> shift
			}
			if j := kept.Find(coords); j >= 0 && keptLabels[j] >= 0 {
				out[c] = keptLabels[j]
			} else {
				out[c] = -1
			}
		}
	})
	return out, CtxErr(ctx)
}
