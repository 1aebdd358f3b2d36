package grid

import (
	"context"
	"errors"

	"adawave/internal/pointset"
)

// NewQuantizerDatasetCtx computes the quantizer of a flat row-major
// dataset: the bounding-box scan reads strided rows out of one backing
// slice and is sharded across workers with exact min/max merging. The scan
// loop carries no per-coordinate finiteness branch: each shard folds its
// minima and maxima and accumulates bad += v·0, which stays zero exactly
// while every value is finite (NaN·0 and ±Inf·0 are NaN, and NaN is
// absorbing). Only a shard whose sum ends non-zero rescans itself for its
// first non-finite coordinate, and that error is reported for the lowest
// offending point index over all shards, so the result (and any error) is
// identical for every worker count. Every shard polls ctx at its boundary
// (and every ctxCheckStride points within), and a cancelled scan returns
// the taxonomy error of CtxErr without building a quantizer.
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
	workers = shardWorkers(n, workers)
	states := make([]bboxShard, workers)
	ParallelRangesCtx(ctx, n, workers, func(w, lo, hi int) {
		st := &states[w]
		st.init(ds.Row(lo))
		var bad float64
		for blo := lo; blo < hi; blo += ctxCheckStride {
			if ctx.Err() != nil {
				return
			}
			bhi := min(blo+ctxCheckStride, hi)
			bad += foldBBox(ds.Data[blo*d:bhi*d], st.mins, st.maxs)
		}
		if bad != 0 {
			st.findNonFinite(ds, lo, hi)
		}
	})
	if err := CtxErr(ctx); err != nil {
		return nil, err
	}
	return finishQuantizer(states, scale, d)
}

// QuantizeDatasetCtx builds the sparse density grid of a flat dataset —
// the paper's Algorithm 2, linear in n, storing only occupied cells — and
// memoizes every point's base-cell index: ids[i] is the canonical-order
// index of point i's cell in the returned grid, so each point's cell is
// computed exactly once and never searched for by an assignment pass. The
// shards are contiguous point ranges, and one of two regimes runs them,
// chosen from (key space, points, workers) alone (see countingKeySpace):
//
//   - Counting, when the dense key space K = Scaleᵈ is small next to the
//     input (workers·K ≤ n). Each shard packs every point's cell into one
//     canonical key (dimension 0 most significant) and counts it into a
//     private K-bucket histogram, parking the key in ids. The summed
//     histogram is scanned in key order — which is canonical order — to
//     emit the occupied cells with their counts and turn each bucket into
//     its cell's rank, and a parallel pass maps ids through it. No sort,
//     dedupe or shard merge runs.
//   - Radix, otherwise (large key spaces, small deltas, any d where Scaleᵈ
//     outgrows the input). Each shard radix-sorts its cell coordinates with
//     the point index riding as payload, run-length-dedupes them (stamping
//     each point with its shard-local cell number), and the shards are
//     k-way merged, renumbering the stamps to global indices.
//
// Cell masses are integer point counts in both regimes, so the sums are
// exact and the grid and ids are bit-identical across regimes and worker
// counts. Each shard polls ctx at its boundary (and every ctxCheckStride
// points within), and a cancelled run returns before any merge, with no
// grid and no memo published.
func (q *Quantizer) QuantizeDatasetCtx(ctx context.Context, ds *pointset.Dataset, workers int) (*FlatGrid, []int32, error) {
	n := ds.N
	if n == 0 {
		return &FlatGrid{Size: q.gridSize()}, nil, nil
	}
	workers = shardWorkers(n, workers)
	if k := countingKeySpace(q.Scale, q.Dim(), n, workers); k > 0 {
		return q.quantizeCounting(ctx, ds, workers, k)
	}
	return q.quantizeRadix(ctx, ds, workers)
}

// shardWorkers is the worker count a sharded pass over n points runs
// with: inputs below parallelCellCutoff run on one worker.
func shardWorkers(n, workers int) int {
	if workers <= 1 || n < parallelCellCutoff {
		return 1
	}
	return workers
}

// countingKeySpace returns the dense key space K = scaleᵈ when the counting
// regime applies — workers·K ≤ n, so the per-worker int32 histograms total
// at most 4 bytes per point, less than the radix scratch they replace — and
// 0 otherwise. The product is built with an overflow-safe bound check. On
// the repository benchmark, batch (400k 2-D points, K = 128²) counts;
// highd (25k points, K = 16⁴ after PCA) and serve's 500-point deltas take
// the radix path.
func countingKeySpace(scale, d, n, workers int) int {
	limit := n / workers
	k := 1
	for j := 0; j < d; j++ {
		if k > limit/scale {
			return 0
		}
		k *= scale
	}
	return k
}

// quantizeCounting is QuantizeDatasetCtx's counting regime over a key space
// of k cells.
func (q *Quantizer) quantizeCounting(ctx context.Context, ds *pointset.Dataset, workers, k int) (*FlatGrid, []int32, error) {
	d, n := q.Dim(), ds.N
	mins, inv, scale := q.Mins, q.inv[:d], q.Scale
	ids := make([]int32, n)
	hists := make([][]int32, workers)
	ParallelRangesCtx(ctx, n, workers, func(w, lo, hi int) {
		h := make([]int32, k)
		for blo := lo; blo < hi; blo += ctxCheckStride {
			if ctx.Err() != nil {
				return
			}
			bhi := min(blo+ctxCheckStride, hi)
			for i := blo; i < bhi; i++ {
				// The packed canonical key ((c₀·S)+c₁)·S+…: dimension 0
				// most significant, so ascending keys are canonical order.
				key := 0
				for j, v := range ds.Data[i*d : (i+1)*d] {
					key = key*scale + cellIndex(v, mins[j], inv[j], scale)
				}
				h[key]++
				ids[i] = int32(key)
			}
		}
		hists[w] = h
	})
	if err := CtxErr(ctx); err != nil {
		return nil, nil, err
	}
	// Sum into the first histogram. ParallelRanges can carve fewer ranges
	// than workers, leaving trailing nil slots.
	total := hists[0]
	for _, h := range hists[1:] {
		for key, c := range h {
			total[key] += c
		}
	}
	m := 0
	for _, c := range total {
		if c != 0 {
			m++
		}
	}
	f := NewFlat(q.gridSize(), m)
	f.Coords = f.Coords[:m*d]
	f.Vals = f.Vals[:m]
	rank := 0
	for key, c := range total {
		if c == 0 {
			continue
		}
		cell := f.Coords[rank*d : (rank+1)*d]
		for j, r := d-1, key; j >= 0; j-- {
			cell[j] = uint16(r % scale)
			r /= scale
		}
		f.Vals[rank] = float64(c)
		total[key] = int32(rank)
		rank++
	}
	ParallelRangesCtx(ctx, n, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			ids[i] = total[ids[i]]
		}
	})
	return f, ids, nil
}

// quantizeRadix is QuantizeDatasetCtx's radix regime.
func (q *Quantizer) quantizeRadix(ctx context.Context, ds *pointset.Dataset, workers int) (*FlatGrid, []int32, error) {
	n := ds.N
	size := q.gridSize()
	passes := canonicalPasses(q.Dim())
	ids := make([]int32, n)
	shards := make([]*FlatGrid, workers)
	ParallelRangesCtx(ctx, n, workers, func(w, lo, hi int) {
		shards[w] = q.radixShard(ctx, ds, lo, hi, size, passes, ids[lo:hi])
	})
	if err := CtxErr(ctx); err != nil {
		return nil, nil, err
	}
	if workers == 1 {
		return shards[0], ids, nil
	}
	f, remap := mergeSortedShardsInto(shards, size)
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

// radixShard is the one radix shard kernel, shared by the in-RAM radix
// regime and the external sort's chunks: it quantizes points [lo, hi) of
// ds, radix-sorts their cells into canonical order (passes) with the
// shard-relative point index as payload, and run-length-dedupes them into
// a shard grid whose masses are point counts, stamping ids[i-lo] with point
// i's shard-local cell number. It polls ctx at its boundary and every
// ctxCheckStride points, and returns nil once ctx is done.
func (q *Quantizer) radixShard(ctx context.Context, ds *pointset.Dataset, lo, hi int, size, passes []int, ids []int32) *FlatGrid {
	d := q.Dim()
	nn := hi - lo
	coords := make([]uint16, nn*d)
	idx := make([]int32, nn)
	for blo := lo; blo < hi; blo += ctxCheckStride {
		if ctx.Err() != nil {
			return nil
		}
		bhi := min(blo+ctxCheckStride, hi)
		for i := blo; i < bhi; i++ {
			q.CellCoordsU16(ds.Data[i*d:(i+1)*d], coords[(i-lo)*d:(i-lo+1)*d])
			idx[i-lo] = int32(i - lo)
		}
	}
	s := getFlatScratch()
	defer putFlatScratch(s)
	sorted, _, sortedIdx := radixSortCells(coords, nil, idx, d, size, passes, s)
	cells, counts := dedupeRunsIdx(sorted, sortedIdx, d, ids)
	return &FlatGrid{Size: size, Coords: cells, Vals: counts}
}

// dedupeRunsIdx collapses equal consecutive coordinate tuples of a sorted
// cell list in place, returning the compacted coords and the run lengths as
// densities. It also records, for every point, the shard-local index of the
// cell its run collapsed into: ids[idx[e]] is set to the compacted cell
// number of element e.
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
		for e := i; e < r; e++ {
			ids[idx[e]] = int32(w)
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
// deterministic. remap[si][j] records where shard si's cell j landed in the
// merged grid (the radix regime renumbers its memoized cell ids through
// it). Nil shards — ParallelRanges can produce fewer ranges than workers —
// are skipped.
func mergeSortedShardsInto(shards []*FlatGrid, size []int) (*FlatGrid, [][]int32) {
	remap := make([][]int32, len(shards))
	total := 0
	for si, sh := range shards {
		if sh == nil {
			continue
		}
		remap[si] = make([]int32, sh.Len())
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
				remap[si][heads[si]] = outIdx
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
