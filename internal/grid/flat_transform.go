package grid

import (
	"context"
	"fmt"

	"adawave/internal/wavelet"
)

// parallelCellCutoff is the occupied-cell count below which the transform
// and quantizer run single-threaded: under it, goroutine fan-out costs more
// than the sweep itself.
const parallelCellCutoff = 2048

// transformDimFlatCtx applies one level of the analysis low-pass wavelet
// filter along dimension j, downsampling that dimension by 2. It
// radix-sorts the cells so dimension j varies fastest, then sweeps each
// grid line with an epoch-stamped accumulator — every output cell is
// written once, in order, with no hashing and no per-cell allocation.
// Boundary handling is zero extension, which is exact here because absent
// cells really do have density zero. Lines are data-independent, so they
// are sharded across workers (≤ 1 runs inline), and each line-sweep shard
// polls ctx at its boundary; a cancelled transform returns no output grid.
// The input grid's cell order is permuted in place (on cancellation too,
// so callers restore canonical order on any error, as they do on success);
// its contents are unchanged. The result is sorted with dimension j
// fastest, so a full dimension sweep ending at j = Dim()−1 yields
// canonical order.
func transformDimFlatCtx(ctx context.Context, f *FlatGrid, j int, b wavelet.Basis, workers int) (*FlatGrid, error) {
	if j < 0 || j >= f.Dim() {
		panic(fmt.Sprintf("grid: transform dimension %d out of range (grid is %d-D)", j, f.Dim()))
	}
	d := f.Dim()
	m := f.Len()
	outLen := (f.Size[j] + 1) / 2
	newSize := append([]int(nil), f.Size...)
	newSize[j] = outLen
	out := &FlatGrid{Size: newSize}
	if m == 0 {
		return out, nil
	}
	// Poll before the radix permute: a request already dead skips the sort.
	if err := CtxErr(ctx); err != nil {
		return nil, err
	}

	s := getFlatScratch()
	f.sortForDim(j, s)

	// Line boundaries: a line is a maximal run of cells sharing every
	// coordinate except dimension j.
	starts := append(s.ints[:0], 0)
	for i := 1; i < m; i++ {
		if !sameLineExcept(f.Coords, d, i-1, i, j) {
			starts = append(starts, int32(i))
		}
	}
	starts = append(starts, int32(m))
	s.ints = starts
	nLines := len(starts) - 1

	if workers <= 1 || m < parallelCellCutoff || nLines < 2 {
		est := m + m*(len(b.Lo)/2)
		out.Coords = make([]uint16, 0, est*d)
		out.Vals = make([]float64, 0, est)
		out.Coords, out.Vals = sweepLines(ctx, f, j, b, starts, 0, nLines, outLen, s, out.Coords, out.Vals)
		putFlatScratch(s)
		if err := CtxErr(ctx); err != nil {
			return nil, err
		}
		return out, nil
	}

	// Partition lines into worker ranges of roughly equal cell counts; each
	// worker sweeps its lines into pooled buffers which are concatenated in
	// line order, so the result is identical for every worker count.
	bounds := balanceLines(starts, workers)
	type chunk struct {
		s      *flatScratch
		coords []uint16
		vals   []float64
	}
	chunks := make([]chunk, len(bounds)-1)
	// One shard per balanced line range (maxShards == n forces chunk 1), so
	// the sweep draws from the shared pool when the request carries one.
	ParallelRangesCtx(ctx, len(chunks), len(chunks), func(_, lo, hi int) {
		for w := lo; w < hi; w++ {
			if ctx.Err() != nil {
				return
			}
			ws := getFlatScratch()
			c, v := sweepLines(ctx, f, j, b, starts, bounds[w], bounds[w+1], outLen, ws, ws.outCoords[:0], ws.outVals[:0])
			chunks[w] = chunk{s: ws, coords: c, vals: v}
		}
	})
	if err := CtxErr(ctx); err != nil {
		for _, c := range chunks {
			if c.s != nil {
				c.s.outCoords, c.s.outVals = c.coords, c.vals
				putFlatScratch(c.s)
			}
		}
		putFlatScratch(s)
		return nil, err
	}
	total := 0
	for _, c := range chunks {
		total += len(c.vals)
	}
	out.Coords = make([]uint16, 0, total*d)
	out.Vals = make([]float64, 0, total)
	for _, c := range chunks {
		out.Coords = append(out.Coords, c.coords...)
		out.Vals = append(out.Vals, c.vals...)
		c.s.outCoords, c.s.outVals = c.coords, c.vals
		putFlatScratch(c.s)
	}
	putFlatScratch(s)
	return out, nil
}

// sortForDim reorders cells so dimension j varies fastest and the remaining
// dimensions are lexicographic (dimension 0 most significant) — the order
// in which cells of one grid line are contiguous and ascending in j.
func (f *FlatGrid) sortForDim(j int, s *flatScratch) {
	d := f.Dim()
	if f.Len() < 2 {
		return
	}
	passes := make([]int, 0, d)
	passes = append(passes, j)
	for p := d - 1; p >= 0; p-- {
		if p != j {
			passes = append(passes, p)
		}
	}
	f.Coords, f.Vals, _ = radixSortCells(f.Coords, f.Vals, nil, d, f.Size, passes, s)
}

// sameLineExcept reports whether cells a and b agree on every coordinate
// except dimension j.
func sameLineExcept(coords []uint16, d, a, b, j int) bool {
	ca, cb := coords[a*d:(a+1)*d], coords[b*d:(b+1)*d]
	for p := 0; p < d; p++ {
		if p != j && ca[p] != cb[p] {
			return false
		}
	}
	return true
}

// balanceLines splits the lines described by starts into ≤ workers
// contiguous ranges of roughly equal total cell count. It returns the range
// boundaries as line indices (first element 0, last nLines).
func balanceLines(starts []int32, workers int) []int {
	nLines := len(starts) - 1
	m := int(starts[nLines])
	if workers > nLines {
		workers = nLines
	}
	bounds := make([]int, 1, workers+1)
	target := (m + workers - 1) / workers
	cells := 0
	for li := 0; li < nLines; li++ {
		cells += int(starts[li+1] - starts[li])
		if cells >= target && len(bounds) < workers {
			bounds = append(bounds, li+1)
			cells = 0
		}
	}
	return append(bounds, nLines)
}

// sweepLines applies the low-pass filter to lines [lo, hi), appending the
// output cells (ascending in the transformed dimension, lines in input
// order) to outCoords/outVals. Contributions to one output cell are
// accumulated in ascending input order, so the result is deterministic and
// independent of how lines are distributed across workers. Output cells
// whose accumulated value is zero are kept — every touched output cell is
// emitted — and coefficient denoising drops them later.
func sweepLines(ctx context.Context, f *FlatGrid, j int, b wavelet.Basis, starts []int32, lo, hi, outLen int, s *flatScratch, outCoords []uint16, outVals []float64) ([]uint16, []float64) {
	d := f.Dim()
	taps := b.Lo
	center := b.Center
	s.ensureAcc(outLen)
	touched := s.touched
	for li := lo; li < hi; li++ {
		// Cancellation poll every 1024 lines: the partial output is
		// discarded by the caller, which reports CtxErr.
		if (li-lo)%1024 == 1023 && ctx.Err() != nil {
			break
		}
		start, end := int(starts[li]), int(starts[li+1])
		cur := s.nextEpoch()
		touched = touched[:0]
		for i := start; i < end; i++ {
			ci := int(f.Coords[i*d+j])
			v := f.Vals[i]
			for t, h := range taps {
				pos := ci + center - t
				if pos < 0 || pos&1 != 0 {
					continue
				}
				k := pos >> 1
				if k >= outLen {
					continue
				}
				if s.epoch[k] != cur {
					s.epoch[k] = cur
					s.acc[k] = 0
					touched = append(touched, int32(k))
				}
				s.acc[k] += h * v
			}
		}
		// Inputs ascend in j, so touched is nearly sorted: insertion sort.
		for a := 1; a < len(touched); a++ {
			x := touched[a]
			p := a - 1
			for p >= 0 && touched[p] > x {
				touched[p+1] = touched[p]
				p--
			}
			touched[p+1] = x
		}
		line := f.Coords[start*d : start*d+d]
		for _, k := range touched {
			outCoords = append(outCoords, line...)
			outCoords[len(outCoords)-d+j] = uint16(k)
			outVals = append(outVals, s.acc[k])
		}
	}
	s.touched = touched
	return outCoords, outVals
}

// TransformFlatCtx applies one full decomposition level — the low-pass
// filter along every dimension in turn (the separable d-D DWT of the
// paper's Alg. 3, keeping only the LL…L subband) — leaving the result in
// canonical order. Cancellation is polled between (and within) the
// per-dimension sweeps. The input grid's cell order is permuted, on
// cancellation too; callers restore canonical order before reusing it.
func TransformFlatCtx(ctx context.Context, f *FlatGrid, b wavelet.Basis, workers int) (*FlatGrid, error) {
	return transformCappedFlat(ctx, f, b, 0, workers)
}

// transformCappedFlat is TransformFlatCtx with an occupied-cell growth cap.
// Filters longer than two taps scatter each cell into several output cells
// per dimension, so in high dimension the sparse grid can densify
// exponentially (m × 2ᵈ in the worst case); exceeding maxCells aborts with
// an error instead of consuming the machine. maxCells ≤ 0 disables the cap.
func transformCappedFlat(ctx context.Context, f *FlatGrid, b wavelet.Basis, maxCells, workers int) (*FlatGrid, error) {
	out := f
	for j := 0; j < f.Dim(); j++ {
		next, err := transformDimFlatCtx(ctx, out, j, b, workers)
		if err != nil {
			return nil, err
		}
		out = next
		if maxCells > 0 && out.Len() > maxCells {
			return nil, invalidInput(fmt.Errorf(
				"grid: wavelet transform densified the sparse grid to %d cells after dimension %d (cap %d); use the 2-tap haar basis for high-dimensional data",
				out.Len(), j+1, maxCells))
		}
	}
	return out, nil
}

// DefaultTransformCellCap bounds the occupied cells the sparse transform
// may produce before aborting (see transformCappedFlat). It is far above
// any healthy workload — a densifying high-dimensional transform crosses
// it within seconds, a legitimate one never does.
const DefaultTransformCellCap = 1 << 23

// growthCap returns the per-level occupied-cell budget for an input of m
// cells: healthy transforms either shrink the cell count (dense low-d
// grids merge under downsampling) or scatter by at most ⌈L/2⌉ per
// dimension bounded by the output grid size; 32× input with a 2¹⁶ floor
// accommodates every legitimate case while catching exponential
// densification after a couple of dimensions instead of gigabytes later.
func growthCap(m int) int {
	cap := 32 * m
	if cap < 1<<16 {
		cap = 1 << 16
	}
	if cap > DefaultTransformCellCap {
		cap = DefaultTransformCellCap
	}
	return cap
}

// TransformLevelsFlatCtx applies `levels` full decomposition levels and
// returns the approximation grid of each level (level 1 first) — the
// multi-resolution stack the paper's property list advertises. Growth past
// growthCap occupied cells aborts with an error (long filters densify
// sparse high-dimensional grids exponentially; switch to Haar). The input
// grid's cell order is permuted (see transformDimFlatCtx); every returned
// level is in canonical order — deeper levels transform a clone, so
// earlier returned grids are never re-sorted out from under the caller. A
// cancelled chain returns no levels, and callers restore the input's
// canonical order before reusing it.
func TransformLevelsFlatCtx(ctx context.Context, f *FlatGrid, b wavelet.Basis, levels, workers int) ([]*FlatGrid, error) {
	if levels < 1 {
		return nil, fmt.Errorf("grid: levels must be ≥ 1, got %d", levels)
	}
	out := make([]*FlatGrid, 0, levels)
	cur := f
	for l := 0; l < levels; l++ {
		for j := 0; j < cur.Dim(); j++ {
			if cur.Size[j] < 2 {
				return nil, invalidInput(fmt.Errorf("grid: dimension %d of size %d too small for level %d", j, cur.Size[j], l+1))
			}
		}
		if l > 0 {
			cur = cur.Clone()
		}
		next, err := transformCappedFlat(ctx, cur, b, growthCap(cur.Len()), workers)
		if err != nil {
			return nil, err
		}
		cur = next
		out = append(out, cur)
	}
	return out, nil
}
