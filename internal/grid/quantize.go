package grid

import (
	"errors"
	"fmt"
	"math"

	"adawave/internal/pointset"
)

// Quantizer maps d-dimensional points into grid cells (paper Alg. 2).
// The bounding box is padded by a tiny epsilon on the upper side so the
// maxima land in the last cell (cells are right-open intervals [l, h)).
type Quantizer struct {
	Mins, Maxs []float64
	Scale      int // M: number of cells per dimension
	inv        []float64
}

// ErrNoPoints is returned when a quantizer is requested for an empty set.
var ErrNoPoints = errors.New("grid: no points to quantize")

// checkScale validates the per-dimension cell count — shared by every
// quantizer constructor so the error wording cannot diverge between the
// fresh and restored paths.
func checkScale(scale int) error {
	if scale < 2 {
		return fmt.Errorf("grid: scale must be ≥ 2, got %d", scale)
	}
	if scale > 0xFFFF {
		return fmt.Errorf("grid: scale %d exceeds the 65535 cells/dimension key limit", scale)
	}
	return nil
}

// bboxShard accumulates one shard of the bounding-box scan.
type bboxShard struct {
	mins, maxs []float64
	err        error
	errAt      int
}

// init seeds the shard's extrema from its first row.
func (st *bboxShard) init(row []float64) {
	st.errAt = -1
	st.mins = append([]float64(nil), row...)
	st.maxs = append([]float64(nil), row...)
}

// bboxTile is how many coordinates foldBBox folds per tile: whole rows
// filling about 32 KiB, so the per-dimension passes over a tile after the
// first hit the L1 data cache.
const bboxTile = 4096

// foldBBox folds the rows of data (row-major, len(mins) values per row)
// into mins and maxs, and returns the sum of every value times zero: ±0
// while all values are finite, NaN as soon as one is NaN or ±Inf. The loop
// carries no finiteness branch; a caller that sees a non-zero sum rescans
// with findNonFinite. Each tile of rows is folded one dimension at a time,
// so the running extrema stay in registers.
func foldBBox(data, mins, maxs []float64) float64 {
	d := len(mins)
	tile := max(1, bboxTile/d) * d
	var bad float64
	for t := 0; t < len(data); t += tile {
		block := data[t:min(t+tile, len(data))]
		for j := range mins {
			lo, hi := mins[j], maxs[j]
			for r := j; r < len(block); r += d {
				v := block[r]
				bad += v * 0
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			mins[j], maxs[j] = lo, hi
		}
	}
	return bad
}

// findNonFinite records the first non-finite coordinate among points
// [lo, hi) of ds: a single NaN/Inf would silently poison the bounding box
// and funnel every point into one clamped edge cell.
func (st *bboxShard) findNonFinite(ds *pointset.Dataset, lo, hi int) {
	d := ds.D
	for i := lo; i < hi; i++ {
		for j, v := range ds.Data[i*d : (i+1)*d] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				st.err = invalidInput(fmt.Errorf("grid: point %d has non-finite coordinate %v in dimension %d", i, v, j))
				st.errAt = i
				return
			}
		}
	}
}

// finishQuantizer merges the per-shard bounding boxes into a quantizer.
// Min/max merging is exact and errors are reported for the lowest offending
// point index, so the result (and any error) is identical for every shard
// layout, one included.
func finishQuantizer(states []bboxShard, scale, d int) (*Quantizer, error) {
	var firstErr error
	firstAt := -1
	for w := range states {
		st := &states[w]
		if st.err != nil && (firstAt < 0 || st.errAt < firstAt) {
			firstErr, firstAt = st.err, st.errAt
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	q := &Quantizer{Scale: scale}
	for w := range states {
		st := &states[w]
		if st.mins == nil {
			continue
		}
		if q.Mins == nil {
			q.Mins = append([]float64(nil), st.mins...)
			q.Maxs = append([]float64(nil), st.maxs...)
			continue
		}
		for j := 0; j < d; j++ {
			if st.mins[j] < q.Mins[j] {
				q.Mins[j] = st.mins[j]
			}
			if st.maxs[j] > q.Maxs[j] {
				q.Maxs[j] = st.maxs[j]
			}
		}
	}
	q.inv = make([]float64, d)
	for j := range q.inv {
		w := q.Maxs[j] - q.Mins[j]
		if w <= 0 {
			// Degenerate (constant) dimension: everything in cell 0.
			q.inv[j] = 0
			continue
		}
		q.inv[j] = float64(scale) / w
	}
	return q, nil
}

// RestoreQuantizer rebuilds a quantizer from a persisted frame — the exact
// bounds and scale a checkpointed session was quantized in. The cell-width
// inverses are derived with the same float arithmetic as finishQuantizer,
// so a restored quantizer maps every point to the same cell the original
// did, bit for bit.
func RestoreQuantizer(mins, maxs []float64, scale int) (*Quantizer, error) {
	if err := checkScale(scale); err != nil {
		return nil, err
	}
	d := len(mins)
	if d == 0 || len(maxs) != d {
		return nil, fmt.Errorf("grid: quantizer frame with %d mins and %d maxs", d, len(maxs))
	}
	q := &Quantizer{
		Mins:  append([]float64(nil), mins...),
		Maxs:  append([]float64(nil), maxs...),
		Scale: scale,
		inv:   make([]float64, d),
	}
	for j := range q.inv {
		if math.IsNaN(mins[j]) || math.IsInf(mins[j], 0) || math.IsNaN(maxs[j]) || math.IsInf(maxs[j], 0) || mins[j] > maxs[j] {
			return nil, fmt.Errorf("grid: quantizer frame [%v, %v] invalid in dimension %d", mins[j], maxs[j], j)
		}
		w := q.Maxs[j] - q.Mins[j]
		if w <= 0 {
			// Degenerate (constant) dimension: everything in cell 0.
			q.inv[j] = 0
			continue
		}
		q.inv[j] = float64(scale) / w
	}
	return q, nil
}

// Dim returns the quantizer's dimensionality.
func (q *Quantizer) Dim() int { return len(q.Mins) }

// gridSize returns the per-dimension cell counts of q's grid.
func (q *Quantizer) gridSize() []int {
	size := make([]int, q.Dim())
	for j := range size {
		size[j] = q.Scale
	}
	return size
}

// cellIndex is the one cell-coordinate formula: the cell of value v in a
// dimension whose bounding box starts at lo, with inv cells per unit.
// Cells are right-open intervals [l, h), and values outside the bounding
// box clamp to the first or last cell. CellCoordsU16 and the counting
// regime's packed keys both go through it, so the two regimes of
// QuantizeDatasetCtx place every point in the same cell.
func cellIndex(v, lo, inv float64, scale int) int {
	c := int((v - lo) * inv)
	if c < 0 {
		c = 0
	}
	if c >= scale {
		c = scale - 1
	}
	return c
}

// CellCoordsU16 writes the cell coordinates of point p into out (length
// Dim): cells are right-open intervals [l, h), and coordinates outside the
// bounding box clamp to the first or last cell.
func (q *Quantizer) CellCoordsU16(p []float64, out []uint16) []uint16 {
	for j, lo := range q.Mins {
		out[j] = uint16(cellIndex(p[j], lo, q.inv[j], q.Scale))
	}
	return out
}
