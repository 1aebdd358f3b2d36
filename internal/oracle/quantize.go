package oracle

import (
	"errors"
	"fmt"
	"math"

	"adawave/internal/grid"
)

// NewQuantizer computes the bounding box of points with one sequential scan
// and returns the quantizer with scale cells per dimension. The cell-width
// inverses come from grid.RestoreQuantizer, whose arithmetic is the
// production constructors', so both pipelines put every point in the same
// cell. All points must share the same dimension.
func NewQuantizer(points [][]float64, scale int) (*grid.Quantizer, error) {
	if len(points) == 0 {
		return nil, grid.ErrNoPoints
	}
	d := len(points[0])
	if d == 0 {
		return nil, errors.New("oracle: zero-dimensional points")
	}
	mins := append([]float64(nil), points[0]...)
	maxs := append([]float64(nil), points[0]...)
	for i, p := range points {
		if len(p) != d {
			return nil, fmt.Errorf("oracle: inconsistent dimensions %d and %d", d, len(p))
		}
		for j, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, grid.InvalidInput(fmt.Errorf("grid: point %d has non-finite coordinate %v in dimension %d", i, v, j))
			}
			mins[j] = math.Min(mins[j], v)
			maxs[j] = math.Max(maxs[j], v)
		}
	}
	return grid.RestoreQuantizer(mins, maxs, scale)
}

// QuantizeWithCells builds the sparse density grid of points (each point
// adds mass 1 to its cell) — the paper's Algorithm 2, linear in n, storing
// only occupied cells — and returns every point's cell key at the
// quantizer's base resolution, the first half of the paper's lookup table.
// Keys are interned, so points sharing a cell share one Key.
func QuantizeWithCells(q *grid.Quantizer, points [][]float64) (*Grid, []Key) {
	size := make([]int, q.Dim())
	for j := range size {
		size[j] = q.Scale
	}
	g := New(size)
	cells := make([]Key, len(points))
	coords := make([]uint16, q.Dim())
	buf := make([]byte, 2*q.Dim())
	intern := make(map[Key]Key)
	for i, p := range points {
		q.CellCoordsU16(p, coords)
		for j, c := range coords {
			putCoord(buf, j, int(c))
		}
		k, ok := intern[Key(buf)]
		if !ok {
			k = Key(buf)
			intern[k] = k
		}
		g.Cells[k]++
		cells[i] = k
	}
	return g, cells
}
