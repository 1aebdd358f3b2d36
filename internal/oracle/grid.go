// Package oracle is the sequential, map-keyed reference implementation of
// AdaWave that the production pipeline is checked against. It renders the
// paper's “grid labeling” structure in its most literal form — a hash map
// from packed cell coordinates to density — and runs every stage (quantize,
// sparse wavelet transform, adaptive threshold, breadth-first connected
// components, lookup-table assignment) one cell at a time, with none of the
// flat engine's radix sorts, line sweeps, union-find or sharding.
//
// Only tests import this package: the equivalence suites require the
// Engine, the streaming Session and the out-of-core path to reproduce its
// output label for label, and a root test keeps it out of every production
// import graph.
package oracle

import (
	"fmt"
	"sort"

	"adawave/internal/grid"
	"adawave/internal/wavelet"
)

// Key identifies a cell by its integer coordinates, packed little-endian as
// one uint16 per dimension. Strings hash in O(d) and support arbitrary
// dimension (a packed uint64 caps out at 9 dimensions × 7 bits, too small
// for the paper's 33-dimensional Dermatology workload).
type Key string

// MakeKey packs coords into a Key. Coordinates must be in [0, 65535].
func MakeKey(coords []int) Key {
	buf := make([]byte, 2*len(coords))
	for j, c := range coords {
		if c < 0 || c > 0xFFFF {
			panic(fmt.Sprintf("oracle: coordinate %d out of range [0,65535]", c))
		}
		putCoord(buf, j, c)
	}
	return Key(buf)
}

// Dim returns the number of dimensions encoded in the key.
func (k Key) Dim() int { return len(k) / 2 }

// Coord returns the coordinate of dimension j.
func (k Key) Coord(j int) int {
	return int(k[2*j]) | int(k[2*j+1])<<8
}

// Coords decodes all coordinates.
func (k Key) Coords() []int {
	d := k.Dim()
	out := make([]int, d)
	for j := 0; j < d; j++ {
		out[j] = k.Coord(j)
	}
	return out
}

// With returns a copy of the key with dimension j replaced by c.
func (k Key) With(j, c int) Key {
	if c < 0 || c > 0xFFFF {
		panic(fmt.Sprintf("oracle: coordinate %d out of range [0,65535]", c))
	}
	buf := []byte(k)
	putCoord(buf, j, c)
	return Key(buf)
}

// putCoord stamps coordinate c into dimension j of a packed key buffer.
func putCoord(buf []byte, j, c int) {
	buf[2*j] = byte(c)
	buf[2*j+1] = byte(c >> 8)
}

// AppendShiftedKey appends the packed bytes of k's ancestor key after
// `levels` dyadic downsamplings (every coordinate right-shifted by levels)
// to dst and returns dst — the lookup table's cell correspondence: probing
// a map via m[Key(AppendShiftedKey(buf[:0], k, levels))] compiles to an
// allocation-free lookup, so per-point assignment sweeps reuse one buffer.
func AppendShiftedKey(dst []byte, k Key, levels int) []byte {
	d := k.Dim()
	for j := 0; j < d; j++ {
		c := k.Coord(j) >> uint(levels)
		dst = append(dst, byte(c), byte(c>>8))
	}
	return dst
}

// Grid is a sparse d-dimensional grid of cell densities. Only cells with a
// recorded (usually non-zero) density are stored.
type Grid struct {
	// Size is the number of cells along each dimension at the grid's
	// current resolution.
	Size []int
	// Cells maps occupied cells to their density.
	Cells map[Key]float64
}

// New returns an empty grid with the given per-dimension sizes.
func New(size []int) *Grid {
	s := append([]int(nil), size...)
	return &Grid{Size: s, Cells: make(map[Key]float64)}
}

// Dim returns the dimensionality of the grid.
func (g *Grid) Dim() int { return len(g.Size) }

// Len returns the number of occupied cells (the paper's m).
func (g *Grid) Len() int { return len(g.Cells) }

// Density returns the density of the cell (0 when unoccupied).
func (g *Grid) Density(key Key) float64 { return g.Cells[key] }

// SortedDensities returns all cell densities in descending order — the
// curve on which the adaptive threshold (paper Fig. 6) is chosen.
func (g *Grid) SortedDensities() []float64 {
	out := make([]float64, 0, len(g.Cells))
	for _, v := range g.Cells {
		out = append(out, v)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

// Threshold returns a new grid keeping only cells with density ≥ min.
func (g *Grid) Threshold(min float64) *Grid {
	out := New(g.Size)
	for k, v := range g.Cells {
		if v >= min {
			out.Cells[k] = v
		}
	}
	return out
}

// Clone returns a deep copy.
func (g *Grid) Clone() *Grid {
	out := New(g.Size)
	for k, v := range g.Cells {
		out.Cells[k] = v
	}
	return out
}

// SortedKeys returns occupied cell keys in lexicographic order; used to
// make iteration deterministic.
func (g *Grid) SortedKeys() []Key {
	keys := make([]Key, 0, len(g.Cells))
	for k := range g.Cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// TransformDim applies one level of the analysis low-pass wavelet filter
// along dimension j, downsampling that dimension by 2. It is the sparse
// scatter counterpart of wavelet.Approx: each occupied cell contributes to
// at most ⌈len(Lo)/2⌉ output cells, so the cost is O(m·len(Lo)) and the
// full Mᵈ grid is never materialized. Boundary handling is zero extension,
// which is exact here because absent cells really do have density zero.
func TransformDim(g *Grid, j int, b wavelet.Basis) *Grid {
	if j < 0 || j >= g.Dim() {
		panic(fmt.Sprintf("oracle: TransformDim dimension %d out of range (grid is %d-D)", j, g.Dim()))
	}
	newSize := append([]int(nil), g.Size...)
	outLen := (g.Size[j] + 1) / 2
	newSize[j] = outLen
	out := New(newSize)
	keyBuf := make([]byte, 2*g.Dim())
	for key, v := range g.Cells {
		i := key.Coord(j)
		copy(keyBuf, key)
		for t, h := range b.Lo {
			pos := i + b.Center - t
			if pos < 0 || pos%2 != 0 {
				continue
			}
			k := pos / 2
			if k >= outLen {
				continue
			}
			putCoord(keyBuf, j, k)
			out.Cells[Key(keyBuf)] += h * v
		}
	}
	return out
}

// Transform applies one full decomposition level: the low-pass filter along
// every dimension in turn (the separable d-D DWT of the paper's Alg. 3,
// keeping only the LL…L subband).
func Transform(g *Grid, b wavelet.Basis) *Grid {
	out, _ := transformCapped(g, b, 0)
	return out
}

// transformCapped is Transform with an occupied-cell growth cap. Filters
// longer than two taps scatter each cell into several output cells per
// dimension, so in high dimension the sparse grid can densify exponentially
// (m × 2ᵈ in the worst case); exceeding maxCells aborts with an error
// instead of consuming the machine. maxCells ≤ 0 disables the cap.
func transformCapped(g *Grid, b wavelet.Basis, maxCells int) (*Grid, error) {
	out := g
	for j := 0; j < g.Dim(); j++ {
		out = TransformDim(out, j, b)
		if maxCells > 0 && out.Len() > maxCells {
			return nil, fmt.Errorf(
				"grid: wavelet transform densified the sparse grid to %d cells after dimension %d (cap %d); use the 2-tap haar basis for high-dimensional data",
				out.Len(), j+1, maxCells)
		}
	}
	return out, nil
}

// growthCap restates the flat transform's per-level occupied-cell budget:
// 32× the input cells, floored at 2¹⁶ and capped at
// grid.DefaultTransformCellCap, so both pipelines abort a densifying
// high-dimensional transform at the same level.
func growthCap(m int) int {
	return min(max(32*m, 1<<16), grid.DefaultTransformCellCap)
}

// TransformLevels applies levels full decomposition levels and returns the
// approximation grid of each level (level 1 first) — the multi-resolution
// stack the paper's property list advertises. Growth past growthCap aborts
// with an error (long filters densify sparse high-dimensional grids
// exponentially; switch to Haar).
func TransformLevels(g *Grid, b wavelet.Basis, levels int) ([]*Grid, error) {
	if levels < 1 {
		return nil, fmt.Errorf("grid: levels must be ≥ 1, got %d", levels)
	}
	out := make([]*Grid, 0, levels)
	cur := g
	for l := 0; l < levels; l++ {
		for j := 0; j < cur.Dim(); j++ {
			if cur.Size[j] < 2 {
				return nil, fmt.Errorf("grid: dimension %d of size %d too small for level %d", j, cur.Size[j], l+1)
			}
		}
		next, err := transformCapped(cur, b, growthCap(cur.Len()))
		if err != nil {
			return nil, err
		}
		cur = next
		out = append(out, cur)
	}
	return out, nil
}

// DropBelow removes cells with density < min in place and returns the
// number of cells removed. The paper's “coefficient denoising” step uses
// this with a small epsilon to discard near-zero wavelet coefficients.
func (g *Grid) DropBelow(min float64) int {
	removed := 0
	for k, v := range g.Cells {
		if v < min {
			delete(g.Cells, k)
			removed++
		}
	}
	return removed
}
