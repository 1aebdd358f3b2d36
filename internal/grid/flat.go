// Package grid implements the sparse-grid substrate of AdaWave: the “grid
// labeling” data structure from the paper (FlatGrid), the feature-space
// quantizer, the per-dimension sparse wavelet transform, connected-
// component labeling over occupied cells, incremental merges, snapshots
// and the out-of-core external sort.
package grid

import (
	"slices"
	"sync"
)

// FlatGrid is the paper's “grid labeling” structure — only occupied cells
// are stored, so memory is O(occupied cells) instead of O(Mᵈ) — as a
// struct of arrays: packed uint16 cell coordinates plus a parallel density
// slice. Two flat slices radix-sort in O(m·d) and sweep with sequential
// memory access, with no hashing or per-cell allocation; every stage of the
// engine (quantization, line-sweep transform, union-find components,
// ancestor assignment) runs on it. Cell order is an explicit,
// documented property of each operation rather than map-iteration noise:
// quantization and the full separable transform leave the grid in canonical
// order (lexicographic by dimension 0 first), which Find relies on.
// Quantization reaches that order in one of two ways (see
// QuantizeDatasetCtx): when the dense key space Mᵈ is small next to the
// input it counts packed cell keys, whose ascending order is canonical
// order, into a histogram and emits the occupied ones; otherwise it
// radix-sorts per-shard cell lists and merges them.
type FlatGrid struct {
	// Size is the number of cells along each dimension.
	Size []int
	// Coords holds the cell coordinates, Dim() values per cell:
	// cell i occupies Coords[i*Dim() : (i+1)*Dim()].
	Coords []uint16
	// Vals holds one density per cell.
	Vals []float64
}

// NewFlat returns an empty flat grid with the given per-dimension sizes and
// room for capacity cells.
func NewFlat(size []int, capacity int) *FlatGrid {
	s := append([]int(nil), size...)
	return &FlatGrid{
		Size:   s,
		Coords: make([]uint16, 0, capacity*len(s)),
		Vals:   make([]float64, 0, capacity),
	}
}

// Dim returns the dimensionality of the grid.
func (f *FlatGrid) Dim() int { return len(f.Size) }

// Len returns the number of stored cells (the paper's m).
func (f *FlatGrid) Len() int { return len(f.Vals) }

// CellCoords returns the coordinate slice of cell i (a view, not a copy).
func (f *FlatGrid) CellCoords(i int) []uint16 {
	d := f.Dim()
	return f.Coords[i*d : (i+1)*d]
}

// Append adds a cell. The caller is responsible for keeping cells unique.
func (f *FlatGrid) Append(coords []uint16, v float64) {
	f.Coords = append(f.Coords, coords...)
	f.Vals = append(f.Vals, v)
}

// TotalMass returns the sum of all cell densities.
func (f *FlatGrid) TotalMass() float64 {
	var s float64
	for _, v := range f.Vals {
		s += v
	}
	return s
}

// SortedDensities returns all cell densities in descending order — the
// curve on which the adaptive threshold (paper Fig. 6) is chosen.
func (f *FlatGrid) SortedDensities() []float64 {
	return f.SortedDensitiesInto(nil)
}

// SortedDensitiesInto is SortedDensities filling buf (whose capacity is
// reused) instead of allocating — the pooled form for callers that sort one
// density curve per level.
func (f *FlatGrid) SortedDensitiesInto(buf []float64) []float64 {
	buf = append(buf[:0], f.Vals...)
	slices.Sort(buf)
	slices.Reverse(buf)
	return buf
}

// DropBelow removes cells with density < min in place, preserving cell
// order, and returns the number of cells removed.
func (f *FlatGrid) DropBelow(min float64) int {
	d := f.Dim()
	w := 0
	for i, v := range f.Vals {
		if v < min {
			continue
		}
		if w != i {
			copy(f.Coords[w*d:(w+1)*d], f.Coords[i*d:(i+1)*d])
			f.Vals[w] = v
		}
		w++
	}
	removed := len(f.Vals) - w
	f.Coords = f.Coords[:w*d]
	f.Vals = f.Vals[:w]
	return removed
}

// Threshold returns a new grid keeping only cells with density ≥ min, in
// the receiver's cell order.
func (f *FlatGrid) Threshold(min float64) *FlatGrid {
	out := NewFlat(f.Size, 0)
	d := f.Dim()
	for i, v := range f.Vals {
		if v >= min {
			out.Coords = append(out.Coords, f.Coords[i*d:(i+1)*d]...)
			out.Vals = append(out.Vals, v)
		}
	}
	return out
}

// Clone returns a deep copy preserving cell order.
func (f *FlatGrid) Clone() *FlatGrid {
	return f.CloneInto(&FlatGrid{})
}

// CloneInto deep-copies f into dst, reusing dst's slice capacity, and
// returns dst — Clone for pooled grids.
func (f *FlatGrid) CloneInto(dst *FlatGrid) *FlatGrid {
	dst.Size = append(dst.Size[:0], f.Size...)
	dst.Coords = append(dst.Coords[:0], f.Coords...)
	dst.Vals = append(dst.Vals[:0], f.Vals...)
	return dst
}

// SortCanonical reorders cells into canonical order: lexicographic by
// coordinate, dimension 0 most significant.
func (f *FlatGrid) SortCanonical() {
	d := f.Dim()
	if f.Len() < 2 || d == 0 {
		return
	}
	s := getFlatScratch()
	defer putFlatScratch(s)
	f.Coords, f.Vals, _ = radixSortCells(f.Coords, f.Vals, nil, d, f.Size, canonicalPasses(d), s)
}

// canonicalPasses returns the LSD radix pass order that sorts d-dimensional
// cells into canonical order: dimension d−1 first, dimension 0 last.
func canonicalPasses(d int) []int {
	passes := make([]int, 0, d)
	for p := d - 1; p >= 0; p-- {
		passes = append(passes, p)
	}
	return passes
}

// Find returns the index of the cell with the given coordinates, or −1.
// The grid must be in canonical order (see SortCanonical); quantization and
// the full separable transform produce canonical grids.
func (f *FlatGrid) Find(coords []uint16) int {
	d := f.Dim()
	n := f.Len()
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cmpCoords(f.Coords[mid*d:(mid+1)*d], coords) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < n && cmpCoords(f.Coords[lo*d:(lo+1)*d], coords) == 0 {
		return lo
	}
	return -1
}

// cmpCoords compares coordinate tuples in canonical (dimension-0-first
// lexicographic) order.
func cmpCoords(a, b []uint16) int {
	for j := range a {
		if a[j] != b[j] {
			if a[j] < b[j] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// keyByteLess orders coordinate tuples by their little-endian byte
// encoding: dimension 0 first, and within a dimension the low byte before
// the high byte. Component labeling numbers components in increasing
// keyByteLess order of their smallest cell, so component ids are a pure
// function of the occupied cell set — independent of cell order, worker
// count and sharding — and every label the pipeline emits is bit-identical
// across runs.
func keyByteLess(a, b []uint16) bool {
	for j := range a {
		al, bl := a[j]&0xFF, b[j]&0xFF
		if al != bl {
			return al < bl
		}
		ah, bh := a[j]>>8, b[j]>>8
		if ah != bh {
			return ah < bh
		}
	}
	return false
}

// flatScratch holds the reusable buffers of the flat engine: radix-sort
// ping-pong arrays, counting-sort buckets, and the epoch-tracked line
// accumulator of the sparse transform. Instances are pooled so repeated
// Cluster calls (and concurrent workers) do not reallocate per pass.
type flatScratch struct {
	coords  []uint16  // radix scatter buffer (m·d)
	vals    []float64 // radix scatter buffer (m)
	idx     []int32   // radix scatter buffer for index payloads (m)
	counts  []int32   // counting-sort buckets (max dimension size)
	ints    []int32   // line-start offsets of the transform sweep
	acc     []float64 // per-line output accumulator (outLen)
	epoch   []uint32  // acc validity stamps, paired with epochN
	epochN  uint32
	touched []int32 // output coordinates hit by the current line
	// outCoords/outVals collect one worker's transform output before
	// concatenation into the result grid.
	outCoords []uint16
	outVals   []float64
}

var flatScratchPool = sync.Pool{New: func() any { return new(flatScratch) }}

func getFlatScratch() *flatScratch  { return flatScratchPool.Get().(*flatScratch) }
func putFlatScratch(s *flatScratch) { flatScratchPool.Put(s) }

// ensureAcc sizes the line accumulator for n output positions, preserving
// epoch stamps when the backing array is reused (stale stamps are always
// strictly below the next epoch, so reuse is safe).
func (s *flatScratch) ensureAcc(n int) {
	if cap(s.acc) < n {
		s.acc = make([]float64, n)
		s.epoch = make([]uint32, n)
		s.epochN = 0
	}
	s.acc = s.acc[:n]
	s.epoch = s.epoch[:n]
}

// nextEpoch advances the accumulator stamp, clearing on wraparound.
func (s *flatScratch) nextEpoch() uint32 {
	s.epochN++
	if s.epochN == 0 {
		for i := range s.epoch {
			s.epoch[i] = 0
		}
		s.epochN = 1
	}
	return s.epochN
}

// growCounts returns a zeroed bucket slice of length n.
func (s *flatScratch) growCounts(n int) []int32 {
	if cap(s.counts) < n {
		s.counts = make([]int32, n)
	}
	c := s.counts[:n]
	for i := range c {
		c[i] = 0
	}
	return c
}

// radixSortCells stable-sorts cells by the given key dimensions, least
// significant pass first (LSD radix with one counting sort per pass). It
// returns the sorted coords/vals/idx slices, which may be the scratch
// buffers; the displaced buffers are retained in s for reuse. vals may be
// nil when only coordinates are being sorted, and idx is an optional int32
// payload (quantization threads point indices through the sort so each
// point's cell index falls out of the dedupe pass for free).
func radixSortCells(coords []uint16, vals []float64, idx []int32, d int, sizes []int, passes []int, s *flatScratch) ([]uint16, []float64, []int32) {
	n := len(coords) / d
	if n < 2 {
		return coords, vals, idx
	}
	if cap(s.coords) < n*d {
		s.coords = make([]uint16, n*d)
	}
	srcC, dstC := coords, s.coords[:n*d]
	var srcV, dstV []float64
	if vals != nil {
		if cap(s.vals) < n {
			s.vals = make([]float64, n)
		}
		srcV, dstV = vals, s.vals[:n]
	}
	var srcI, dstI []int32
	if idx != nil {
		if cap(s.idx) < n {
			s.idx = make([]int32, n)
		}
		srcI, dstI = idx, s.idx[:n]
	}
	for _, p := range passes {
		if sizes[p] <= 1 {
			continue
		}
		counts := s.growCounts(sizes[p])
		for i := 0; i < n; i++ {
			counts[srcC[i*d+p]]++
		}
		var sum int32
		for i := range counts {
			c := counts[i]
			counts[i] = sum
			sum += c
		}
		for i := 0; i < n; i++ {
			key := srcC[i*d+p]
			pos := int(counts[key])
			counts[key]++
			copy(dstC[pos*d:(pos+1)*d], srcC[i*d:(i+1)*d])
			if vals != nil {
				dstV[pos] = srcV[i]
			}
			if idx != nil {
				dstI[pos] = srcI[i]
			}
		}
		srcC, dstC = dstC, srcC
		srcV, dstV = dstV, srcV
		srcI, dstI = dstI, srcI
	}
	s.coords = dstC
	if vals != nil {
		s.vals = dstV
	}
	if idx != nil {
		s.idx = dstI
	}
	return srcC, srcV, srcI
}
