package grid

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Block codec: PackedGrid is the block-compressed on-disk encoding of a
// sorted cell run — the external sort's spill-run format, and the body of
// the AWG2 grid snapshot earlier builds wrote into checkpoints (still read,
// no longer written). Every in-memory grid is a FlatGrid; a PackedGrid
// exists only while a run is retained or being spilled. Cells are grouped
// into blocks of up to packedBlockCells cells; within a block every
// coordinate is frame-of-reference coded against the block's per-dimension
// minimum and bit-packed at the block's per-dimension width, and masses —
// integer point counts everywhere upstream of the wavelet transform — are
// bit-packed at the width of the block's largest count instead of spending
// a float64 each. A block whose masses are not small non-negative integers
// (fractional or ≥ 2³², which no quantization grid produces) stores raw
// float64s, so the encoding is lossless for any grid.
//
// The layout of one block payload (all integers little-endian):
//
//	base      d × uint16  per-dimension minimum coordinate
//	widths    d × uint8   bits per coordinate delta (0…16)
//	massMode  uint8       0 = bit-packed integer masses, 1 = raw float64
//	massWidth uint8       bits per mass when massMode == 0 (0…32)
//	count     uint16      cells in this block (1…packedBlockCells)
//	coords    ⌈count·Σwidths ⁄ 8⌉ bytes, cell-major, LSB-first
//	masses    ⌈count·massWidth ⁄ 8⌉ bytes, or count × 8 raw float64 bytes
//
// Sorted grids change slowly within a 4096-cell window, so the deltas pack
// to a few bits and a typical quantization run costs ~2–4 bytes per cell
// against the flat 2·d+8 — the same spill budget holds 2–4× more cells.
// Cell order is the caller's: cell i of the packed run is cell i of the
// FlatGrid it was packed from.
const (
	packedBlockCells = 4096

	packedMassInts   = 0
	packedMassFloats = 1
)

// PackedGrid is a block-compressed sorted cell run; see the comment above
// for the encoding. The zero value is an empty grid with no dimensions;
// build one with PackFlat or a PackedBuilder.
type PackedGrid struct {
	// Size is the number of cells along each dimension.
	Size []int

	n    int    // stored cells
	data []byte // concatenated block payloads
	off  []uint32
}

// Len returns the number of stored cells, matching FlatGrid.Len on the
// equivalent grid.
func (p *PackedGrid) Len() int { return p.n }

// Bytes returns the resident footprint of the packed representation: the
// block payload bytes plus the block offset index. This is the quantity the
// external sort's spill budget accounts.
func (p *PackedGrid) Bytes() int64 {
	return int64(len(p.data)) + int64(len(p.off))*4 + int64(len(p.Size))*8
}

// blocks returns the number of sealed blocks.
func (p *PackedGrid) blocks() int {
	if len(p.off) == 0 {
		return 0
	}
	return len(p.off) - 1
}

// payload returns the raw payload bytes of block b.
func (p *PackedGrid) payload(b int) []byte { return p.data[p.off[b]:p.off[b+1]] }

// decodeBlockInto decodes block b into coords (count·d values) and masses
// (count values), which must be large enough, and returns the cell count.
// It trusts the payload — only this package writes blocks — so it performs
// no validation; file-facing readers go through decodePackedBlock instead.
// It is the decoder of retained (never spilled) external-sort runs.
func (p *PackedGrid) decodeBlockInto(b int, coords []uint16, masses []float64) int {
	d := len(p.Size)
	pl := p.payload(b)
	widths := pl[2*d : 3*d]
	mode := pl[3*d]
	mw := uint(pl[3*d+1])
	count := int(binary.LittleEndian.Uint16(pl[3*d+2:]))
	sumW := 0
	br := bitReader{b: pl[3*d+4:]}
	for j := 0; j < d; j++ {
		sumW += int(widths[j])
	}
	for i := 0; i < count; i++ {
		for j := 0; j < d; j++ {
			coords[i*d+j] = binary.LittleEndian.Uint16(pl[2*j:]) + uint16(br.read(uint(widths[j])))
		}
	}
	massOff := 3*d + 4 + (count*sumW+7)/8
	if mode == packedMassInts {
		mr := bitReader{b: pl[massOff:]}
		for i := 0; i < count; i++ {
			masses[i] = float64(mr.read(mw))
		}
	} else {
		for i := 0; i < count; i++ {
			masses[i] = math.Float64frombits(binary.LittleEndian.Uint64(pl[massOff+8*i:]))
		}
	}
	return count
}

// PackFlat compresses f into the block representation, preserving cell
// order (cell i of the result is cell i of f).
func PackFlat(f *FlatGrid) *PackedGrid {
	d := f.Dim()
	bld := NewPackedBuilder(f.Size, f.Len())
	for i := 0; i < f.Len(); i++ {
		bld.Append(f.Coords[i*d:(i+1)*d], f.Vals[i])
	}
	return bld.Grid()
}

// PackedBuilder appends cells (in the caller's order) into a growing
// PackedGrid, sealing a block every packedBlockCells cells.
type PackedBuilder struct {
	g        *PackedGrid
	d        int
	coords   []uint16 // staging block, up to packedBlockCells·d
	masses   []float64
	min, max []uint16 // per-dimension frame scratch of seal
}

// NewPackedBuilder returns a builder for a grid with the given
// per-dimension sizes; expected (≥ 0) sizes the staging buffers for grids
// smaller than one block so tiny runs do not pay full-block scratch.
func NewPackedBuilder(size []int, expected int) *PackedBuilder {
	s := append([]int(nil), size...)
	d := len(s)
	buf := packedBlockCells
	if expected >= 0 && expected < buf {
		buf = expected
	}
	return &PackedBuilder{
		g:      &PackedGrid{Size: s, off: []uint32{0}},
		d:      d,
		coords: make([]uint16, 0, buf*d),
		masses: make([]float64, 0, buf),
		min:    make([]uint16, d),
		max:    make([]uint16, d),
	}
}

// Append adds one cell. The caller keeps cells unique and ordered, exactly
// as with FlatGrid.Append.
func (b *PackedBuilder) Append(coords []uint16, mass float64) {
	if len(b.masses) == packedBlockCells {
		b.seal()
	}
	b.coords = append(b.coords, coords...)
	b.masses = append(b.masses, mass)
}

// Grid seals any staged cells and returns the built grid. The builder must
// not be used afterwards.
func (b *PackedBuilder) Grid() *PackedGrid {
	if len(b.masses) > 0 {
		b.seal()
	}
	return b.g
}

// seal encodes the staging block (see the format comment at the top of the
// file) and appends it to the grid.
func (b *PackedBuilder) seal() {
	count := len(b.masses)
	d := b.d
	for j := 0; j < d; j++ {
		b.min[j], b.max[j] = b.coords[j], b.coords[j]
	}
	for i := 1; i < count; i++ {
		for j := 0; j < d; j++ {
			c := b.coords[i*d+j]
			if c < b.min[j] {
				b.min[j] = c
			}
			if c > b.max[j] {
				b.max[j] = c
			}
		}
	}
	mode, mw := byte(packedMassInts), uint(0)
	for _, v := range b.masses {
		u := uint64(v)
		if !(v >= 0 && float64(u) == v && u < 1<<32) {
			mode, mw = packedMassFloats, 0
			break
		}
		if w := uint(bits.Len64(u)); w > mw {
			mw = w
		}
	}
	g := b.g
	data := g.data
	for j := 0; j < d; j++ {
		data = append(data, byte(b.min[j]), byte(b.min[j]>>8))
	}
	widthsOff := len(data)
	for j := 0; j < d; j++ {
		data = append(data, byte(bits.Len16(b.max[j]-b.min[j])))
	}
	data = append(data, mode, byte(mw), byte(count), byte(count>>8))
	bw := bitWriter{out: data}
	for i := 0; i < count; i++ {
		for j := 0; j < d; j++ {
			bw.write(uint64(b.coords[i*d+j]-b.min[j]), uint(data[widthsOff+j]))
		}
	}
	bw.flushByte()
	data = bw.out
	if mode == packedMassInts {
		bw = bitWriter{out: data}
		for _, v := range b.masses {
			bw.write(uint64(v), mw)
		}
		bw.flushByte()
		data = bw.out
	} else {
		var raw [8]byte
		for _, v := range b.masses {
			binary.LittleEndian.PutUint64(raw[:], math.Float64bits(v))
			data = append(data, raw[:]...)
		}
	}
	g.data = data
	g.n += count
	g.off = append(g.off, uint32(len(data)))
	b.coords = b.coords[:0]
	b.masses = b.masses[:0]
}

// --- bit-level plumbing ---------------------------------------------------

// bitWriter appends LSB-first bit fields to a byte slice. Values are at
// most 32 bits wide, so the accumulator never overflows (n < 8 between
// writes).
type bitWriter struct {
	out []byte
	acc uint64
	n   uint
}

func (w *bitWriter) write(v uint64, bitCount uint) {
	if bitCount == 0 {
		return
	}
	w.acc |= v << w.n
	w.n += bitCount
	for w.n >= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
		w.n -= 8
	}
}

// flushByte pads the pending bits to a byte boundary.
func (w *bitWriter) flushByte() {
	if w.n > 0 {
		w.out = append(w.out, byte(w.acc))
		w.acc, w.n = 0, 0
	}
}

// bitReader consumes LSB-first bit fields from a byte slice. Fields are at
// most 32 bits wide; the invariant n < 8 between reads bounds the
// accumulator exactly like bitWriter's.
type bitReader struct {
	b   []byte
	pos int
	acc uint64
	n   uint
}

func (r *bitReader) read(bitCount uint) uint64 {
	if bitCount == 0 {
		return 0
	}
	for r.n < bitCount {
		r.acc |= uint64(r.b[r.pos]) << r.n
		r.pos++
		r.n += 8
	}
	v := r.acc & (1<<bitCount - 1)
	r.acc >>= bitCount
	r.n -= bitCount
	return v
}

// decodePackedBlock validates and decodes one block payload read from an
// untrusted source (a spill file or an AWG2 snapshot) into coords and
// masses, which must hold packedBlockCells·d and packedBlockCells values —
// the decode is bounded by the block size no matter what the stream claims.
// It returns the cell count or a descriptive error; it never panics.
func decodePackedBlock(payload []byte, d int, coords []uint16, masses []float64) (int, error) {
	hdr := 3*d + 4
	if len(payload) < hdr {
		return 0, fmt.Errorf("block payload of %d bytes shorter than its %d-byte header", len(payload), hdr)
	}
	widths := payload[2*d : 3*d]
	sumW := 0
	for j, w := range widths {
		if w > 16 {
			return 0, fmt.Errorf("coordinate width %d of dimension %d exceeds 16 bits", w, j)
		}
		sumW += int(w)
	}
	mode := payload[3*d]
	mw := uint(payload[3*d+1])
	if mode != packedMassInts && mode != packedMassFloats {
		return 0, fmt.Errorf("unknown mass mode %d", mode)
	}
	if mode == packedMassInts && mw > 32 {
		return 0, fmt.Errorf("mass width %d exceeds 32 bits", mw)
	}
	count := int(binary.LittleEndian.Uint16(payload[3*d+2:]))
	if count == 0 || count > packedBlockCells {
		return 0, fmt.Errorf("block cell count %d out of range [1,%d]", count, packedBlockCells)
	}
	if count*d > len(coords) || count > len(masses) {
		return 0, fmt.Errorf("block cell count %d exceeds the stream's declared size", count)
	}
	coordBytes := (count*sumW + 7) / 8
	massBytes := count * 8
	if mode == packedMassInts {
		massBytes = (count*int(mw) + 7) / 8
	}
	if len(payload) != hdr+coordBytes+massBytes {
		return 0, fmt.Errorf("block payload of %d bytes, want %d for %d cells", len(payload), hdr+coordBytes+massBytes, count)
	}
	br := bitReader{b: payload[hdr:]}
	for i := 0; i < count; i++ {
		for j := 0; j < d; j++ {
			base := int(binary.LittleEndian.Uint16(payload[2*j:]))
			c := base + int(br.read(uint(widths[j])))
			if c > 0xFFFF {
				return 0, fmt.Errorf("cell %d coordinate %d overflows uint16 in dimension %d", i, c, j)
			}
			coords[i*d+j] = uint16(c)
		}
	}
	massOff := hdr + coordBytes
	if mode == packedMassInts {
		mr := bitReader{b: payload[massOff:]}
		for i := 0; i < count; i++ {
			masses[i] = float64(mr.read(mw))
		}
	} else {
		for i := 0; i < count; i++ {
			masses[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[massOff+8*i:]))
		}
	}
	return count, nil
}

// maxPackedPayload bounds a d-dimensional block payload: header plus
// full-width coordinates plus raw float64 masses. Readers use it to reject
// an adversarial length prefix before allocating or reading anything.
func maxPackedPayload(d int) int {
	return 3*d + 4 + (packedBlockCells*16*d+7)/8 + packedBlockCells*8
}
