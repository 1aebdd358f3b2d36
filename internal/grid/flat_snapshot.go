package grid

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Grid snapshots: a grid serializes to a compact little-endian binary
// stream so a long-lived session can checkpoint its live base grid (and a
// restarted process can warm-start from it) without replaying every point.
// The format is versioned by a 4-byte magic; all integers are little-endian.
// ReadSnapshot restores either version:
//
//	"AWG1" | dim uint32 | size[dim] uint32 | cells uint64
//	     | coords[cells*dim] uint16 | vals[cells] float64
//
//	"AWG2" | dim uint32 | size[dim] uint32 | cells uint64
//	     | per block: payloadLen uint32, then the packed block payload
//	       (see packed.go for the block layout)
//
// AWG1 is what FlatGrid.WriteSnapshot emits. AWG2 is the block-compressed
// encoding earlier builds wrote into checkpoints; it is read so their data
// directories still restore, and no longer written.

var snapshotMagic = [4]byte{'A', 'W', 'G', '1'}
var snapshotMagic2 = [4]byte{'A', 'W', 'G', '2'}

// ErrUnserializableGrid is returned by WriteSnapshot for a grid holding a
// non-finite cell mass: such a grid is corrupt, and no byte stream restored
// by ReadSnapshot could represent it.
var ErrUnserializableGrid = errors.New("grid: non-finite cell mass cannot be snapshotted")

// WriteSnapshot serializes the grid to w in the snapshot format.
//
// Tombstone cells (mass ≤ 0, left behind by a streaming session's
// signed-mass removal until the next merge or compaction sweeps them) are
// skipped: they are transient in-session state no consumer ever clusters,
// and ReadSnapshot rejects them, so writing them would produce a snapshot
// that can never be restored. Sweeping on write keeps every written
// snapshot round-trippable regardless of when in an append/remove sequence
// it is taken. A non-finite mass, by contrast, is corruption and is
// reported as ErrUnserializableGrid.
func (f *FlatGrid) WriteSnapshot(w io.Writer) error {
	d := f.Dim()
	live := 0
	for _, v := range f.Vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("grid: write snapshot: cell mass %v: %w", v, ErrUnserializableGrid)
		}
		if v > 0 {
			live++
		}
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return fmt.Errorf("grid: write snapshot: %w", err)
	}
	hdr := make([]uint32, 0, 1+d)
	hdr = append(hdr, uint32(d))
	for _, s := range f.Size {
		hdr = append(hdr, uint32(s))
	}
	if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
		return fmt.Errorf("grid: write snapshot header: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(live)); err != nil {
		return fmt.Errorf("grid: write snapshot header: %w", err)
	}
	if live == f.Len() {
		// No tombstones: write the backing slices in two straight runs.
		if err := binary.Write(bw, binary.LittleEndian, f.Coords); err != nil {
			return fmt.Errorf("grid: write snapshot coords: %w", err)
		}
		if err := binary.Write(bw, binary.LittleEndian, f.Vals); err != nil {
			return fmt.Errorf("grid: write snapshot vals: %w", err)
		}
	} else {
		// Tombstones present: emit only live cells. Skipping preserves the
		// canonical cell order (a subsequence of an ordered sequence), so
		// the restored grid satisfies ReadSnapshot's ordering check.
		for i, v := range f.Vals {
			if v <= 0 {
				continue
			}
			if err := binary.Write(bw, binary.LittleEndian, f.Coords[i*d:(i+1)*d]); err != nil {
				return fmt.Errorf("grid: write snapshot coords: %w", err)
			}
		}
		for _, v := range f.Vals {
			if v <= 0 {
				continue
			}
			if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
				return fmt.Errorf("grid: write snapshot vals: %w", err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("grid: write snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot restores a grid written by WriteSnapshot, validating the
// magic, the coordinate ranges against the recorded sizes, and mass
// finiteness, so a truncated or corrupted stream is reported instead of
// yielding a quietly broken grid.
func ReadSnapshot(r io.Reader) (*FlatGrid, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("grid: read snapshot magic: %w", err)
	}
	if magic != snapshotMagic && magic != snapshotMagic2 {
		return nil, fmt.Errorf("grid: bad snapshot magic %q", magic[:])
	}
	var d32 uint32
	if err := binary.Read(br, binary.LittleEndian, &d32); err != nil {
		return nil, fmt.Errorf("grid: read snapshot header: %w", err)
	}
	const maxDim = 1 << 10 // far above any real workload; bounds allocation
	if d32 == 0 || d32 > maxDim {
		return nil, fmt.Errorf("grid: snapshot dimension %d out of range", d32)
	}
	d := int(d32)
	size := make([]int, d)
	for j := range size {
		var s uint32
		if err := binary.Read(br, binary.LittleEndian, &s); err != nil {
			return nil, fmt.Errorf("grid: read snapshot header: %w", err)
		}
		if s == 0 || s > 0x10000 {
			return nil, fmt.Errorf("grid: snapshot size %d of dimension %d out of range", s, j)
		}
		size[j] = int(s)
	}
	var cells uint64
	if err := binary.Read(br, binary.LittleEndian, &cells); err != nil {
		return nil, fmt.Errorf("grid: read snapshot header: %w", err)
	}
	max := uint64(1)
	for _, s := range size {
		max *= uint64(s)
		if max > 1<<40 {
			max = 1 << 40 // cap the check; sparse grids never approach this
			break
		}
	}
	if cells > max {
		return nil, fmt.Errorf("grid: snapshot cell count %d exceeds grid volume", cells)
	}
	if magic == snapshotMagic2 {
		return readSnapshotV2Body(br, size, cells)
	}
	// Read each section in bounded chunks, growing the buffer with the
	// data actually present: a corrupt header declaring a huge cell count
	// then fails on the first missing chunk instead of provoking a giant
	// up-front allocation from a few bytes of input. All section-size math
	// stays in uint64: converting the declared cell count to int first
	// would truncate (and the product cells*d could wrap) on 32-bit
	// platforms, letting an adversarial header bypass this bounded-chunk
	// guard. cells ≤ 2^40 and d ≤ 2^10 are already enforced above, so the
	// uint64 products below cannot overflow.
	const chunk = 1 << 16
	initial := chunk
	if cells < chunk {
		initial = int(cells)
	}
	f := NewFlat(size, initial)
	var chunkC [chunk]uint16
	for read, total := uint64(0), cells*uint64(d); read < total; {
		n := chunk
		if rem := total - read; rem < chunk {
			n = int(rem)
		}
		if err := binary.Read(br, binary.LittleEndian, chunkC[:n]); err != nil {
			return nil, fmt.Errorf("grid: read snapshot coords: %w", err)
		}
		f.Coords = append(f.Coords, chunkC[:n]...)
		read += uint64(n)
	}
	var chunkV [chunk / 4]float64
	for read := uint64(0); read < cells; {
		n := len(chunkV)
		if rem := cells - read; rem < uint64(len(chunkV)) {
			n = int(rem)
		}
		if err := binary.Read(br, binary.LittleEndian, chunkV[:n]); err != nil {
			return nil, fmt.Errorf("grid: read snapshot vals: %w", err)
		}
		f.Vals = append(f.Vals, chunkV[:n]...)
		read += uint64(n)
	}
	// Every declared cell arrived; f.Len() == cells now fits in memory (and
	// an int) by construction.
	for i := 0; i < f.Len(); i++ {
		for j, c := range f.CellCoords(i) {
			if int(c) >= size[j] {
				return nil, fmt.Errorf("grid: snapshot cell %d coordinate %d out of range in dimension %d", i, c, j)
			}
		}
		// Zero and negative masses are rejected too: tombstones are a
		// transient in-session state the pipeline never clusters, and
		// WriteSnapshot sweeps them on write, so a stream carrying one was
		// not produced by this package.
		if math.IsNaN(f.Vals[i]) || math.IsInf(f.Vals[i], 0) || f.Vals[i] <= 0 {
			return nil, fmt.Errorf("grid: snapshot cell %d has non-positive or non-finite mass %v", i, f.Vals[i])
		}
		// Every consumer (Find, MergeFlatCtx, the transform sweep) assumes
		// strictly increasing canonical order, which also rules out
		// duplicate cells; a reordered or duplicated stream must be
		// reported, not restored.
		if i > 0 && cmpCoords(f.CellCoords(i-1), f.CellCoords(i)) >= 0 {
			return nil, fmt.Errorf("grid: snapshot cells %d and %d out of canonical order", i-1, i)
		}
	}
	return f, nil
}

// readSnapshotV2Body restores the block-encoded body of an AWG2 snapshot,
// whose header ReadSnapshot has already read and validated. Decoding is
// bounded block by block — a corrupt header or length prefix fails before
// any allocation beyond one block's buffers — and the restored cells pass
// exactly the AWG1 validation: coordinates inside the recorded sizes,
// strictly positive finite masses, strict canonical order.
func readSnapshotV2Body(br *bufio.Reader, size []int, cells uint64) (*FlatGrid, error) {
	d := len(size)
	initial := uint64(1 << 16)
	if cells < initial {
		initial = cells
	}
	f := NewFlat(size, int(initial))
	buf := uint64(packedBlockCells)
	if cells < buf {
		buf = cells
	}
	blkCoords := make([]uint16, buf*uint64(d))
	blkMasses := make([]float64, buf)
	payload := make([]byte, 0, 64)
	for remaining := cells; remaining > 0; {
		var plen uint32
		if err := binary.Read(br, binary.LittleEndian, &plen); err != nil {
			return nil, fmt.Errorf("grid: read snapshot block length: %w", err)
		}
		if plen == 0 || int(plen) > maxPackedPayload(d) {
			return nil, fmt.Errorf("grid: snapshot block length %d out of range", plen)
		}
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(br, payload); err != nil {
			return nil, fmt.Errorf("grid: read snapshot block: %w", err)
		}
		count, err := decodePackedBlock(payload, d, blkCoords, blkMasses)
		if err != nil {
			return nil, fmt.Errorf("grid: read snapshot block: %w", err)
		}
		if uint64(count) > remaining {
			return nil, fmt.Errorf("grid: snapshot block of %d cells exceeds declared count", count)
		}
		for i := 0; i < count; i++ {
			cc := blkCoords[i*d : (i+1)*d]
			for j, c := range cc {
				if int(c) >= size[j] {
					return nil, fmt.Errorf("grid: snapshot cell %d coordinate %d out of range in dimension %d", f.Len(), c, j)
				}
			}
			v := blkMasses[i]
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return nil, fmt.Errorf("grid: snapshot cell %d has non-positive or non-finite mass %v", f.Len(), v)
			}
			if m := f.Len(); m > 0 && cmpCoords(f.CellCoords(m-1), cc) >= 0 {
				return nil, fmt.Errorf("grid: snapshot cells %d and %d out of canonical order", m-1, m)
			}
			f.Append(cc, v)
		}
		remaining -= uint64(count)
	}
	return f, nil
}
