package grid

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"testing"
)

// randomCanonicalGrid builds a canonical-order grid of n distinct random
// cells. With prob intMass a cell's mass is a small positive integer count
// (the common post-quantization shape); otherwise an arbitrary float.
func randomPackedGrid(rng *rand.Rand, n, d, scale int, intMass float64) *FlatGrid {
	size := make([]int, d)
	vol := 1
	for j := range size {
		size[j] = scale
		if vol < 1<<30 {
			vol *= scale
		}
	}
	// Asking for more distinct cells than half the grid volume would make
	// rejection sampling crawl (or never finish); clamp.
	if n > vol/2 {
		n = vol / 2
	}
	if n < 1 {
		n = 1
	}
	seen := map[string]bool{}
	g := NewFlat(size, n)
	coords := make([][]uint16, 0, n)
	for len(coords) < n {
		c := make([]uint16, d)
		for j := range c {
			c[j] = uint16(rng.Intn(scale))
		}
		k := string(keyBytes(c))
		if seen[k] {
			continue
		}
		seen[k] = true
		coords = append(coords, c)
	}
	sortCoords(coords)
	for _, c := range coords {
		var mass float64
		if rng.Float64() < intMass {
			mass = float64(1 + rng.Intn(1000))
		} else {
			mass = rng.NormFloat64() * 1e6
			if mass == 0 {
				mass = 0.5
			}
		}
		g.Append(c, mass)
	}
	return g
}

func keyBytes(c []uint16) []byte {
	b := make([]byte, 2*len(c))
	for j, v := range c {
		b[2*j], b[2*j+1] = byte(v>>8), byte(v)
	}
	return b
}

func sortCoords(cs [][]uint16) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cmpCoords(cs[j], cs[j-1]) < 0; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

// unpack decodes p into a fresh FlatGrid through the trusting in-memory
// block decoder, checking each block against the validating file-facing
// decoder on the way.
func unpack(t *testing.T, p *PackedGrid) *FlatGrid {
	t.Helper()
	d := len(p.Size)
	f := NewFlat(p.Size, p.Len())
	coords := make([]uint16, packedBlockCells*d)
	masses := make([]float64, packedBlockCells)
	vc := make([]uint16, packedBlockCells*d)
	vm := make([]float64, packedBlockCells)
	for b := 0; b < p.blocks(); b++ {
		count := p.decodeBlockInto(b, coords, masses)
		vcount, err := decodePackedBlock(p.payload(b), d, vc, vm)
		if err != nil {
			t.Fatalf("block %d: validating decoder: %v", b, err)
		}
		if vcount != count {
			t.Fatalf("block %d: validating decoder saw %d cells, want %d", b, vcount, count)
		}
		for i := 0; i < count; i++ {
			if cmpCoords(vc[i*d:(i+1)*d], coords[i*d:(i+1)*d]) != 0 || math.Float64bits(vm[i]) != math.Float64bits(masses[i]) {
				t.Fatalf("block %d cell %d: decoders disagree", b, i)
			}
			f.Append(coords[i*d:(i+1)*d], masses[i])
		}
	}
	return f
}

// WriteSnapshot serializes the packed grid to w in the AWG2 snapshot
// format — the block payloads verbatim behind a length prefix — which
// earlier builds wrote into checkpoints. Production code writes only AWG1;
// this writer exists to encode the AWG2 fixtures the reader tests need.
func (p *PackedGrid) WriteSnapshot(w io.Writer) error {
	// bufio.Writer errors are sticky: Flush reports the first one.
	bw := bufio.NewWriter(w)
	bw.Write(snapshotMagic2[:])
	hdr := []uint32{uint32(len(p.Size))}
	for _, s := range p.Size {
		hdr = append(hdr, uint32(s))
	}
	binary.Write(bw, binary.LittleEndian, hdr)
	binary.Write(bw, binary.LittleEndian, uint64(p.Len()))
	for b := 0; b < p.blocks(); b++ {
		pl := p.payload(b)
		binary.Write(bw, binary.LittleEndian, uint32(len(pl)))
		bw.Write(pl)
	}
	return bw.Flush()
}

// TestPackedRoundTrip packs random grids across dimensions, sizes (within
// one block and spanning several), and mass shapes, and checks both block
// decoders reproduce every cell bit for bit — and that integer-mass grids
// actually compress below the flat 2·d+8 bytes per cell.
func TestPackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 40; iter++ {
		d := 1 + rng.Intn(4)
		n := 1 + rng.Intn(3*packedBlockCells)
		scale := 8 << rng.Intn(5)
		if maxCells := 1; true {
			for j := 0; j < d; j++ {
				maxCells *= scale
			}
			if n > maxCells/2 {
				n = maxCells / 2
			}
		}
		if n == 0 {
			n = 1
		}
		intMass := 1.0
		if iter%3 == 1 {
			intMass = 0.5
		}
		f := randomPackedGrid(rng, n, d, scale, intMass)
		p := PackFlat(f)
		if p.Len() != f.Len() || len(p.Size) != f.Dim() {
			t.Fatalf("iter %d: packed %d cells dim %d, want %d dim %d", iter, p.Len(), len(p.Size), f.Len(), f.Dim())
		}
		sameGrid(t, f, unpack(t, p), "unpack")
		if intMass == 1.0 {
			flat := int64(f.Len()) * int64(2*d+8)
			if p.Bytes() >= flat {
				t.Fatalf("iter %d: packed %d bytes not below flat %d (n=%d d=%d scale=%d)", iter, p.Bytes(), flat, n, d, scale)
			}
		}
	}
}

// TestPackedSnapshotRoundTrip writes AWG2 snapshots and restores them
// through the shared ReadSnapshot dispatch, and checks the reader applies
// the AWG1 validation to AWG2 cells: a tombstone or a non-finite mass is
// rejected, not restored.
func TestPackedSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 10; iter++ {
		intMass := 1.0
		if iter%2 == 1 {
			intMass = 0.5
		}
		f := randomPackedGrid(rng, 1+rng.Intn(2*packedBlockCells), 2, 256, intMass)
		for i := range f.Vals {
			if f.Vals[i] < 0 {
				f.Vals[i] = -f.Vals[i] // snapshots hold live cells only
			}
		}
		p := PackFlat(f)
		var buf bytes.Buffer
		if err := p.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		var flatBuf bytes.Buffer
		if err := f.WriteSnapshot(&flatBuf); err != nil {
			t.Fatal(err)
		}
		if intMass == 1.0 && buf.Len() >= flatBuf.Len() {
			t.Fatalf("iter %d: AWG2 snapshot %d bytes, not below AWG1 %d", iter, buf.Len(), flatBuf.Len())
		}
		got, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		sameGrid(t, f, got, "AWG2 round trip")
	}

	// A zero-mass tombstone cell never appears in a valid snapshot.
	g := NewFlat([]int{8, 8}, 3)
	g.Append([]uint16{1, 1}, 2)
	g.Append([]uint16{2, 2}, 0)
	g.Append([]uint16{3, 3}, 1)
	var buf bytes.Buffer
	if err := PackFlat(g).WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(&buf); err == nil {
		t.Fatal("AWG2 snapshot holding a tombstone restored")
	}

	// Non-finite masses are rejected, as for AWG1.
	bad := NewFlat([]int{4}, 1)
	bad.Append([]uint16{1}, math.NaN())
	buf.Reset()
	if err := PackFlat(bad).WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(&buf); err == nil {
		t.Fatal("AWG2 snapshot holding a NaN mass restored")
	}
}
