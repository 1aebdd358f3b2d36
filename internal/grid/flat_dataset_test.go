package grid

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"adawave/internal/pointset"
)

func randomDataset(n, d int, seed int64) ([][]float64, *pointset.Dataset) {
	rng := rand.New(rand.NewSource(seed))
	points := make([][]float64, n)
	for i := range points {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		points[i] = p
	}
	return points, pointset.MustFromSlices(points)
}

// TestNewQuantizerDatasetErrors pins the constructor's validation. A
// non-finite coordinate is reported as ErrInvalidInput for the lowest
// offending point, with the same message at every worker count.
func TestNewQuantizerDatasetErrors(t *testing.T) {
	ctx := context.Background()
	_, ds := randomDataset(10, 2, 2)
	if _, err := NewQuantizerDatasetCtx(ctx, nil, 8, 1); err == nil {
		t.Fatal("nil dataset must error")
	}
	if _, err := NewQuantizerDatasetCtx(ctx, &pointset.Dataset{}, 8, 1); err == nil {
		t.Fatal("empty dataset must error")
	}
	if _, err := NewQuantizerDatasetCtx(ctx, ds, 1, 1); err == nil {
		t.Fatal("scale 1 must error")
	}
	bad := ds.Clone()
	bad.Data[7] = math.NaN()
	for _, workers := range []int{1, 4} {
		if _, err := NewQuantizerDatasetCtx(ctx, bad, 8, workers); !errors.Is(err, ErrInvalidInput) {
			t.Fatalf("workers=%d: NaN coordinate must error as ErrInvalidInput, got %v", workers, err)
		}
	}
	// Parity across shard layouts, on a dataset big enough to shard.
	_, big := randomDataset(3*parallelCellCutoff, 2, 3)
	big.Data[2*(big.N/2)] = math.Inf(1)
	big.Data[2*(big.N-1)] = math.NaN()
	_, errSeq := NewQuantizerDatasetCtx(ctx, big, 64, 1)
	_, errPar := NewQuantizerDatasetCtx(ctx, big, 64, 4)
	if errSeq == nil || errPar == nil || errSeq.Error() != errPar.Error() {
		t.Fatalf("non-finite error parity: 1 worker %v, 4 workers %v", errSeq, errPar)
	}
}

// TestQuantizeMoreWorkersThanRanges: ParallelRanges can produce fewer
// ranges than workers (ceil-chunking), leaving nil shard slots; the merge
// must skip them instead of panicking, and the memo must stay valid
// (regression test for a nil-dereference in the mapped shard merge).
func TestQuantizeMoreWorkersThanRanges(t *testing.T) {
	points, ds := randomDataset(parallelCellCutoff+1, 2, 9)
	q, want, _ := quantize(t, ds, 32)
	for _, workers := range []int{64, 1024} {
		got, ids, err := q.QuantizeDatasetCtx(context.Background(), ds, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("workers=%d: cells %d, want %d", workers, got.Len(), want.Len())
		}
		for i := 0; i < want.Len(); i++ {
			if cmpCoords(got.CellCoords(i), want.CellCoords(i)) != 0 || got.Vals[i] != want.Vals[i] {
				t.Fatalf("workers=%d: cell %d diverged", workers, i)
			}
		}
		coords := make([]uint16, 2)
		for i, p := range points {
			q.CellCoordsU16(p, coords)
			if id := int(ids[i]); id < 0 || cmpCoords(got.CellCoords(id), coords) != 0 {
				t.Fatalf("workers=%d: point %d memo %d wrong", workers, i, ids[i])
			}
		}
	}
}

// TestAncestorLabels checks the per-level table against the definition: the
// label of the kept cell whose coordinates are the base cell's shifted by
// the level, −1 when absent or demoted.
func TestAncestorLabels(t *testing.T) {
	_, ds := randomDataset(4000, 2, 4)
	_, base, _ := quantize(t, ds, 64)
	for _, levels := range []int{0, 1, 2} {
		// A synthetic kept grid: every other ancestor of the base cells.
		shift := uint(levels)
		anc := NewFlat([]int{64 >> shift, 64 >> shift}, 0)
		seen := map[[2]uint16]bool{}
		coords := make([]uint16, 2)
		for c := 0; c < base.Len(); c++ {
			bc := base.CellCoords(c)
			coords[0], coords[1] = bc[0]>>shift, bc[1]>>shift
			k := [2]uint16{coords[0], coords[1]}
			if !seen[k] {
				seen[k] = true
				anc.Append(coords, 1)
			}
		}
		anc.SortCanonical()
		kept := NewFlat(anc.Size, 0)
		keptLabels := make([]int32, 0)
		for i := 0; i < anc.Len(); i += 2 {
			kept.Append(anc.CellCoords(i), anc.Vals[i])
			label := int32(len(keptLabels) % 3)
			if label == 2 {
				label = -1 // demoted component
			}
			keptLabels = append(keptLabels, label)
		}
		for _, workers := range []int{1, 4} {
			table, err := AncestorLabelsIntoCtx(context.Background(), nil, base, kept, levels, keptLabels, workers)
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < base.Len(); c++ {
				bc := base.CellCoords(c)
				coords[0], coords[1] = bc[0]>>shift, bc[1]>>shift
				want := int32(-1)
				if j := kept.Find(coords); j >= 0 && keptLabels[j] >= 0 {
					want = keptLabels[j]
				}
				if table[c] != want {
					t.Fatalf("levels=%d workers=%d cell %d: got %d, want %d",
						levels, workers, c, table[c], want)
				}
			}
		}
	}
}

// TestSortedDensitiesInto: the pooled form must equal SortedDensities and
// reuse the buffer's capacity.
func TestSortedDensitiesInto(t *testing.T) {
	_, ds := randomDataset(3000, 2, 5)
	_, f, _ := quantize(t, ds, 32)
	want := f.SortedDensities()
	buf := make([]float64, 0, f.Len())
	got := f.SortedDensitiesInto(buf)
	if len(got) != len(want) {
		t.Fatalf("length: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("curve[%d]: got %v, want %v", i, got[i], want[i])
		}
	}
	if f.Len() > 0 && &got[0] != &buf[:1][0] {
		t.Fatal("SortedDensitiesInto must reuse the buffer's capacity")
	}
}

// TestCloneInto: deep copy that reuses destination capacity.
func TestCloneInto(t *testing.T) {
	_, ds := randomDataset(1000, 2, 6)
	_, f, _ := quantize(t, ds, 16)
	dst := &FlatGrid{}
	got := f.CloneInto(dst)
	if got != dst {
		t.Fatal("CloneInto must return its destination")
	}
	if got.Len() != f.Len() {
		t.Fatalf("cells: got %d, want %d", got.Len(), f.Len())
	}
	got.Vals[0] = -42
	if f.Vals[0] == -42 {
		t.Fatal("CloneInto must not share backing storage")
	}
	// Cloning a smaller grid into the same destination reuses capacity.
	small := NewFlat(f.Size, 1)
	small.Append(f.CellCoords(0), 7)
	prev := &got.Vals[:1][0]
	got = small.CloneInto(dst)
	if got.Len() != 1 || &got.Vals[0] != prev {
		t.Fatal("CloneInto must reuse the destination's backing array")
	}
}
