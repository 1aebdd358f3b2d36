package grid

import (
	"context"
	"math/rand"
	"testing"
)

// randomCanonicalGrid builds a sparse canonical grid with clumped occupancy
// so components of many shapes and sizes appear.
func randomCanonicalGrid(t *testing.T, d, size, cells int, seed int64) *FlatGrid {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sizes := make([]int, d)
	for j := range sizes {
		sizes[j] = size
	}
	cs := newCellSet(sizes...)
	coords := make([]int, d)
	for len(cs.idx) < cells {
		// Seed a clump center, then a short random walk from it.
		for j := range coords {
			coords[j] = rng.Intn(size)
		}
		cs.add(coords, 1)
		for s := 0; s < 6; s++ {
			j := rng.Intn(d)
			coords[j] += rng.Intn(3) - 1
			if coords[j] < 0 {
				coords[j] = 0
			}
			if coords[j] >= size {
				coords[j] = size - 1
			}
			cs.add(coords, 1)
		}
	}
	return cs.grid()
}

// TestComponentsFlatShardedMatchesSequential: the range-parallel labeling
// must reproduce ComponentsFlatCtx exactly — labels and component count —
// for both connectivities across dimensions and worker counts.
func TestComponentsFlatShardedMatchesSequential(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		d, size, cells int
		conn           Connectivity
	}{
		{1, 64, 40, Faces},
		{2, 64, 900, Faces},
		{2, 64, 900, Full},
		{3, 32, 1200, Faces},
		{3, 32, 1200, Full},
		{5, 8, 700, Faces},
	} {
		f := randomCanonicalGrid(t, tc.d, tc.size, tc.cells, int64(tc.d*1000+tc.cells))
		want, wantN, err := ComponentsFlatCtx(ctx, f, tc.conn)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 7} {
			got, gotN, err := ComponentsFlatShardedCtx(ctx, f, tc.conn, workers)
			if err != nil {
				t.Fatalf("d=%d conn=%v workers=%d: %v", tc.d, tc.conn, workers, err)
			}
			if gotN != wantN {
				t.Fatalf("d=%d conn=%v workers=%d: %d components, want %d", tc.d, tc.conn, workers, gotN, wantN)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("d=%d conn=%v workers=%d: label[%d] = %d, want %d",
						tc.d, tc.conn, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestComponentsFlatAuto: the dispatcher must fall back to the sequential
// path on non-canonical grids and still produce identical labels.
func TestComponentsFlatAuto(t *testing.T) {
	ctx := context.Background()
	f := randomCanonicalGrid(t, 2, 64, 3000, 5)
	want, wantN, err := ComponentsFlatCtx(ctx, f, Faces)
	if err != nil {
		t.Fatal(err)
	}
	got, gotN, err := ComponentsFlatAutoCtx(ctx, f, Faces, 4)
	if err != nil {
		t.Fatal(err)
	}
	if gotN != wantN {
		t.Fatalf("auto: %d components, want %d", gotN, wantN)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("auto: label[%d] = %d, want %d", i, got[i], want[i])
		}
	}

	// Scramble the order: auto must detect non-canonical and still agree
	// with the sequential labeling of the scrambled grid.
	d := f.Dim()
	swap := func(a, b int) {
		for j := 0; j < d; j++ {
			f.Coords[a*d+j], f.Coords[b*d+j] = f.Coords[b*d+j], f.Coords[a*d+j]
		}
		f.Vals[a], f.Vals[b] = f.Vals[b], f.Vals[a]
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		swap(rng.Intn(f.Len()), rng.Intn(f.Len()))
	}
	want, wantN, err = ComponentsFlatCtx(ctx, f, Faces)
	if err != nil {
		t.Fatal(err)
	}
	got, gotN, err = ComponentsFlatAutoCtx(ctx, f, Faces, 4)
	if err != nil {
		t.Fatal(err)
	}
	if gotN != wantN {
		t.Fatalf("scrambled auto: %d components, want %d", gotN, wantN)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scrambled auto: label[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}
