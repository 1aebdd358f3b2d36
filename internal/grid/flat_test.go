package grid_test

// The flat grid against the map-keyed reference implementation
// (internal/oracle): every stage — quantization, the per-dimension and
// multi-level transforms, coefficient dropping, components — must
// reproduce the oracle cell for cell. This is an external test package
// because the oracle imports grid.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"adawave/internal/grid"
	"adawave/internal/oracle"
	"adawave/internal/pointset"
	"adawave/internal/wavelet"
)

// randomGrid builds a sparse map grid with n occupied cells at the given
// sizes, with small-integer masses (so dyadic filter taps stay exact and the
// flat and map engines agree bit for bit).
func randomGrid(sizes []int, n int, seed int64) *oracle.Grid {
	rng := rand.New(rand.NewSource(seed))
	g := oracle.New(sizes)
	coords := make([]int, len(sizes))
	for i := 0; i < n; i++ {
		for j, s := range sizes {
			coords[j] = rng.Intn(s)
		}
		g.Cells[oracle.MakeKey(coords)] += float64(1 + rng.Intn(4))
	}
	return g
}

// gridsEqual compares a map grid with a flat one cell for cell within tol.
func gridsEqual(t *testing.T, want *oracle.Grid, f *grid.FlatGrid, tol float64) {
	t.Helper()
	got := oracle.FromFlat(f)
	if want.Len() != got.Len() {
		t.Fatalf("cell count: want %d, got %d", want.Len(), got.Len())
	}
	for k, v := range want.Cells {
		gv, ok := got.Cells[k]
		if !ok {
			t.Fatalf("missing cell %v (density %g)", k.Coords(), v)
		}
		if math.Abs(gv-v) > tol {
			t.Fatalf("cell %v: want %g, got %g", k.Coords(), v, gv)
		}
	}
}

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

func TestFlatRoundTrip(t *testing.T) {
	g := randomGrid([]int{32, 16, 8}, 100, 1)
	f := oracle.ToFlat(g)
	if f.Len() != g.Len() {
		t.Fatalf("flat len %d, map len %d", f.Len(), g.Len())
	}
	gridsEqual(t, g, f, 0)
	// Canonical order and Find.
	if !grid.IsCanonical(f) {
		t.Fatal("not in canonical order")
	}
	for i := 0; i < f.Len(); i++ {
		if got := f.Find(f.CellCoords(i)); got != i {
			t.Fatalf("Find(cell %d) = %d", i, got)
		}
	}
	if f.Find([]uint16{65535, 65535, 65535}) != -1 {
		t.Fatal("Find of absent cell should be -1")
	}
}

func TestTransformDimFlatMatchesMap(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sizes []int
		n     int
		basis wavelet.Basis
		tol   float64
	}{
		{"2d-cdf22", []int{128, 128}, 900, wavelet.CDF22(), 0},
		{"2d-haar", []int{128, 128}, 900, wavelet.Haar(), 0},
		{"2d-cdf13", []int{64, 64}, 400, wavelet.CDF13(), 0},
		{"2d-db4", []int{64, 64}, 400, wavelet.DB4(), 1e-12},
		{"3d-cdf22", []int{32, 16, 8}, 300, wavelet.CDF22(), 0},
		{"1d-haar", []int{256}, 90, wavelet.Haar(), 0},
		{"odd-sizes", []int{31, 17}, 200, wavelet.CDF22(), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := randomGrid(tc.sizes, tc.n, 7)
			for j := range tc.sizes {
				want := oracle.TransformDim(g, j, tc.basis)
				for _, workers := range []int{1, 2, 4} {
					got := grid.TransformDimFlat(oracle.ToFlat(g), j, tc.basis, workers)
					gridsEqual(t, want, got, tc.tol)
				}
			}
		})
	}
}

func TestTransformDimFlatParallelThreshold(t *testing.T) {
	// A grid big enough to cross the parallel cutoff must still match.
	g := randomGrid([]int{256, 256}, 3*grid.ParallelCellCutoff, 11)
	want := oracle.TransformDim(g, 0, wavelet.CDF22())
	for _, workers := range []int{1, 3, 8} {
		got := grid.TransformDimFlat(oracle.ToFlat(g), 0, wavelet.CDF22(), workers)
		gridsEqual(t, want, got, 0)
	}
}

func TestTransformLevelsFlatMatchesMap(t *testing.T) {
	ctx := context.Background()
	g := randomGrid([]int{128, 128}, 1200, 3)
	want, err := oracle.TransformLevels(g, wavelet.CDF22(), 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := grid.TransformLevelsFlatCtx(ctx, oracle.ToFlat(g), wavelet.CDF22(), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("levels: want %d, got %d", len(want), len(got))
	}
	for l := range want {
		gridsEqual(t, want[l], got[l], 0)
	}
	// Every returned level must stay in canonical order (Find depends on
	// it), including earlier levels after deeper ones were computed.
	for l, fg := range got {
		if !grid.IsCanonical(fg) {
			t.Fatalf("level %d not in canonical order", l+1)
		}
	}
	// Error parity: too-small dimension.
	small := randomGrid([]int{2, 2}, 3, 1)
	_, errMap := oracle.TransformLevels(small, wavelet.CDF22(), 2)
	_, errFlat := grid.TransformLevelsFlatCtx(ctx, oracle.ToFlat(small), wavelet.CDF22(), 2, 2)
	if errMap == nil || errFlat == nil || errMap.Error() != errFlat.Error() {
		t.Fatalf("error parity: map %v, flat %v", errMap, errFlat)
	}
}

// TestQuantizeFlatMatchesMap: the sharded bounding-box scan and the sharded
// quantization must reproduce the oracle's sequential quantizer — bounding
// box, occupied cells and masses — at every worker count.
func TestQuantizeFlatMatchesMap(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	n := 3 * grid.ParallelCellCutoff
	points := make([][]float64, n)
	for i := range points {
		points[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.Float64()}
	}
	ds := pointset.MustFromSlices(points)
	q, err := oracle.NewQuantizer(points, 64)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := oracle.QuantizeWithCells(q, points)
	for _, workers := range []int{1, 2, 3, 8} {
		qp, err := grid.NewQuantizerDatasetCtx(ctx, ds, 64, workers)
		if err != nil {
			t.Fatal(err)
		}
		for j := range q.Mins {
			if qp.Mins[j] != q.Mins[j] || qp.Maxs[j] != q.Maxs[j] {
				t.Fatalf("workers=%d: bounding box differs in dim %d", workers, j)
			}
		}
		got, _, err := qp.QuantizeDatasetCtx(ctx, ds, workers)
		if err != nil {
			t.Fatal(err)
		}
		gridsEqual(t, want, got, 0)
		if got.TotalMass() != float64(n) {
			t.Fatalf("workers=%d: total mass %g, want %d", workers, got.TotalMass(), n)
		}
	}
}

func TestComponentsFlatMatchesMap(t *testing.T) {
	for _, conn := range []grid.Connectivity{grid.Faces, grid.Full} {
		name := "faces"
		if conn == grid.Full {
			name = "full"
		}
		t.Run(name, func(t *testing.T) {
			g := randomGrid([]int{48, 48}, 700, 9)
			want, err := oracle.Components(g, conn)
			if err != nil {
				t.Fatal(err)
			}
			f := oracle.ToFlat(g)
			got, ncomp, err := grid.ComponentsFlatCtx(context.Background(), f, conn)
			if err != nil {
				t.Fatal(err)
			}
			max := -1
			for _, l := range want {
				if l > max {
					max = l
				}
			}
			if ncomp != max+1 {
				t.Fatalf("component count: want %d, got %d", max+1, ncomp)
			}
			for i := 0; i < f.Len(); i++ {
				if wl := want[oracle.KeyOf(f.CellCoords(i))]; wl != int(got[i]) {
					t.Fatalf("cell %v: map label %d, flat label %d", f.CellCoords(i), wl, got[i])
				}
			}
		})
	}
}

// TestComponentsFlatHighDimLimit: the range-parallel labeling and its
// dispatcher enforce the same Full-connectivity dimension limit as the
// sequential flat labeling and the oracle.
func TestComponentsFlatHighDimLimit(t *testing.T) {
	ctx := context.Background()
	sizes := make([]int, 9)
	for i := range sizes {
		sizes[i] = 4
	}
	g := randomGrid(sizes, 10, 2)
	if _, err := oracle.Components(g, grid.Full); err == nil {
		t.Fatal("oracle: expected dimension-limit error for Full connectivity")
	}
	f := oracle.ToFlat(g)
	if _, _, err := grid.ComponentsFlatShardedCtx(ctx, f, grid.Full, 4); err == nil {
		t.Fatal("sharded: expected dimension-limit error for Full connectivity")
	}
	if _, _, err := grid.ComponentsFlatAutoCtx(ctx, f, grid.Full, 4); err == nil {
		t.Fatal("auto: expected dimension-limit error for Full connectivity")
	}
}

func TestFlatDropBelowAndThreshold(t *testing.T) {
	g := randomGrid([]int{32, 32}, 300, 4)
	f := oracle.ToFlat(g)
	gm := g.Clone()
	gm.DropBelow(2)
	f2 := f.Clone()
	f2.DropBelow(2)
	gridsEqual(t, gm, f2, 0)
	gridsEqual(t, g.Threshold(3), f.Threshold(3), 0)
	// Order is preserved.
	if !grid.IsCanonical(f2) {
		t.Fatal("DropBelow broke canonical order")
	}
}

// TestNewQuantizerDatasetMatchesSlices: the strided bounding-box scan must
// reproduce the oracle's row-slice quantizer exactly at every worker count.
func TestNewQuantizerDatasetMatchesSlices(t *testing.T) {
	points, ds := randomDataset(5000, 3, 1)
	want, err := oracle.NewQuantizer(points, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 7} {
		got, err := grid.NewQuantizerDatasetCtx(context.Background(), ds, 64, workers)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			if got.Mins[j] != want.Mins[j] || got.Maxs[j] != want.Maxs[j] {
				t.Fatalf("workers=%d dim %d: bbox (%v,%v) want (%v,%v)",
					workers, j, got.Mins[j], got.Maxs[j], want.Mins[j], want.Maxs[j])
			}
		}
	}
}

// TestQuantizeDatasetMatchesQuantizeFlat: the dataset quantization yields
// the oracle's grid (size, cells, densities) in canonical order for every
// worker count, plus a valid cell-id memo: ids[i] must name exactly the
// cell the oracle's lookup table puts point i in.
func TestQuantizeDatasetMatchesQuantizeFlat(t *testing.T) {
	points, ds := randomDataset(6000, 2, 3)
	q, err := oracle.NewQuantizer(points, 32)
	if err != nil {
		t.Fatal(err)
	}
	want, wantCells := oracle.QuantizeWithCells(q, points)
	for _, workers := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got, ids, err := q.QuantizeDatasetCtx(context.Background(), ds, workers)
			if err != nil {
				t.Fatal(err)
			}
			gridsEqual(t, want, got, 0)
			if !grid.IsCanonical(got) {
				t.Fatal("quantized grid not in canonical order")
			}
			for i := range points {
				id := int(ids[i])
				if id < 0 || id >= got.Len() || oracle.KeyOf(got.CellCoords(id)) != wantCells[i] {
					t.Fatalf("point %d: memoized cell %d does not match the oracle's cell %v", i, id, wantCells[i].Coords())
				}
			}
		})
	}
}
