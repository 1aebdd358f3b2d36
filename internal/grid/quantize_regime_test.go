package grid_test

// QuantizeDatasetCtx has two regimes — histogram counting of packed cell
// keys when the key space is small next to the input, per-shard radix sort
// otherwise — and both must produce the oracle's grid and point→cell memo
// bit for bit, whichever one the cut-off picks.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"adawave/internal/grid"
	"adawave/internal/oracle"
	"adawave/internal/pointset"
	"adawave/internal/synth"
)

// regimePoints generates n d-dimensional points that stress cell
// boundaries: half sit on a half-cell lattice over [0, scale] (so many land
// exactly on a cell edge and on the bounding-box maximum, which clamps into
// the last cell), the rest are Gaussian, and every fourth point duplicates
// an earlier one. With constant set, dimension 0 holds one value.
func regimePoints(n, d, scale int, constant bool, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	points := make([][]float64, n)
	for i := range points {
		if i > 0 && i%4 == 3 {
			points[i] = append([]float64(nil), points[rng.Intn(i)]...)
			continue
		}
		p := make([]float64, d)
		for j := range p {
			if rng.Intn(2) == 0 {
				p[j] = float64(rng.Intn(2*scale+1)) / 2
			} else {
				p[j] = float64(scale)/2 + rng.NormFloat64()*float64(scale)/6
			}
		}
		if constant {
			p[0] = 3.25
		}
		points[i] = p
	}
	return points
}

// sameQuantization fails unless got/gotIDs are the oracle's grid, in
// canonical order with bit-identical masses, and the oracle's cell for
// every point.
func sameQuantization(t *testing.T, label string, want *oracle.Grid, wantCells []oracle.Key, got *grid.FlatGrid, gotIDs []int32) {
	t.Helper()
	if !grid.IsCanonical(got) {
		t.Fatalf("%s: grid not in canonical order", label)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d cells, want %d", label, got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		k := oracle.KeyOf(got.CellCoords(i))
		if math.Float64bits(got.Vals[i]) != math.Float64bits(want.Density(k)) {
			t.Fatalf("%s: cell %v mass %v, want %v", label, k.Coords(), got.Vals[i], want.Density(k))
		}
	}
	if len(gotIDs) != len(wantCells) {
		t.Fatalf("%s: %d ids, want %d", label, len(gotIDs), len(wantCells))
	}
	for i, id := range gotIDs {
		if id < 0 || int(id) >= got.Len() {
			t.Fatalf("%s: point %d memo %d outside %d cells", label, i, id, got.Len())
		}
		if cell := got.CellCoords(int(id)); oracle.KeyOf(cell) != wantCells[i] {
			t.Fatalf("%s: point %d memo %d names cell %v, oracle cell %v", label, i, id, cell, wantCells[i].Coords())
		}
	}
}

// sameGridAndIDs fails unless the two quantizations are bit-identical.
func sameGridAndIDs(t *testing.T, label string, a *grid.FlatGrid, aIDs []int32, b *grid.FlatGrid, bIDs []int32) {
	t.Helper()
	if len(a.Coords) != len(b.Coords) || len(a.Vals) != len(b.Vals) || len(aIDs) != len(bIDs) {
		t.Fatalf("%s: shapes differ", label)
	}
	for i := range a.Coords {
		if a.Coords[i] != b.Coords[i] {
			t.Fatalf("%s: coords differ at %d", label, i)
		}
	}
	for i := range a.Vals {
		if math.Float64bits(a.Vals[i]) != math.Float64bits(b.Vals[i]) {
			t.Fatalf("%s: mass differs at cell %d", label, i)
		}
	}
	for i := range aIDs {
		if aIDs[i] != bIDs[i] {
			t.Fatalf("%s: ids differ at point %d", label, i)
		}
	}
}

// checkRegimes quantizes points through QuantizeDatasetCtx and through each
// forced regime, at every worker count, against the oracle.
func checkRegimes(t *testing.T, points [][]float64, scale int, workerCounts []int) {
	t.Helper()
	ds := pointset.MustFromSlices(points)
	q, err := oracle.NewQuantizer(points, scale)
	if err != nil {
		t.Fatal(err)
	}
	want, wantCells := oracle.QuantizeWithCells(q, points)
	ctx := context.Background()
	for _, workers := range workerCounts {
		g, ids, err := q.QuantizeDatasetCtx(ctx, ds, workers)
		if err != nil {
			t.Fatal(err)
		}
		sameQuantization(t, fmt.Sprintf("workers=%d default", workers), want, wantCells, g, ids)
		cg, cids, err := grid.QuantizeCounting(ctx, q, ds, workers)
		if err != nil {
			t.Fatal(err)
		}
		rg, rids, err := grid.QuantizeRadix(ctx, q, ds, workers)
		if err != nil {
			t.Fatal(err)
		}
		sameGridAndIDs(t, fmt.Sprintf("workers=%d counting vs radix", workers), cg, cids, rg, rids)
		sameGridAndIDs(t, fmt.Sprintf("workers=%d counting vs default", workers), cg, cids, g, ids)
	}
}

// TestQuantizeRegimesMatchOracle sweeps d ∈ {1, 2, 3}, four scales, sizes
// on both sides of the shard cut-off, and worker counts 1, 2, 3 and
// GOMAXPROCS, on inputs with duplicates, constant dimensions and points on
// the clamped bounding-box maximum.
func TestQuantizeRegimesMatchOracle(t *testing.T) {
	workerCounts := []int{1, 2, 3, runtime.GOMAXPROCS(0)}
	sizes := []int{1, grid.ParallelCellCutoff - 1, grid.ParallelCellCutoff, 50000}
	if testing.Short() {
		sizes = sizes[:3]
	}
	seed := int64(1)
	for _, d := range []int{1, 2, 3} {
		for _, scale := range []int{2, 7, 64, 128} {
			for _, n := range sizes {
				for _, constant := range []bool{false, true} {
					seed++
					name := fmt.Sprintf("d=%d/scale=%d/n=%d/const=%v", d, scale, n, constant)
					t.Run(name, func(t *testing.T) {
						checkRegimes(t, regimePoints(n, d, scale, constant, seed), scale, workerCounts)
					})
				}
			}
		}
	}
}

// TestQuantizeRegimeCutoff puts n exactly on the counting cut-off
// (workers·K = n, counting) and one point below it (radix), and checks both
// sides against the oracle and the forced other regime.
func TestQuantizeRegimeCutoff(t *testing.T) {
	seed := int64(100)
	for _, tc := range []struct{ d, scale int }{{1, 2}, {1, 128}, {2, 7}, {2, 64}, {3, 7}, {3, 16}} {
		k := 1
		for j := 0; j < tc.d; j++ {
			k *= tc.scale
		}
		for _, workers := range []int{1, 2, 3} {
			n := workers * k
			if workers > 1 && n-1 < grid.ParallelCellCutoff {
				continue // below the shard cut-off every pass runs on one worker
			}
			if got := grid.CountingKeySpace(tc.scale, tc.d, n, workers); got != k {
				t.Fatalf("d=%d scale=%d n=%d workers=%d: counting key space %d, want %d", tc.d, tc.scale, n, workers, got, k)
			}
			if got := grid.CountingKeySpace(tc.scale, tc.d, n-1, workers); got != 0 {
				t.Fatalf("d=%d scale=%d n=%d workers=%d: radix expected, got key space %d", tc.d, tc.scale, n-1, workers, got)
			}
			for _, m := range []int{n, n - 1} {
				seed++
				t.Run(fmt.Sprintf("d=%d/scale=%d/workers=%d/n=%d", tc.d, tc.scale, workers, m), func(t *testing.T) {
					checkRegimes(t, regimePoints(m, tc.d, tc.scale, false, seed), tc.scale, []int{workers})
				})
			}
		}
	}
}

// TestCountingKeySpaceOverflow: the key-space product must not overflow,
// however many dimensions, and decline every key space the input cannot
// fill.
func TestCountingKeySpaceOverflow(t *testing.T) {
	for _, tc := range []struct{ scale, d, n, workers, want int }{
		{65535, 33, math.MaxInt32, 1, 0},
		{2, 64, math.MaxInt32, 1, 0},
		{2, 30, math.MaxInt32, 1, 1 << 30},
		{2, 31, math.MaxInt32, 1, 0},
		{128, 2, 400000, 2, 16384},
		{16, 4, 25000, 2, 0},
		{128, 2, 500, 1, 0},
	} {
		if got := grid.CountingKeySpace(tc.scale, tc.d, tc.n, tc.workers); got != tc.want {
			t.Errorf("CountingKeySpace(%d, %d, %d, %d) = %d, want %d", tc.scale, tc.d, tc.n, tc.workers, got, tc.want)
		}
	}
}

// TestQuantizeCountingCancelled: a pre-cancelled context in the counting
// regime returns the taxonomy error and publishes no grid and no memo.
func TestQuantizeCountingCancelled(t *testing.T) {
	points := regimePoints(20000, 2, 16, false, 7)
	ds := pointset.MustFromSlices(points)
	q, err := oracle.NewQuantizer(points, 16)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2, 3} {
		if grid.CountingKeySpace(16, 2, ds.N, workers) == 0 {
			t.Fatalf("workers=%d: fixture must fall in the counting regime", workers)
		}
		g, ids, err := q.QuantizeDatasetCtx(ctx, ds, workers)
		if !errors.Is(err, grid.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want ErrCanceled wrapping context.Canceled", workers, err)
		}
		if g != nil || ids != nil {
			t.Fatalf("workers=%d: cancelled quantization published a grid or ids", workers)
		}
	}
}

// BenchmarkQuantizeDataset times the quantize stage — bounding-box scan
// plus QuantizeDatasetCtx — in each regime, on one worker and on
// GOMAXPROCS. The counting series is the batch benchmark workload's shape
// (synth.Evaluation: 400k 2-D points, five shapes in 75% noise, scale 128:
// 128² keys); the radix series is 400k 3-D points at scale 128, whose 128³
// keys outnumber the points.
func BenchmarkQuantizeDataset(b *testing.B) {
	batch := pointset.MustFromSlices(synth.Evaluation(20000, 0.75, 1).Points)
	rng := rand.New(rand.NewSource(1))
	cube := pointset.New(3, batch.N)
	for i := 0; i < batch.N; i++ {
		c := float64(rng.Intn(5))
		cube.AppendRow([]float64{c + rng.NormFloat64(), c + rng.NormFloat64(), rng.Float64() * 10})
	}
	workerCounts := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		workerCounts = append(workerCounts, p)
	}
	for _, series := range []struct {
		name string
		ds   *pointset.Dataset
	}{{"counting", batch}, {"radix", cube}} {
		for _, workers := range workerCounts {
			b.Run(fmt.Sprintf("%s/w%d", series.name, workers), func(b *testing.B) {
				ctx := context.Background()
				counting := grid.CountingKeySpace(128, series.ds.D, series.ds.N, workers) > 0
				if counting != (series.name == "counting") {
					b.Fatalf("input falls in the wrong regime (counting=%v)", counting)
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					q, err := grid.NewQuantizerDatasetCtx(ctx, series.ds, 128, workers)
					if err != nil {
						b.Fatal(err)
					}
					if _, _, err := q.QuantizeDatasetCtx(ctx, series.ds, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
