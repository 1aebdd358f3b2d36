package grid

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"adawave/internal/pointset"
	"adawave/internal/wavelet"
)

// cellSet accumulates masses per distinct cell and emits them as a
// canonical FlatGrid — the test-side builder for hand-made grids.
type cellSet struct {
	idx map[string]int
	f   *FlatGrid
}

func newCellSet(size ...int) *cellSet {
	return &cellSet{idx: map[string]int{}, f: NewFlat(size, 0)}
}

// add accumulates w into the cell at coords.
func (c *cellSet) add(coords []int, w float64) {
	u := make([]uint16, len(coords))
	for j, v := range coords {
		u[j] = uint16(v)
	}
	k := fmt.Sprint(u)
	if i, ok := c.idx[k]; ok {
		c.f.Vals[i] += w
		return
	}
	c.idx[k] = c.f.Len()
	c.f.Append(u, w)
}

// grid returns the accumulated cells in canonical order.
func (c *cellSet) grid() *FlatGrid {
	g := c.f.Clone()
	g.SortCanonical()
	return g
}

// massAt returns the density of the cell at coords in canonical grid f
// (0 when unoccupied).
func massAt(f *FlatGrid, coords ...int) float64 {
	u := make([]uint16, len(coords))
	for j, v := range coords {
		u[j] = uint16(v)
	}
	if i := f.Find(u); i >= 0 {
		return f.Vals[i]
	}
	return 0
}

// quantize builds the quantizer, canonical grid and point→cell memo of ds
// on one worker.
func quantize(t testing.TB, ds *pointset.Dataset, scale int) (*Quantizer, *FlatGrid, []int32) {
	t.Helper()
	ctx := context.Background()
	q, err := NewQuantizerDatasetCtx(ctx, ds, scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, ids, err := q.QuantizeDatasetCtx(ctx, ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	return q, f, ids
}

func transform(t testing.TB, f *FlatGrid, b wavelet.Basis) *FlatGrid {
	t.Helper()
	out, err := TransformFlatCtx(context.Background(), f, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func components(t testing.TB, f *FlatGrid, conn Connectivity) ([]int32, int) {
	t.Helper()
	labels, n, err := ComponentsFlatCtx(context.Background(), f, conn)
	if err != nil {
		t.Fatal(err)
	}
	return labels, n
}

func TestGridBasics(t *testing.T) {
	cs := newCellSet(4, 4)
	cs.add([]int{1, 2}, 2)
	cs.add([]int{1, 2}, 3)
	g := cs.grid()
	if massAt(g, 1, 2) != 5 {
		t.Fatalf("density = %v", massAt(g, 1, 2))
	}
	if g.Len() != 1 || g.Dim() != 2 {
		t.Fatalf("Len/Dim wrong: %d %d", g.Len(), g.Dim())
	}
	if massAt(g, 0, 0) != 0 {
		t.Fatal("absent cell should read 0")
	}
	cs.add([]int{0, 0}, 1)
	g = cs.grid()
	if g.TotalMass() != 6 {
		t.Fatalf("TotalMass = %v", g.TotalMass())
	}
	sd := g.SortedDensities()
	if len(sd) != 2 || sd[0] != 5 || sd[1] != 1 {
		t.Fatalf("SortedDensities = %v", sd)
	}
	th := g.Threshold(2)
	if th.Len() != 1 || massAt(th, 1, 2) != 5 {
		t.Fatalf("Threshold wrong: %v %v", th.Coords, th.Vals)
	}
	c := g.Clone()
	c.Vals[g.Find([]uint16{1, 2})]++
	if massAt(g, 1, 2) != 5 {
		t.Fatal("Clone is not deep")
	}
}

func TestDropBelow(t *testing.T) {
	cs := newCellSet(8)
	cs.add([]int{0}, 0.001)
	cs.add([]int{1}, 5)
	g := cs.grid()
	if removed := g.DropBelow(0.01); removed != 1 {
		t.Fatalf("removed %d cells", removed)
	}
	if g.Len() != 1 {
		t.Fatalf("Len after drop = %d", g.Len())
	}
}

func TestQuantizerBasics(t *testing.T) {
	ds := pointset.MustFromSlices([][]float64{{0, 0}, {1, 1}, {0.49, 0.51}})
	_, g, _ := quantize(t, ds, 2)
	// (0,0)→cell(0,0); (1,1)→clamped to (1,1); (0.49,0.51)→(0,1)
	for _, c := range [][]int{{0, 0}, {1, 1}, {0, 1}} {
		if m := massAt(g, c...); m != 1 {
			t.Fatalf("cell %v density %v", c, m)
		}
	}
	if g.TotalMass() != 3 {
		t.Fatalf("mass %v", g.TotalMass())
	}
}

func TestQuantizerErrors(t *testing.T) {
	ctx := context.Background()
	one := pointset.MustFromSlices([][]float64{{1}})
	if _, err := NewQuantizerDatasetCtx(ctx, nil, 4, 1); err != ErrNoPoints {
		t.Fatalf("want ErrNoPoints, got %v", err)
	}
	if _, err := NewQuantizerDatasetCtx(ctx, one, 1, 1); err == nil {
		t.Fatal("scale < 2 should error")
	}
	if _, err := NewQuantizerDatasetCtx(ctx, one, 1<<20, 1); err == nil {
		t.Fatal("huge scale should error")
	}
	zeroDim := &pointset.Dataset{N: 2}
	if _, err := NewQuantizerDatasetCtx(ctx, zeroDim, 4, 1); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("zero-dimensional points should error as ErrInvalidInput, got %v", err)
	}
}

func TestQuantizerConstantDimension(t *testing.T) {
	ds := pointset.MustFromSlices([][]float64{{1, 5}, {2, 5}, {3, 5}})
	_, g, _ := quantize(t, ds, 4)
	for i := 0; i < g.Len(); i++ {
		if c := g.CellCoords(i)[1]; c != 0 {
			t.Fatalf("constant dimension should map to cell 0, got %d", c)
		}
	}
	if g.TotalMass() != 3 {
		t.Fatalf("mass %v", g.TotalMass())
	}
}

func TestQuantizeMassConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(rng.Int31n(500))
		d := 1 + int(rng.Int31n(4))
		ds := pointset.New(d, n)
		p := make([]float64, d)
		for i := 0; i < n; i++ {
			for j := range p {
				p[j] = rng.NormFloat64() * 10
			}
			ds.AppendRow(p)
		}
		_, g, _ := quantize(t, ds, 16)
		return g.TotalMass() == float64(n) && g.Len() <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSparseTransformMatchesDense verifies that the sparse line-sweep
// transform computes exactly the dense wavelet.Approx coefficients along
// each dimension.
func TestSparseTransformMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, b := range wavelet.Bases() {
		// 1-D grid: direct comparison with wavelet.Approx.
		n := 32
		sig := make([]float64, n)
		cs := newCellSet(n)
		for i := range sig {
			if rng.Float64() < 0.5 { // keep it sparse
				sig[i] = rng.Float64() * 10
				if sig[i] != 0 {
					cs.add([]int{i}, sig[i])
				}
			}
		}
		want := wavelet.Approx(sig, b)
		got, err := transformDimFlatCtx(context.Background(), cs.grid(), 0, b, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got.Size[0] != len(want) {
			t.Fatalf("%s: size %d, want %d", b.Name, got.Size[0], len(want))
		}
		for k, w := range want {
			if math.Abs(massAt(got, k)-w) > 1e-10 {
				t.Fatalf("%s: coeff %d = %v, want %v", b.Name, k, massAt(got, k), w)
			}
		}
	}
}

func TestTransform2DSeparable(t *testing.T) {
	// A separable product signal: transform of product = product of
	// transforms (since the 2-D transform is separable).
	b := wavelet.CDF22()
	nx, ny := 16, 8
	fx := make([]float64, nx)
	fy := make([]float64, ny)
	rng := rand.New(rand.NewSource(5))
	for i := range fx {
		fx[i] = rng.Float64()
	}
	for i := range fy {
		fy[i] = rng.Float64()
	}
	cs := newCellSet(nx, ny)
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			if v := fx[i] * fy[j]; v != 0 {
				cs.add([]int{i, j}, v)
			}
		}
	}
	got := transform(t, cs.grid(), b)
	ax, ay := wavelet.Approx(fx, b), wavelet.Approx(fy, b)
	if got.Size[0] != len(ax) || got.Size[1] != len(ay) {
		t.Fatalf("size %v", got.Size)
	}
	for i := range ax {
		for j := range ay {
			want := ax[i] * ay[j]
			if math.Abs(massAt(got, i, j)-want) > 1e-9 {
				t.Fatalf("cell (%d,%d) = %v, want %v", i, j, massAt(got, i, j), want)
			}
		}
	}
}

func TestTransformLevels(t *testing.T) {
	ctx := context.Background()
	cs := newCellSet(16, 16)
	cs.add([]int{8, 8}, 4)
	g := cs.grid()
	levels, err := TransformLevelsFlatCtx(ctx, g, wavelet.Haar(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 3 {
		t.Fatalf("got %d levels", len(levels))
	}
	if levels[2].Size[0] != 2 || levels[2].Size[1] != 2 {
		t.Fatalf("level-3 size %v", levels[2].Size)
	}
	// Haar with DC gain 1 *averages* pairs: density is preserved but total
	// mass scales by (1/2)ᵈ per level (cells halve along every dimension).
	want := 4.0
	for l, lg := range levels {
		want /= 4 // d = 2
		if math.Abs(lg.TotalMass()-want) > 1e-9 {
			t.Fatalf("level %d mass %v, want %v", l+1, lg.TotalMass(), want)
		}
	}
	if _, err := TransformLevelsFlatCtx(ctx, g, wavelet.Haar(), 0, 1); err == nil {
		t.Fatal("levels=0 should error")
	}
	if _, err := TransformLevelsFlatCtx(ctx, g, wavelet.Haar(), 10, 1); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("too many levels should error as ErrInvalidInput, got %v", err)
	}
}

func TestComponentsFaces(t *testing.T) {
	//  Layout (4x4): two L-shaped components and one isolated cell.
	//  A A . B
	//  . A . .
	//  . . . .
	//  C . . .
	cs := newCellSet(4, 4)
	for _, c := range [][]int{{0, 0}, {1, 0}, {1, 1}, {3, 0}, {0, 3}} {
		cs.add(c, 1)
	}
	g := cs.grid()
	labels, n := components(t, g, Faces)
	if len(labels) != 5 {
		t.Fatalf("labeled %d cells", len(labels))
	}
	at := func(c ...uint16) int32 { return labels[g.Find(c)] }
	la := at(0, 0)
	if at(1, 0) != la || at(1, 1) != la {
		t.Fatal("L-shape not connected")
	}
	if at(3, 0) == la || at(0, 3) == la || at(3, 0) == at(0, 3) {
		t.Fatal("separate cells merged")
	}
	if n != 3 {
		t.Fatalf("found %d components, want 3", n)
	}
}

func TestComponentsFullVsFaces(t *testing.T) {
	// Two cells touching only diagonally: separate under Faces, joined
	// under Full.
	cs := newCellSet(4, 4)
	cs.add([]int{0, 0}, 1)
	cs.add([]int{1, 1}, 1)
	g := cs.grid()
	faces, _ := components(t, g, Faces)
	if faces[0] == faces[1] {
		t.Fatal("diagonal cells should be separate under Faces")
	}
	full, _ := components(t, g, Full)
	if full[0] != full[1] {
		t.Fatal("diagonal cells should join under Full")
	}
}

func TestComponentsFullDimensionLimit(t *testing.T) {
	size := make([]int, maxFullDim+1)
	for j := range size {
		size[j] = 2
	}
	_, _, err := ComponentsFlatCtx(context.Background(), NewFlat(size, 0), Full)
	if !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("Full connectivity in 9-D should error as ErrInvalidInput, got %v", err)
	}
}

// TestComponentsDeterministic: the labeling is a function of the occupied
// cell set alone — scrambling the cell order relabels nothing.
func TestComponentsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cs := newCellSet(32, 32)
	for i := 0; i < 200; i++ {
		cs.add([]int{int(rng.Int31n(32)), int(rng.Int31n(32))}, 1)
	}
	g := cs.grid()
	l1, _ := components(t, g, Faces)
	scrambled := g.Clone()
	perm := rng.Perm(g.Len())
	for i, p := range perm {
		copy(scrambled.CellCoords(i), g.CellCoords(p))
		scrambled.Vals[i] = g.Vals[p]
	}
	l2, _ := components(t, scrambled, Faces)
	for i, p := range perm {
		if l2[i] != l1[p] {
			t.Fatalf("labels differ at %v: %d vs %d", g.CellCoords(p), l1[p], l2[i])
		}
	}
}

func TestComponentSizes(t *testing.T) {
	cs := newCellSet(4)
	cs.add([]int{0}, 2)
	cs.add([]int{1}, 3)
	cs.add([]int{3}, 7)
	g := cs.grid()
	labels, n := components(t, g, Faces)
	sizes := ComponentMasses(g, labels, n)
	if len(sizes) != 2 {
		t.Fatalf("sizes %v", sizes)
	}
	if sizes[labels[g.Find([]uint16{0})]] != 5 || sizes[labels[g.Find([]uint16{3})]] != 7 {
		t.Fatalf("sizes %v", sizes)
	}
}

// Property: the Haar transform scales total mass by exactly (1/2)ᵈ per
// level — it averages pairs (DC gain 1), and no mass is lost at boundaries
// because every input index pairs with a valid output index.
func TestHaarMassScalingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cs := newCellSet(64, 64)
		for i := 0; i < 100; i++ {
			cs.add([]int{int(rng.Int31n(64)), int(rng.Int31n(64))}, rng.Float64()*5)
		}
		g := cs.grid()
		before := g.TotalMass()
		after := transform(t, g, wavelet.Haar()).TotalMass()
		return math.Abs(after-before/4) < 1e-9*(1+before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: transform output never exceeds the size bound and the memory
// stays proportional to occupied cells (the grid-labeling guarantee).
func TestSparsityPreserved(t *testing.T) {
	cs := newCellSet(1024, 1024, 1024) // a dense 1024³ grid would be 10⁹ cells
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		cs.add([]int{int(rng.Int31n(1024)), int(rng.Int31n(1024)), int(rng.Int31n(1024))}, 1)
	}
	out := transform(t, cs.grid(), wavelet.CDF22())
	// Each cell scatters into ≤ ⌈5/2⌉ = 3 cells per dimension ⇒ ≤ 27×.
	if out.Len() > 27*500 {
		t.Fatalf("sparse transform exploded: %d cells", out.Len())
	}
	if out.Size[0] != 512 {
		t.Fatalf("output size %v", out.Size)
	}
}

func BenchmarkQuantize100k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ds := pointset.New(2, 100000)
	for i := 0; i < 100000; i++ {
		ds.AppendRow([]float64{rng.Float64(), rng.Float64()})
	}
	ctx := context.Background()
	q, err := NewQuantizerDatasetCtx(ctx, ds, 128, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := q.QuantizeDatasetCtx(ctx, ds, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSparseTransform(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cs := newCellSet(128, 128)
	for i := 0; i < 5000; i++ {
		cs.add([]int{int(rng.Int31n(128)), int(rng.Int31n(128))}, rng.Float64())
	}
	g := cs.grid()
	basis := wavelet.CDF22()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TransformFlatCtx(ctx, g, basis, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTransformLevelsDensificationGuard(t *testing.T) {
	// A long filter in high dimension scatters every occupied cell into
	// two cells per dimension: 100 cells in 20-D would densify towards
	// 100·2²⁰ occupied cells. The transform must abort with a clear error
	// instead of consuming the machine.
	const dim = 20
	size := make([]int, dim)
	for j := range size {
		size[j] = 4
	}
	cs := newCellSet(size...)
	coords := make([]int, dim)
	for i := 0; i < 100; i++ {
		for j := range coords {
			coords[j] = (i + j) % 4
		}
		cs.add(coords, 1)
	}
	ctx := context.Background()
	_, err := TransformLevelsFlatCtx(ctx, cs.grid(), wavelet.CDF22(), 1, 1)
	if err == nil {
		t.Fatal("expected densification error for CDF(2,2) in 20-D")
	}
	if !errors.Is(err, ErrInvalidInput) || !strings.Contains(err.Error(), "haar") {
		t.Fatalf("error should be ErrInvalidInput and recommend haar: %v", err)
	}
	// Haar maps each cell to exactly one output cell: same workload fine.
	levels, err := TransformLevelsFlatCtx(ctx, cs.grid(), wavelet.Haar(), 1, 1)
	if err != nil {
		t.Fatalf("haar should not densify: %v", err)
	}
	if got := levels[0].Len(); got > 100 {
		t.Fatalf("haar grew the cell count to %d", got)
	}
}

func TestGrowthCapBounds(t *testing.T) {
	if got := growthCap(10); got != 1<<16 {
		t.Fatalf("small input cap = %d, want the 2^16 floor", got)
	}
	if got := growthCap(1 << 20); got != 1<<23 {
		t.Fatalf("huge input cap = %d, want the absolute ceiling", got)
	}
	if got := growthCap(10000); got != 320000 {
		t.Fatalf("mid input cap = %d, want 32×", got)
	}
}
