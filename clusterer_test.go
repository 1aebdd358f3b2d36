package adawave

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"adawave/internal/oracle"
	"adawave/internal/synth"
)

// TestClustererConcurrentMatchesSequential runs many concurrent Cluster
// calls on one shared Clusterer and asserts label-for-label equality with
// the sequential reference implementation (internal/oracle) on the
// running-example dataset. The CI race job runs this test under -race to
// exercise the parallel paths.
func TestClustererConcurrentMatchesSequential(t *testing.T) {
	ds := synth.RunningExampleSized(600, 1)
	cfg := DefaultConfig()
	want, err := oracle.Cluster(ds.Points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClusterer(cfg, 0) // all processors
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 6
	const rounds = 2
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got, err := c.Cluster(ds.Points)
				if err != nil {
					errs <- err
					return
				}
				if got.Threshold != want.Threshold {
					errs <- fmt.Errorf("threshold: want %v, got %v", want.Threshold, got.Threshold)
					return
				}
				if got.NumClusters != want.NumClusters {
					errs <- fmt.Errorf("clusters: want %d, got %d", want.NumClusters, got.NumClusters)
					return
				}
				for i := range want.Labels {
					if want.Labels[i] != got.Labels[i] {
						errs <- fmt.Errorf("label %d: want %d, got %d", i, want.Labels[i], got.Labels[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestClustererMultiResolution smoke-checks the Clusterer's concurrent
// multi-resolution path against the single-worker package-level one.
func TestClustererMultiResolution(t *testing.T) {
	ds := synth.RunningExampleSized(300, 1)
	cfg := DefaultConfig()
	want, err := ClusterMultiResolution(ds.Points, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClusterer(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ClusterMultiResolution(ds.Points, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("levels: want %d, got %d", len(want), len(got))
	}
	for l := range want {
		for i := range want[l].Labels {
			if want[l].Labels[i] != got[l].Labels[i] {
				t.Fatalf("level %d label %d: want %d, got %d", l+1, i, want[l].Labels[i], got[l].Labels[i])
			}
		}
	}
}

// TestNewClustererValidates mirrors the config validation of the
// package-level entry points.
func TestNewClustererValidates(t *testing.T) {
	if _, err := NewClusterer(Config{}, 0); err == nil {
		t.Fatal("zero config must not validate")
	}
	c, err := NewClusterer(DefaultConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", c.Workers())
	}
}

// requireBitIdentical requires two results to agree bit for bit on labels,
// threshold and density curve.
func requireBitIdentical(t *testing.T, what string, want, got *Result) {
	t.Helper()
	if want.Threshold != got.Threshold || want.ThresholdIndex != got.ThresholdIndex {
		t.Fatalf("%s: threshold %v@%d, want %v@%d", what, got.Threshold, got.ThresholdIndex, want.Threshold, want.ThresholdIndex)
	}
	if !slices.Equal(want.Curve, got.Curve) {
		t.Fatalf("%s: density curves differ", what)
	}
	if !slices.Equal(want.Labels, got.Labels) {
		t.Fatalf("%s: labels differ", what)
	}
}

// TestFacadeMatchesClusterer: the package-level Cluster and
// ClusterMultiResolution run the Clusterer's engine on one worker, so for
// every basis — DB4/DB6, whose irrational taps make float sums
// order-sensitive, included — they must agree with a Clusterer at any
// worker count bit for bit, per level for the multi-resolution pass.
func TestFacadeMatchesClusterer(t *testing.T) {
	ds := synth.Evaluation(800, 0.5, 3)
	for _, b := range Bases() {
		cfg := DefaultConfig()
		cfg.Basis = b
		want, err := Cluster(ds.Points, cfg)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		wantLevels, err := ClusterMultiResolution(ds.Points, cfg, 3)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			what := fmt.Sprintf("%s workers=%d", b.Name, workers)
			c, err := NewClusterer(cfg, workers)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Cluster(ds.Points)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			requireBitIdentical(t, what, want, got)
			gotLevels, err := c.ClusterMultiResolution(ds.Points, 3)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if len(gotLevels) != len(wantLevels) {
				t.Fatalf("%s: %d levels, want %d", what, len(gotLevels), len(wantLevels))
			}
			for l := range wantLevels {
				requireBitIdentical(t, fmt.Sprintf("%s level %d", what, l+1), wantLevels[l], gotLevels[l])
			}
		}
	}
}

// TestFacadeMultiResolutionIgnoresLevels pins the package-level
// ClusterMultiResolution contract that cfg.Levels plays no part: at Scale
// 4, Levels 3 is too deep for a Clusterer's configuration, yet the
// multi-resolution pass still runs every level the grid reaches — two —
// and matches a Clusterer configured with one level.
func TestFacadeMultiResolutionIgnoresLevels(t *testing.T) {
	ds := synth.Evaluation(200, 0.3, 5)
	cfg := DefaultConfig()
	cfg.Scale = 4
	cfg.Levels = 3
	if _, err := NewClusterer(cfg, 1); err == nil {
		t.Fatal("Scale 4 with Levels 3 must not validate as a Clusterer configuration")
	}
	got, err := ClusterMultiResolution(ds.Points, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d levels, want 2", len(got))
	}
	cfg.Levels = 1
	c, err := NewClusterer(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.ClusterMultiResolution(ds.Points, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("Clusterer: %d levels, facade %d", len(want), len(got))
	}
	for l := range want {
		requireBitIdentical(t, fmt.Sprintf("level %d", l+1), want[l], got[l])
	}
}
