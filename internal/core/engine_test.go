package core_test

import (
	"fmt"
	"sync"
	"testing"

	"adawave/internal/core"
	"adawave/internal/datasets"
	"adawave/internal/oracle"
	"adawave/internal/synth"
	"adawave/internal/wavelet"
)

// TestEngineMatchesSequentialRunningExample is the tentpole equivalence
// gate: on the paper's running example the parallel engine must reproduce
// the oracle's sequential pipeline label for label at every worker count.
func TestEngineMatchesSequentialRunningExample(t *testing.T) {
	ds := synth.RunningExampleSized(800, 1)
	cfg := core.DefaultConfig()
	want, err := oracle.Cluster(ds.Points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			eng, err := core.NewEngine(cfg, workers)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.Cluster(ds.Points)
			if err != nil {
				t.Fatal(err)
			}
			core.AssertResultsEqual(t, want, got)
		})
	}
}

// TestEngineMatchesSequentialHighDim repeats the gate on the 33-dimensional
// dermatology stand-in (Haar basis, automatic scale — the high-dimensional
// protocol).
func TestEngineMatchesSequentialHighDim(t *testing.T) {
	ds, err := datasets.ByName("dermatology", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Scale = 0
	cfg.Basis = wavelet.Haar()
	want, err := oracle.Cluster(ds.Points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		eng, err := core.NewEngine(cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Cluster(ds.Points)
		if err != nil {
			t.Fatal(err)
		}
		core.AssertResultsEqual(t, want, got)
	}
}

// TestEngineMatchesSequentialEvaluation covers the Fig. 7/8 evaluation
// mixture at heavy noise, where threshold selection does real work.
func TestEngineMatchesSequentialEvaluation(t *testing.T) {
	ds := synth.Evaluation(700, 0.8, 1)
	cfg := core.DefaultConfig()
	want, err := oracle.Cluster(ds.Points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Cluster(ds.Points)
	if err != nil {
		t.Fatal(err)
	}
	core.AssertResultsEqual(t, want, got)
}

// TestEngineMultiResolutionMatchesSequential checks the concurrent
// per-level finishing stage against the oracle's sequential
// multi-resolution pass.
func TestEngineMultiResolutionMatchesSequential(t *testing.T) {
	ds := synth.RunningExampleSized(400, 1)
	cfg := core.DefaultConfig()
	want, err := oracle.ClusterMultiResolution(ds.Points, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.ClusterMultiResolution(ds.Points, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("levels: want %d, got %d", len(want), len(got))
	}
	for l := range want {
		core.AssertResultsEqual(t, want[l], got[l])
	}
}

// TestEngineConcurrentClusterCalls exercises one shared Engine from many
// goroutines (the -race CI job runs this with the race detector): every
// concurrent call must reproduce the oracle's labels exactly.
func TestEngineConcurrentClusterCalls(t *testing.T) {
	ds := synth.RunningExampleSized(500, 1)
	cfg := core.DefaultConfig()
	want, err := oracle.Cluster(ds.Points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got, err := eng.Cluster(ds.Points)
				if err != nil {
					errs <- err
					return
				}
				for i := range want.Labels {
					if want.Labels[i] != got.Labels[i] {
						errs <- fmt.Errorf("label %d: want %d, got %d", i, want.Labels[i], got.Labels[i])
						return
					}
				}
				if got.Threshold != want.Threshold {
					errs <- fmt.Errorf("threshold: want %v, got %v", want.Threshold, got.Threshold)
					return
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

// TestEngineValidation: a zero config does not validate, and empty input
// errors on every entry point.
func TestEngineValidation(t *testing.T) {
	if _, err := core.NewEngine(core.Config{}, 0); err == nil {
		t.Fatal("zero config must not validate")
	}
	eng, err := core.NewEngine(core.DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Cluster(nil); err == nil {
		t.Fatal("empty input must error")
	}
	if _, err := core.ClusterParallel(nil, core.DefaultConfig(), 2); err == nil {
		t.Fatal("empty input must error")
	}
}

// TestEngineLevelsZero covers the ablation path that skips the transform.
func TestEngineLevelsZero(t *testing.T) {
	ds := synth.RunningExampleSized(300, 1)
	cfg := core.DefaultConfig()
	cfg.Levels = 0
	want, err := oracle.Cluster(ds.Points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Cluster(ds.Points)
	if err != nil {
		t.Fatal(err)
	}
	core.AssertResultsEqual(t, want, got)
}
