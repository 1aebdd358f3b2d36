package adawave_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"adawave"
)

// TestErrorTaxonomyRowInput: every one-shot and session entry point that
// takes rows classifies bad rows under exactly one documented root — empty
// input as ErrNoPoints; ragged rows, NaN, ±Inf and zero-dimensional rows as
// ErrInvalidInput — whichever layer (row conversion, quantizer, session)
// catches them.
func TestErrorTaxonomyRowInput(t *testing.T) {
	roots := []error{
		adawave.ErrInvalidInput, adawave.ErrNoPoints, adawave.ErrConfigMismatch,
		adawave.ErrCanceled, adawave.ErrDeadlineExceeded, adawave.ErrResourceExhausted,
	}
	inputs := []struct {
		name   string
		points [][]float64
		root   error
	}{
		{"empty", nil, adawave.ErrNoPoints},
		{"ragged", [][]float64{{0, 0}, {1}, {2, 2}}, adawave.ErrInvalidInput},
		{"nan", [][]float64{{0, 0}, {1, math.NaN()}, {2, 2}}, adawave.ErrInvalidInput},
		{"+inf", [][]float64{{0, 0}, {1, math.Inf(1)}, {2, 2}}, adawave.ErrInvalidInput},
		{"-inf", [][]float64{{0, 0}, {math.Inf(-1), 1}, {2, 2}}, adawave.ErrInvalidInput},
		{"zero-dim", [][]float64{{}, {}, {}}, adawave.ErrInvalidInput},
	}
	cfg := adawave.DefaultConfig()
	c, err := adawave.NewClusterer(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// viaDataset converts the rows first; a conversion error is the entry
	// point's error.
	viaDataset := func(run func(*adawave.Dataset) error) func([][]float64) error {
		return func(points [][]float64) error {
			ds, err := adawave.FromSlices(points)
			if err != nil {
				return err
			}
			return run(ds)
		}
	}
	// viaSession appends to a fresh session and reads its labels: the
	// first error either step reports is the entry point's error.
	viaSession := func(appendRows func(*adawave.Session, [][]float64) error) func([][]float64) error {
		return func(points [][]float64) error {
			s := c.NewSession()
			if err := appendRows(s, points); err != nil {
				return err
			}
			_, err := s.Labels()
			return err
		}
	}
	entries := []struct {
		name string
		run  func([][]float64) error
	}{
		{"Cluster", func(p [][]float64) error { _, err := adawave.Cluster(p, cfg); return err }},
		{"ClusterMultiResolution", func(p [][]float64) error { _, err := adawave.ClusterMultiResolution(p, cfg, 2); return err }},
		{"Clusterer.Cluster", func(p [][]float64) error { _, err := c.Cluster(p); return err }},
		{"Clusterer.ClusterContext", func(p [][]float64) error { _, err := c.ClusterContext(ctx, p); return err }},
		{"Clusterer.ClusterMultiResolution", func(p [][]float64) error { _, err := c.ClusterMultiResolution(p, 2); return err }},
		{"Clusterer.ClusterMultiResolutionContext", func(p [][]float64) error {
			_, err := c.ClusterMultiResolutionContext(ctx, p, 2)
			return err
		}},
		{"Clusterer.ClusterDataset", viaDataset(func(ds *adawave.Dataset) error { _, err := c.ClusterDataset(ds); return err })},
		{"Clusterer.ClusterDatasetContext", viaDataset(func(ds *adawave.Dataset) error {
			_, err := c.ClusterDatasetContext(ctx, ds)
			return err
		})},
		{"Clusterer.ClusterMultiResolutionDataset", viaDataset(func(ds *adawave.Dataset) error {
			_, err := c.ClusterMultiResolutionDataset(ds, 2)
			return err
		})},
		{"Clusterer.ClusterMultiResolutionDatasetContext", viaDataset(func(ds *adawave.Dataset) error {
			_, err := c.ClusterMultiResolutionDatasetContext(ctx, ds, 2)
			return err
		})},
		{"Clusterer.ClusterDatasetExternal", viaDataset(func(ds *adawave.Dataset) error {
			_, err := c.ClusterDatasetExternal(ctx, ds)
			return err
		})},
		{"Session.AppendPoints", viaSession(func(s *adawave.Session, p [][]float64) error { return s.AppendPoints(p) })},
		{"Session.Append", viaSession(func(s *adawave.Session, p [][]float64) error {
			ds, err := adawave.FromSlices(p)
			if err != nil {
				return err
			}
			return s.Append(ds)
		})},
		{"Session.AppendContext", viaSession(func(s *adawave.Session, p [][]float64) error {
			ds, err := adawave.FromSlices(p)
			if err != nil {
				return err
			}
			return s.AppendContext(ctx, ds)
		})},
	}
	for _, in := range inputs {
		for _, e := range entries {
			err := e.run(in.points)
			if !errors.Is(err, in.root) {
				t.Errorf("%s/%s: error %v, want root %v", in.name, e.name, err, in.root)
				continue
			}
			for _, other := range roots {
				if other != in.root && errors.Is(err, other) {
					t.Errorf("%s/%s: error %v also matches root %v", in.name, e.name, err, other)
				}
			}
		}
	}
}
