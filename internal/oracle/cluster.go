package oracle

import (
	"sort"

	"adawave/internal/core"
	"adawave/internal/embed"
	"adawave/internal/grid"
	"adawave/internal/pointset"
)

// Cluster runs AdaWave on points (row-major, equal dimension) one stage at
// a time over the map grid and returns per-point labels plus diagnostics —
// the result the production Engine must reproduce for the same
// configuration. Points are not modified.
func Cluster(points [][]float64, cfg core.Config) (*core.Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, grid.ErrNoPoints
	}
	// Step 0 — embedding, when configured: fit on the input rows and
	// project them, as the Engine's embed stage does.
	if cfg.Embedding.Enabled() {
		ds, err := pointset.FromSlices(points)
		if err != nil {
			return nil, grid.InvalidInput(err)
		}
		emb, err := embed.New(cfg.Embedding)
		if err != nil {
			return nil, err
		}
		if err := emb.Fit(ds); err != nil {
			return nil, err
		}
		pds, err := emb.Transform(ds)
		if err != nil {
			return nil, err
		}
		points = pds.Rows()
	}
	cfg = resolveScale(cfg, points)

	// Step 1 — quantization (Alg. 2): sparse density grid, only occupied
	// cells stored.
	q, err := NewQuantizer(points, cfg.Scale)
	if err != nil {
		return nil, err
	}
	g, baseCells := QuantizeWithCells(q, points)

	// Step 2 — wavelet decomposition (Alg. 3): keep the scale-space
	// subband of each level; the detail subbands are the discarded
	// “wavelet coefficients close to zero … the noise part”.
	t := g
	if cfg.Levels > 0 {
		levels, err := TransformLevels(g, cfg.Basis, cfg.Levels)
		if err != nil {
			return nil, err
		}
		t = levels[len(levels)-1]
	}
	dropLowCoefficients(t, cfg.CoeffEpsilon)

	// Steps 3–6 — adaptive threshold (Alg. 4 / Fig. 6), noise filtering,
	// connected components, and the lookup table mapping points through
	// their base cell to its transformed-space ancestor (coordinates
	// right-shifted once per level — the dyadic downsampling
	// correspondence).
	out, err := finishClustering(t, baseCells, cfg.Levels, cfg)
	if err != nil {
		return nil, err
	}
	out.CellsQuantized = g.Len()
	return out, nil
}

// ClusterMultiResolution runs the AdaWave pipeline at every decomposition
// level from 1 to maxLevels in a single pass (quantizing and transforming
// once), returning one Result per level — the paper's multi-resolution
// property: coarser levels merge nearby structures, finer levels separate
// them. cfg.Levels is ignored.
func ClusterMultiResolution(points [][]float64, cfg core.Config, maxLevels int) ([]*core.Result, error) {
	cfg.Levels = 1 // validate against the weakest requirement
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if maxLevels < 1 {
		maxLevels = 1
	}
	if len(points) == 0 {
		return nil, grid.ErrNoPoints
	}
	cfg = resolveScale(cfg, points)
	q, err := NewQuantizer(points, cfg.Scale)
	if err != nil {
		return nil, err
	}
	g, baseCells := QuantizeWithCells(q, points)

	out := make([]*core.Result, 0, maxLevels)
	cur := g
	for level := 1; level <= maxLevels; level++ {
		tooSmall := false
		for _, s := range cur.Size {
			if s < 2 {
				tooSmall = true
				break
			}
		}
		if tooSmall {
			break
		}
		cur = Transform(cur, cfg.Basis)
		t := cur.Clone()
		dropLowCoefficients(t, cfg.CoeffEpsilon)
		res, err := finishClustering(t, baseCells, level, cfg)
		if err != nil {
			return nil, err
		}
		res.CellsQuantized = g.Len()
		out = append(out, res)
	}
	return out, nil
}

// finishClustering performs threshold filtering, component labeling and
// point assignment on an already-transformed grid (steps 3–6 of Alg. 1).
func finishClustering(t *Grid, baseCells []Key, levels int, cfg core.Config) (*core.Result, error) {
	res := &core.Result{
		CellsTransformed: t.Len(),
		Levels:           levels,
		Scale:            cfg.Scale,
	}
	res.Labels = make([]int, len(baseCells))
	if t.Len() == 0 {
		for i := range res.Labels {
			res.Labels[i] = core.Noise
		}
		return res, nil
	}
	res.Curve = t.SortedDensities()
	res.Threshold, res.ThresholdIndex = cfg.Threshold.Cut(res.Curve)
	kept := t.Threshold(res.Threshold)
	if kept.Len() == 0 {
		kept = t
	}
	res.CellsKept = kept.Len()
	cells, err := Components(kept, cfg.Connectivity)
	if err != nil {
		return nil, err
	}
	labels := relabelBySize(kept, cells, cfg.MinClusterCells, cfg.MinClusterMass)
	numClusters := 0
	for _, l := range labels {
		if l+1 > numClusters {
			numClusters = l + 1
		}
	}
	res.NumClusters = numClusters
	// Per-point assignment probes the label map through a reused key
	// buffer, so the lookup allocates nothing per point.
	var buf []byte
	if len(baseCells) > 0 {
		buf = make([]byte, 0, 2*baseCells[0].Dim())
	}
	for i, bk := range baseCells {
		buf = AppendShiftedKey(buf[:0], bk, levels)
		if l, ok := labels[Key(buf)]; ok {
			res.Labels[i] = l
		} else {
			res.Labels[i] = core.Noise
		}
	}
	return res, nil
}

// resolveScale substitutes the automatic scale for Scale == 0 and clamps
// Levels so every dimension keeps at least two cells after decomposition.
func resolveScale(cfg core.Config, points [][]float64) core.Config {
	if cfg.Scale == 0 {
		cfg.Scale = core.AutoScale(len(points), max(len(points[0]), 1))
		for cfg.Levels > 0 && cfg.Scale>>uint(cfg.Levels) < 2 {
			cfg.Levels--
		}
	}
	return cfg
}

// dropLowCoefficients implements the paper's “remove … the low value of
// scaling coefficients”: cells below eps × (max density) are discarded.
func dropLowCoefficients(t *Grid, eps float64) {
	var maxD float64
	for _, v := range t.Cells {
		if v > maxD {
			maxD = v
		}
	}
	cut := eps * maxD
	if cut <= 0 {
		cut = 1e-12 // always remove zero/negative coefficients
	}
	t.DropBelow(cut)
}

// relabelBySize renumbers component labels 0…k−1 in decreasing mass order
// (so label 0 is always the heaviest cluster) and demotes components below
// the cell-count or mass-fraction floor to Noise. If every component would
// be demoted, the heaviest survives: a non-empty grid always yields at
// least one cluster.
func relabelBySize(kept *Grid, cells map[Key]int, minCells int, minMassFrac float64) map[Key]int {
	type comp struct {
		label, cells int
		mass         float64
	}
	byLabel := make(map[int]*comp)
	for k, l := range cells {
		c := byLabel[l]
		if c == nil {
			c = &comp{label: l}
			byLabel[l] = c
		}
		c.cells++
		c.mass += kept.Density(k)
	}
	comps := make([]*comp, 0, len(byLabel))
	for _, c := range byLabel {
		comps = append(comps, c)
	}
	// Sort by mass descending, breaking ties by original label for
	// determinism.
	sort.Slice(comps, func(i, j int) bool {
		if comps[i].mass != comps[j].mass {
			return comps[i].mass > comps[j].mass
		}
		return comps[i].label < comps[j].label
	})
	remap := make(map[int]int, len(comps))
	next := 0
	var heaviest float64
	if len(comps) > 0 {
		heaviest = comps[0].mass
	}
	for i, c := range comps {
		tooSmall := c.cells < minCells || (minMassFrac > 0 && c.mass < minMassFrac*heaviest)
		if tooSmall && i > 0 {
			remap[c.label] = core.Noise
			continue
		}
		remap[c.label] = next
		next++
	}
	out := make(map[Key]int, len(cells))
	for k, l := range cells {
		if nl := remap[l]; nl != core.Noise {
			out[k] = nl
		}
	}
	return out
}
