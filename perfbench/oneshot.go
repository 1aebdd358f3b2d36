package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"adawave/internal/core"
	"adawave/internal/embed"
	"adawave/internal/metrics"
	"adawave/internal/pointset"
	"adawave/internal/synth"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, and the last set-up is the one the loop uses.
const setupReps = 5

// oneShot is a workload of repeated one-shot ClusterDataset calls from one
// caller in a closed loop.
type oneShot struct {
	gen func(seed int64) *synth.Dataset
	cfg core.Config
	// amiFloor is the least non-noise AMI against the generator's ground
	// truth that counts as a correct clustering.
	amiFloor float64
}

// runBatch is the paper's headline use: 400k 2-D points, five arbitrary
// shapes in 75 % uniform noise (the Fig. 7 generator), default config.
func runBatch(r *run) error {
	return runOneShot(r, oneShot{
		gen:      func(seed int64) *synth.Dataset { return synth.Evaluation(20000, 0.75, seed) },
		cfg:      core.DefaultConfig(),
		amiFloor: 0.75,
	})
}

// runHighD is the high-dimensional claim: 25k points in d = 64 on a rank-4
// subspace, PCA(4) in front of the grid, automatic scale.
func runHighD(r *run) error {
	cfg := core.DefaultConfig()
	cfg.Scale = 0
	cfg.Embedding = embed.Spec{Kind: embed.KindPCA, K: 4}
	return runOneShot(r, oneShot{
		gen:      func(seed int64) *synth.Dataset { return synth.HighDimMixture(5, 4000, 64, 4, 0.2, seed) },
		cfg:      cfg,
		amiFloor: 0.1,
	})
}

func runOneShot(r *run, w oneShot) error {
	var (
		setups []setupTime
		data   *synth.Dataset
		ds     *pointset.Dataset
		eng    *core.Engine
		first  *core.Result
	)
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		cpu0, err := procCPU(0)
		if err != nil {
			return err
		}
		data = w.gen(r.seed)
		ds = data.Flat()
		if eng, err = core.NewEngine(w.cfg, r.workers); err != nil {
			return err
		}
		if first, err = eng.ClusterDataset(ds); err != nil {
			return fmt.Errorf("warm-up call: %w", err)
		}
		wall := time.Since(t0)
		cpu1, err := procCPU(0)
		if err != nil {
			return err
		}
		setups = append(setups, setupTime{wall, cpu1 - cpu0})
	}
	r.note("setup: median of %d (generate %d×%d points, build engine, one warm-up call)", len(setups), ds.N, ds.D)

	seq, err := core.NewEngine(w.cfg, 1)
	if err != nil {
		return err
	}
	ref, err := seq.ClusterDataset(ds)
	if err != nil {
		return fmt.Errorf("workers=1 reference: %w", err)
	}
	r.attempted++
	if i := firstMismatch(first.Labels, ref.Labels); i >= 0 {
		r.fail("first call differs from the workers=1 engine at label %d", i)
	}

	runtime.GC()
	untraced, mem := r.oneShotLoop(eng, ds, first.Labels, false)
	r.setE2EFrom(setups, untraced)
	r.alias("cluster_p50_ms", "op_p50_ms")
	r.alias("cluster_p99_ms", "op_p99_ms")
	r.note("cluster_p50_ms and cluster_p99_ms are op_p50_ms and op_p99_ms; n = %d points per call", ds.N)

	if r.traced {
		traced, _ := r.oneShotLoop(eng, ds, first.Labels, true)
		r.setOverhead(untraced, traced)
		r.setStageLayers("op", untraced.op.p50, "op_p50_ms")
		r.setCells(first)
		r.setMem(mem)
	}

	// Scored once, after every timed loop.
	r.attempted++
	if ami := metrics.AMINonNoise(data.Labels, first.Labels, synth.NoiseLabel); ami < w.amiFloor {
		r.fail("AMI (non-noise) %.4f below the floor %.2f", ami, w.amiFloor)
	} else {
		r.note("AMI (non-noise) %.4f ≥ floor %.2f", ami, w.amiFloor)
	}
	return nil
}

// memDelta is the allocation work of one loop, per op.
type memDelta struct {
	bytes, allocs, gcs float64
}

// oneShotLoop calls eng.ClusterDataset(ds) for r.seconds from one caller and
// checks every call's labels against want, outside the timed call. With
// trace set, each call is a root span and each pipeline stage a child span,
// observed through core.SetStageHook.
func (r *run) oneShotLoop(eng *core.Engine, ds *pointset.Dataset, want []int, trace bool) (loopStats, memDelta) {
	var lat []time.Duration
	st := &stageSpans{tr: r.tr, open: -1}
	if trace {
		core.SetStageHook(st.hook)
		defer core.SetStageHook(nil)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	meter := cpuMeter{0}
	c0, cpuErr := meter.read()
	deadline := time.Now().Add(r.seconds)
	for round := int64(0); time.Now().Before(deadline); round++ {
		root := -1
		if trace {
			root = r.tr.begin("op", -1, round)
			st.parent, st.round = root, round
		}
		t0 := time.Now()
		res, err := eng.ClusterDataset(ds)
		d := time.Since(t0)
		if trace {
			st.finish()
			r.tr.end(root)
		}
		r.attempted++
		if err != nil {
			r.fail("call %d: %v", round, err)
			continue
		}
		if i := firstMismatch(res.Labels, want); i >= 0 {
			r.fail("call %d: labels differ from the first call's at %d", round, i)
			continue
		}
		lat = append(lat, d)
	}
	c1, err := meter.read()
	runtime.ReadMemStats(&m1)
	s := loopStats{op: summarize(lat), pointsPerOp: float64(ds.N)}
	if s.op.n > 0 {
		s.opsPerS = float64(s.op.n) / s.op.sum.Seconds()
		s.pointsPerS = s.opsPerS * float64(ds.N)
	}
	if err = errors.Join(cpuErr, err); err != nil {
		r.attempted++
		r.fail("%v", err)
	} else {
		s.setCPU(c0, c1, s.op.n)
	}
	if s.rssMiB, err = vmHWM("self"); err != nil {
		r.attempted++
		r.fail("VmHWM: %v", err)
	}
	calls := float64(max(len(lat), 1))
	return s, memDelta{
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / calls,
		allocs: float64(m1.Mallocs-m0.Mallocs) / calls,
		gcs:    float64(m1.NumGC-m0.NumGC) / calls,
	}
}

// stageSpans turns the pipeline's stage-boundary notifications into child
// spans of the current op: a stage runs from its boundary to the next one,
// the last stage to the end of the call. Only the calling goroutine invokes
// the hook, so no locking is needed beyond the tracer's own.
type stageSpans struct {
	tr     *tracer
	parent int
	round  int64
	open   int
}

func (s *stageSpans) hook(name string) {
	if s.open >= 0 {
		s.tr.end(s.open)
	}
	s.open = s.tr.begin("stage."+name, s.parent, s.round)
}

func (s *stageSpans) finish() {
	if s.open >= 0 {
		s.tr.end(s.open)
		s.open = -1
	}
}

// stageNames are the pipeline stages whose self time is reported.
var stageNames = []string{"embed", "quantize", "fold", "transform", "threshold", "connect", "assign"}

// setStageLayers reports each stage's median self time per call and its
// share of ref, the untraced end-to-end figure (named refName) the stages
// sit under. root names the span around each call; its own self time is
// the call's time outside every stage.
func (r *run) setStageLayers(root string, ref time.Duration, refName string) {
	self := r.tr.selfTimes()
	share := func(d time.Duration) float64 { return 100 * float64(d) / float64(max(ref, 1)) }
	for _, s := range stageNames {
		d := medianDur(self["stage."+s])
		r.setLayer("stage."+s+"_ms", ms(d), "ms")
		if d > 0 {
			r.note("stage.%s self %.3f ms = %.1f%% of %s (%d spans)", s, ms(d), share(d), refName, len(self["stage."+s]))
		}
	}
	other := medianDur(self[root])
	r.setLayer("stage.other_ms", ms(other), "ms")
	r.note("%s self (outside stages) %.3f ms = %.1f%% of %s", root, ms(other), share(other), refName)
}

// setCells reports a result's exact cell counts.
func (r *run) setCells(res *core.Result) {
	r.setLayer("cells.quantized", float64(res.CellsQuantized), "count")
	r.setLayer("cells.transformed", float64(res.CellsTransformed), "count")
	r.setLayer("cells.kept", float64(res.CellsKept), "count")
	ratio := 0.0
	if res.CellsTransformed > 0 {
		ratio = float64(res.CellsKept) / float64(res.CellsTransformed)
	}
	r.setLayer("cells.kept_ratio", ratio, "ratio")
}

func (r *run) setMem(m memDelta) {
	r.setLayer("mem.alloc_bytes_per_op", m.bytes, "B")
	r.setLayer("mem.allocs_per_op", m.allocs, "count")
	r.setLayer("gc.cycles_per_op", m.gcs, "count")
}
