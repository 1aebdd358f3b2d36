package main

import "time"

// metricDef names one metric of the result line. For a per-layer metric,
// moves and on say which end-to-end metric a change to that layer should
// move, and on which workload — the map later performance work cites.
type metricDef struct {
	name, unit, better string
	moves, on          string
}

// e2eMetrics are reported, untraced, on every workload. A workload's "op" is
// its unit of user-visible work: one ClusterDataset call on batch and highd,
// one append → labels → remove round on serve. The throughput figures are
// per CPU second of every process the workload runs on, not per wall second:
// on a shared host the hypervisor's steal time spread the wall-clock figures
// (points_per_s, ops_per_s, op_p50_ms) by a fifth to a half of their median
// over runs of the same code, so those are per-layer metrics without a bound.
var e2eMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "points_per_cpu_s", unit: "1/s", better: "higher"},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower"},
	{name: "peak_rss_mib", unit: "MiB", better: "lower"},
}

// layerMetrics are reported by a traced run. Every name appears on every
// workload; a layer the workload never calls reports 0.
var layerMetrics = []metricDef{
	{"setup_wall_s", "s", "lower", "wall-clock view of setup_s", "all"},
	{"points_per_s", "1/s", "higher", "wall-clock view of points_per_cpu_s (untraced loop)", "all"},
	{"ops_per_s", "1/s", "higher", "wall-clock view of cpu_ms_per_op (untraced loop)", "all"},
	{"op_p50_ms", "ms", "lower", "wall-clock op latency (untraced loop)", "all"},
	{"op_p99_ms", "ms", "lower", "wall-clock tail (untraced loop)", "all"},
	{"cpu.bench_ms_per_op", "ms", "lower", "cpu_ms_per_op, points_per_cpu_s", "all"},
	{"cpu.primary_ms_per_op", "ms", "lower", "cpu_ms_per_op, points_per_cpu_s", "serve"},
	{"cpu.follower_ms_per_op", "ms", "lower", "cpu_ms_per_op, points_per_cpu_s", "serve"},
	{"cpu.router_ms_per_op", "ms", "lower", "cpu_ms_per_op, points_per_cpu_s", "serve"},
	{"stage.embed_ms", "ms", "lower", "cpu_ms_per_op, points_per_cpu_s, op_p50_ms", "highd"},
	{"stage.quantize_ms", "ms", "lower", "cpu_ms_per_op, points_per_cpu_s, op_p50_ms", "batch"},
	{"stage.fold_ms", "ms", "lower", "cpu_ms_per_op, labels_p50_ms", "serve"},
	{"stage.transform_ms", "ms", "lower", "cpu_ms_per_op; labels_p50_ms (serve), op_p50_ms (batch)", "serve, batch"},
	{"stage.threshold_ms", "ms", "lower", "cpu_ms_per_op; labels_p50_ms (serve), op_p50_ms (batch)", "serve, batch"},
	{"stage.connect_ms", "ms", "lower", "cpu_ms_per_op, op_p50_ms", "highd, batch"},
	{"stage.assign_ms", "ms", "lower", "cpu_ms_per_op; labels_p50_ms (serve), op_p50_ms (batch)", "serve, batch"},
	{"stage.other_ms", "ms", "lower", "cpu_ms_per_op, op_p50_ms (call time outside every stage)", "batch, highd, serve"},
	{"cells.quantized", "count", "lower", "explains stage-time shifts", "all"},
	{"cells.transformed", "count", "lower", "explains stage-time shifts", "all"},
	{"cells.kept", "count", "lower", "explains stage-time shifts", "all"},
	{"cells.kept_ratio", "ratio", "higher", "explains stage-time shifts", "all"},
	{"mem.alloc_bytes_per_op", "B", "lower", "cpu_ms_per_op, peak_rss_mib, op_p99_ms; labels_p99_ms", "batch, highd, serve"},
	{"mem.allocs_per_op", "count", "lower", "cpu_ms_per_op, peak_rss_mib, op_p99_ms; labels_p99_ms", "batch, highd, serve"},
	{"gc.cycles_per_op", "count", "lower", "cpu_ms_per_op, peak_rss_mib, op_p99_ms; labels_p99_ms", "batch, highd, serve"},
	{"api.labels_encode_ms", "ms", "lower", "cpu.primary_ms_per_op, labels_p50_ms", "serve"},
	{"api.labels_decode_ms", "ms", "lower", "cpu.bench_ms_per_op, labels_p50_ms", "serve"},
	{"api.labels_body_bytes", "B", "lower", "cpu_ms_per_op, labels_p50_ms", "serve"},
	{"wal.append_ms", "ms", "lower", "append_p50_ms", "serve"},
	{"wal.remove_ms", "ms", "lower", "remove_p50_ms", "serve"},
	{"wal.bytes_per_record", "B", "lower", "append_p50_ms, remove_p50_ms", "serve"},
	{"checkpoint.encode_ms", "ms", "lower", "append_p99_ms, remove_p99_ms", "serve"},
	{"checkpoint.decode_ms", "ms", "lower", "setup_s (follower seeding)", "serve"},
	{"checkpoint.bytes", "B", "lower", "append_p99_ms, remove_p99_ms, setup_s", "serve"},
	{"node.append_ms", "ms", "lower", "append_p50_ms", "serve"},
	{"node.labels_ms", "ms", "lower", "labels_p50_ms, labels_ndjson_p50_ms", "serve"},
	{"node.remove_ms", "ms", "lower", "remove_p50_ms", "serve"},
	{"node.errors", "count", "lower", "every serve latency", "serve"},
	{"proxy.hop_ms", "ms", "lower", "cpu.router_ms_per_op, every serve latency", "serve"},
	{"replication.lag_max", "count", "lower", "cpu.follower_ms_per_op, labels_p99_ms", "serve"},
	{"replication.applied", "count", "higher", "cpu.follower_ms_per_op, labels_p99_ms", "serve"},
	{"append_p50_ms", "ms", "lower", "op_p50_ms, ops_per_s", "serve"},
	{"append_p99_ms", "ms", "lower", "op_p99_ms", "serve"},
	{"labels_p50_ms", "ms", "lower", "op_p50_ms, ops_per_s", "serve"},
	{"labels_p99_ms", "ms", "lower", "op_p99_ms", "serve"},
	{"labels_ndjson_p50_ms", "ms", "lower", "op_p50_ms, ops_per_s", "serve"},
	{"labels_ndjson_p99_ms", "ms", "lower", "op_p99_ms", "serve"},
	{"remove_p50_ms", "ms", "lower", "op_p50_ms, ops_per_s", "serve"},
	{"remove_p99_ms", "ms", "lower", "op_p99_ms", "serve"},
	{"unattributed.append_ms", "ms", "lower", "append_p50_ms", "serve"},
	{"unattributed.labels_ms", "ms", "lower", "labels_p50_ms", "serve"},
	{"unattributed.remove_ms", "ms", "lower", "remove_p50_ms", "serve"},
	{"overhead.points_per_cpu_s", "1/s", "higher", "tracing cost: traced minus untraced", "all"},
	{"overhead.cpu_ms_per_op", "ms", "lower", "tracing cost: traced minus untraced", "all"},
	{"overhead.points_per_s", "1/s", "higher", "tracing cost: traced minus untraced", "all"},
	{"overhead.ops_per_s", "1/s", "higher", "tracing cost: traced minus untraced", "all"},
	{"overhead.op_p50_ms", "ms", "lower", "tracing cost: traced minus untraced", "all"},
	{"overhead.op_p99_ms", "ms", "lower", "tracing cost: traced minus untraced", "all"},
	{"overhead.peak_rss_mib", "MiB", "lower", "tracing cost: traced minus untraced", "all"},
}

// loopStats is what one measured loop yields, traced or not.
type loopStats struct {
	pointsPerS, opsPerS float64
	op                  latencies
	rssMiB              float64
	// cpu is the CPU time per successful op of each process in cpuProcs
	// (0 for one the workload does not run), over the whole loop.
	cpu         [len(cpuProcs)]time.Duration
	pointsPerOp float64
}

// setCPU spreads the CPU time a cpuMeter's processes used between readings
// c0 and c1 over ops successful ops.
func (s *loopStats) setCPU(c0, c1 []time.Duration, ops int) {
	if ops == 0 {
		return
	}
	for i := range c0 {
		s.cpu[i] = (c1[i] - c0[i]) / time.Duration(ops)
	}
}

// cpuPerOp is the CPU time of every process per op.
func (s loopStats) cpuPerOp() time.Duration {
	var sum time.Duration
	for _, d := range s.cpu {
		sum += d
	}
	return sum
}

func (s loopStats) pointsPerCPU() float64 {
	if c := s.cpuPerOp(); c > 0 {
		return s.pointsPerOp / c.Seconds()
	}
	return 0
}

// setupTime is one set-up's wall-clock time and the CPU time every process
// of the workload spent in it.
type setupTime struct{ wall, cpu time.Duration }

// setE2EFrom reports a loop's end-to-end metrics and the median set-up, and
// its wall-clock and per-process figures as per-layer ones. setup_s is CPU
// time for the same reason the throughput figures are.
func (r *run) setE2EFrom(setups []setupTime, s loopStats) {
	var wall, cpu []time.Duration
	for _, st := range setups {
		wall, cpu = append(wall, st.wall), append(cpu, st.cpu)
	}
	r.setE2E("setup_s", medianDur(cpu).Seconds(), "s")
	r.setLayer("setup_wall_s", medianDur(wall).Seconds(), "s")
	r.setE2E("points_per_cpu_s", s.pointsPerCPU(), "1/s")
	r.setE2E("cpu_ms_per_op", ms(s.cpuPerOp()), "ms")
	r.setE2E("peak_rss_mib", s.rssMiB, "MiB")
	r.setLayer("points_per_s", s.pointsPerS, "1/s")
	r.setLayer("ops_per_s", s.opsPerS, "1/s")
	r.setLayer("op_p50_ms", ms(s.op.p50), "ms")
	r.setLayer("op_p99_ms", ms(s.op.tail), "ms")
	for i, name := range cpuProcs {
		r.setLayer("cpu."+name+"_ms_per_op", ms(s.cpu[i]), "ms")
	}
	r.note("op latency: %s", s.op.describe())
}

// setOverhead reports traced minus untraced for every loop metric; setup is
// never traced.
func (r *run) setOverhead(untraced, traced loopStats) {
	r.setLayer("overhead.points_per_cpu_s", traced.pointsPerCPU()-untraced.pointsPerCPU(), "1/s")
	r.setLayer("overhead.cpu_ms_per_op", ms(traced.cpuPerOp()-untraced.cpuPerOp()), "ms")
	r.setLayer("overhead.points_per_s", traced.pointsPerS-untraced.pointsPerS, "1/s")
	r.setLayer("overhead.ops_per_s", traced.opsPerS-untraced.opsPerS, "1/s")
	r.setLayer("overhead.op_p50_ms", ms(traced.op.p50-untraced.op.p50), "ms")
	r.setLayer("overhead.op_p99_ms", ms(traced.op.tail-untraced.op.tail), "ms")
	r.setLayer("overhead.peak_rss_mib", traced.rssMiB-untraced.rssMiB, "MiB")
	r.note("traced op latency: %s", traced.op.describe())
}
