package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"adawave/internal/api"
	"adawave/internal/core"
	"adawave/internal/persist"
)

const (
	// replayRounds, layerReps and ckptReps are the sample counts of the
	// in-process layer measurements of a traced serve run.
	replayRounds = 40
	layerReps    = 40
	ckptReps     = 10
	hopProbes    = 200
	// samplePeriod is the replication-status sampling period while traced.
	samplePeriod = 100 * time.Millisecond
)

// serveObserver watches the nodes during a traced loop: the primary's
// /v1/metrics route totals before and after, and the follower's
// /v1/replication/status against the primary's every samplePeriod.
type serveObserver struct {
	c                  *cluster
	before, after      api.MetricsResponse
	applied0, applied1 map[string]uint64
	lagMax             uint64
	samples            int
	errs               []error
	stopCh, done       chan struct{}
}

func (o *serveObserver) start(c *cluster, tr *tracer) {
	o.c = c
	o.stopCh, o.done = make(chan struct{}), make(chan struct{})
	if err := c.getJSON(c.primary.url+"/v1/metrics", &o.before); err != nil {
		o.errs = append(o.errs, err)
	}
	var err error
	if _, o.applied0, err = c.lag(); err != nil {
		o.errs = append(o.errs, err)
	}
	go func() {
		defer close(o.done)
		t := time.NewTicker(samplePeriod)
		defer t.Stop()
		for {
			select {
			case <-o.stopCh:
				return
			case <-t.C:
				t0 := time.Now()
				lag, _, err := c.lag()
				tr.add("sample.replication", t0, time.Since(t0), -1, int64(o.samples))
				o.samples++
				if err != nil {
					o.errs = append(o.errs, err)
					continue
				}
				for _, l := range lag {
					o.lagMax = max(o.lagMax, l)
				}
			}
		}
	}()
}

// stop ends sampling, waits for the sampler to exit and takes the closing
// readings.
func (o *serveObserver) stop() {
	close(o.stopCh)
	<-o.done
	if err := o.c.getJSON(o.c.primary.url+"/v1/metrics", &o.after); err != nil {
		o.errs = append(o.errs, err)
	}
	var err error
	if _, o.applied1, err = o.c.lag(); err != nil {
		o.errs = append(o.errs, err)
	}
}

// setServeSteps reports the client-observed latency of each HTTP step.
func (r *run) setServeSteps(s stepStats) {
	for _, st := range []struct {
		name string
		l    latencies
	}{{"append", s.append}, {"labels", s.labels}, {"labels_ndjson", s.ndjson}, {"remove", s.remove}} {
		r.setLayer(st.name+"_p50_ms", ms(st.l.p50), "ms")
		r.setLayer(st.name+"_p99_ms", ms(st.l.tail), "ms")
		r.note("%s latency: %s", st.name, st.l.describe())
	}
}

// setNodeLayers reports the node-side view of the traced loop and, per
// step, the client-observed mean no measured layer accounts for.
func (r *run) setNodeLayers(o *serveObserver, traced stepStats, hop float64) {
	r.attempted++
	if len(o.errs) > 0 {
		r.fail("node observation: %v", o.errs[0])
	}
	route := func(name string) float64 {
		b, a := o.before.Routes[name], o.after.Routes[name]
		if n := a.Requests - b.Requests; n > 0 {
			return (a.TotalMs - b.TotalMs) / float64(n)
		}
		return 0
	}
	var errs int64
	for name, a := range o.after.Routes {
		errs += a.Errors - o.before.Routes[name].Errors
	}
	nodeAppend, nodeLabels, nodeRemove := route("append_points"), route("labels"), route("remove_points")
	r.setLayer("node.append_ms", nodeAppend, "ms")
	r.setLayer("node.labels_ms", nodeLabels, "ms")
	r.setLayer("node.remove_ms", nodeRemove, "ms")
	r.setLayer("node.errors", float64(errs), "count")
	r.setLayer("proxy.hop_ms", hop, "ms")
	var applied uint64
	for id, a := range o.applied1 {
		applied += a - o.applied0[id]
	}
	r.setLayer("replication.lag_max", float64(o.lagMax), "count")
	r.setLayer("replication.applied", float64(applied), "count")
	r.note("replication: %d samples every %s; lag = primary WAL seq − follower appliedSeq", o.samples, samplePeriod)

	labelsMean := 0.0
	if n := traced.labels.n + traced.ndjson.n; n > 0 {
		labelsMean = ms(traced.labels.sum+traced.ndjson.sum) / float64(n)
	}
	decode := r.layer["api.labels_decode_ms"].Value
	r.setLayer("unattributed.append_ms", ms(traced.append.mean)-nodeAppend-hop, "ms")
	r.setLayer("unattributed.labels_ms", labelsMean-nodeLabels-hop-decode, "ms")
	r.setLayer("unattributed.remove_ms", ms(traced.remove.mean)-nodeRemove-hop, "ms")
	r.note("unattributed = traced client mean − node.* mean − proxy.hop_ms (− api.labels_decode_ms for labels; JSON and NDJSON reads pooled)")
}

// proxyHop times the same cheap GET /v1/sessions/{id} through the router
// and straight to the primary, alternating, and returns the difference of
// the medians in ms.
func (r *run) proxyHop(c *cluster) float64 {
	var via, direct []time.Duration
	get := func(name, url string, i int) (time.Duration, error) {
		t0 := time.Now()
		resp, err := c.probe.Get(url)
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		d := time.Since(t0)
		r.tr.add(name, t0, d, -1, int64(i))
		if err == nil && resp.StatusCode != 200 {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		return d, err
	}
	path := "/v1/sessions/" + c.ids[0]
	for i := 0; i < hopProbes; i++ {
		r.attempted += 2
		first, second := c.router.url, c.primary.url
		if i%2 == 1 {
			first, second = second, first
		}
		for _, base := range []string{first, second} {
			name := "probe.direct"
			if base == c.router.url {
				name = "probe.router"
			}
			d, err := get(name, base+path, i)
			if err != nil {
				r.fail("%s: %v", name, err)
				continue
			}
			if base == c.router.url {
				via = append(via, d)
			} else {
				direct = append(direct, d)
			}
		}
	}
	r.note("proxy.hop_ms: median of %d via the router − median of %d direct", len(via), len(direct))
	return ms(medianDur(via) - medianDur(direct))
}

// replayLayers measures the layers under a serve round in process, on client
// 0's data: the session fold and grid stages (a core.Session replaying the
// round with the server's default config), the /v1 JSON encoding of the
// labels, the WAL records of the round and the session checkpoint.
func (r *run) replayLayers(in serveInput, labelsP50 time.Duration) error {
	eng, err := core.NewEngine(core.DefaultConfig(), r.workers)
	if err != nil {
		return err
	}
	sess := eng.NewSession()
	if err := sess.Append(in.warmDS); err != nil {
		return err
	}
	r.attempted++
	warm, err := sess.Labels()
	if err != nil {
		return err
	}
	if i := firstMismatch(warm, in.warmLabels); i >= 0 {
		r.fail("replay: warm session labels differ from the one-shot labels at %d", i)
	}

	var last *core.Result
	round := func(st *stageSpans, i int) {
		r.attempted++
		if err := sess.Append(in.deltaDS); err != nil {
			r.fail("replay append: %v", err)
			return
		}
		root := -1
		if st != nil {
			root = r.tr.begin("replay.labels", -1, int64(i))
			st.parent, st.round = root, int64(i)
		}
		res, err := sess.Result()
		if st != nil {
			st.finish()
			r.tr.end(root)
		}
		if err != nil {
			r.fail("replay labels: %v", err)
		} else if j := firstMismatch(res.Labels, in.want); j >= 0 {
			r.fail("replay round %d: labels differ from the one-shot labels at %d", i, j)
		}
		last = res
		if err := sess.Remove(in.removeIdx); err != nil {
			r.fail("replay remove: %v", err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < replayRounds; i++ {
		round(nil, i)
	}
	runtime.ReadMemStats(&m1)
	r.setMem(memDelta{
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / replayRounds,
		allocs: float64(m1.Mallocs-m0.Mallocs) / replayRounds,
		gcs:    float64(m1.NumGC-m0.NumGC) / replayRounds,
	})
	st := &stageSpans{tr: r.tr, open: -1}
	core.SetStageHook(st.hook)
	for i := 0; i < replayRounds; i++ {
		round(st, i)
	}
	core.SetStageHook(nil)
	r.setStageLayers("replay.labels", labelsP50, "labels_p50_ms")
	if last != nil {
		r.setCells(last)
	}
	r.note("stages and mem: in-process core.Session, %d rounds each untraced (mem) and traced (stages)", replayRounds)

	r.apiLayers(in, last)
	dir, err := os.MkdirTemp(r.work, "layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := r.walLayers(in, dir); err != nil {
		return err
	}
	return r.checkpointLayers(sess, eng, in, dir)
}

// apiLayers times encoding/json of the /v1 labels body both ways, as the
// server writes it (json.Encoder) and the client reads it (json.Decoder).
func (r *run) apiLayers(in serveInput, res *core.Result) {
	body := api.Result{Labels: in.want}
	if res != nil {
		body = api.Result{
			Labels: in.want, NumClusters: res.NumClusters, Noise: res.NoiseCount(),
			Threshold: res.Threshold, Levels: res.Levels, Scale: res.Scale,
			CellsQuantized: res.CellsQuantized, CellsTransformed: res.CellsTransformed, CellsKept: res.CellsKept,
		}
	}
	var buf bytes.Buffer
	var enc, dec []time.Duration
	for i := 0; i < layerReps; i++ {
		buf.Reset()
		t0 := time.Now()
		err := json.NewEncoder(&buf).Encode(body)
		d := time.Since(t0)
		r.tr.add("api.encode", t0, d, -1, int64(i))
		r.attempted++
		if err != nil {
			r.fail("api encode: %v", err)
			continue
		}
		enc = append(enc, d)
	}
	raw := buf.Bytes()
	for i := 0; i < layerReps; i++ {
		var out api.Result
		t0 := time.Now()
		err := json.NewDecoder(bytes.NewReader(raw)).Decode(&out)
		d := time.Since(t0)
		r.tr.add("api.decode", t0, d, -1, int64(i))
		r.attempted++
		if err != nil {
			r.fail("api decode: %v", err)
			continue
		}
		if j := firstMismatch(out.Labels, in.want); j >= 0 {
			r.fail("api decode: label %d changed in the round trip", j)
			continue
		}
		dec = append(dec, d)
	}
	r.setLayer("api.labels_encode_ms", ms(medianDur(enc)), "ms")
	r.setLayer("api.labels_decode_ms", ms(medianDur(dec)), "ms")
	r.setLayer("api.labels_body_bytes", float64(len(raw)), "B")
	r.note("api: medians of %d encodes and %d decodes of a %d-label body", len(enc), len(dec), len(in.want))
}

// walLayers times the round's two WAL records under the serve policy
// (fsync before acknowledging).
func (r *run) walLayers(in serveInput, dir string) error {
	w, err := persist.OpenWAL(filepath.Join(dir, "wal.log"), persist.SyncAlways)
	if err != nil {
		return err
	}
	var app, rem []time.Duration
	for i := 0; i < layerReps; i++ {
		r.attempted += 2
		t0 := time.Now()
		_, err := w.AppendBatch(in.deltaDS)
		d := time.Since(t0)
		r.tr.add("wal.append", t0, d, -1, int64(i))
		if err != nil {
			r.fail("wal append: %v", err)
		} else {
			app = append(app, d)
		}
		t0 = time.Now()
		_, err = w.AppendRemove(in.removeIdx)
		d = time.Since(t0)
		r.tr.add("wal.remove", t0, d, -1, int64(i))
		if err != nil {
			r.fail("wal remove: %v", err)
		} else {
			rem = append(rem, d)
		}
	}
	perRecord := 0.0
	if n := w.Records(); n > 0 {
		perRecord = float64(w.Size()) / float64(n)
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("close wal: %w", err)
	}
	r.setLayer("wal.append_ms", ms(medianDur(app)), "ms")
	r.setLayer("wal.remove_ms", ms(medianDur(rem)), "ms")
	r.setLayer("wal.bytes_per_record", perRecord, "B")
	r.note("wal: medians of %d appends and %d removes, sync=always", len(app), len(rem))
	return nil
}

// checkpointLayers times a checkpoint of the warm session written to a file
// and fsynced, as the server's checkpointer does, and its restore.
func (r *run) checkpointLayers(sess *core.Session, eng *core.Engine, in serveInput, dir string) error {
	path := filepath.Join(dir, "checkpoint")
	write := func() error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := sess.Checkpoint(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	var enc, dec []time.Duration
	for i := 0; i < ckptReps; i++ {
		r.attempted++
		t0 := time.Now()
		err := write()
		d := time.Since(t0)
		r.tr.add("checkpoint.encode", t0, d, -1, int64(i))
		if err != nil {
			r.fail("checkpoint: %v", err)
			continue
		}
		enc = append(enc, d)
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	var restored *core.Session
	for i := 0; i < ckptReps; i++ {
		r.attempted++
		t0 := time.Now()
		f, err := os.Open(path)
		if err == nil {
			restored, err = core.RestoreSession(f, eng)
			f.Close()
		}
		d := time.Since(t0)
		r.tr.add("checkpoint.decode", t0, d, -1, int64(i))
		if err != nil {
			r.fail("restore: %v", err)
			continue
		}
		dec = append(dec, d)
	}
	r.attempted++
	if restored != nil {
		labels, err := restored.Labels()
		if err != nil {
			r.fail("restored session labels: %v", err)
		} else if j := firstMismatch(labels, in.warmLabels); j >= 0 {
			r.fail("restored session labels differ from the one-shot labels at %d", j)
		}
	}
	r.setLayer("checkpoint.encode_ms", ms(medianDur(enc)), "ms")
	r.setLayer("checkpoint.decode_ms", ms(medianDur(dec)), "ms")
	r.setLayer("checkpoint.bytes", float64(st.Size()), "B")
	r.note("checkpoint: medians of %d writes (+fsync) and %d restores", len(enc), len(dec))
	return nil
}
