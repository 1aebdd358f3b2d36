package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"adawave/client"
	"adawave/internal/api"
	"adawave/internal/core"
	"adawave/internal/pointset"
	"adawave/internal/synth"
)

// runCmd runs the command in process and returns its exit code, its full
// output and the parsed result line.
func runCmd(t *testing.T, args ...string) (int, string, result) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := mainErr(args, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", err, out.String(), errOut.String())
	}
	return code, out.String() + errOut.String(), res
}

// checkMetrics asserts the result carries exactly the named metrics, each
// with its unit, and that every end-to-end metric is positive.
func checkMetrics(t *testing.T, res result, defs []metricDef, positive bool) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
		}
		if positive && !(m.Value > 0) {
			t.Errorf("metric %s = %v, want > 0", d.name, m.Value)
		}
	}
}

// smoke runs one workload untraced and traced for a fraction of a second.
func smoke(t *testing.T, workload string, extra ...string) {
	work := t.TempDir()
	for _, trace := range []string{"0", "1"} {
		args := append([]string{"--workload", workload, "--seed", "2", "--seconds", "0.4", "--trace", trace, "--work", work}, extra...)
		code, out, res := runCmd(t, args...)
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("trace %s: exit %d, result %+v\n%s", trace, code, res, out)
		}
		if trace == "0" {
			checkMetrics(t, res, e2eMetrics, true)
		} else {
			checkMetrics(t, res, layerMetrics, false)
		}
		for _, d := range e2eMetrics {
			if !strings.Contains(out, d.name) {
				t.Errorf("trace %s: report does not print %s", trace, d.name)
			}
		}
		if !strings.Contains(out, "gomaxprocs=") || !strings.Contains(out, "failed_ratio") {
			t.Errorf("trace %s: report lacks the environment or failed_ratio:\n%s", trace, out)
		}
	}
}

func TestSmokeBatch(t *testing.T) { smoke(t, "batch") }

func TestSmokeHighD(t *testing.T) { smoke(t, "highd") }

func TestSmokeServe(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts the server binaries")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "adawave/cmd/adawave-serve", "adawave/cmd/adawave-router")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build servers: %v\n%s", err, out)
	}
	smoke(t, "serve", "--bin", bin)
}

// TestMetricsDocumented keeps BENCHMARK.json and README.md's layer map in
// step with the metrics this command prints.
func TestMetricsDocumented(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadOrder, ",") {
		t.Errorf("workloads %v, want %v", names, workloadOrder)
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s[%d] = %+v, want %s %s %s", kind, i, got[i], d.name, d.unit, d.better)
			}
		}
	}
	same("end_to_end", b.EndToEnd, e2eMetrics)
	same("per_layer", b.PerLayer, layerMetrics)

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range layerMetrics {
		row := regexp.MustCompile("(?m)^\\| `" + regexp.QuoteMeta(d.name) + "` \\| " + regexp.QuoteMeta(d.unit) +
			" \\| [^|]* \\| " + regexp.QuoteMeta(d.moves) + " \\| " + regexp.QuoteMeta(d.on) + " \\|$")
		if !row.Match(readme) {
			t.Errorf("README.md has no layer-map row for %s (%s; moves %s on %s)", d.name, d.unit, d.moves, d.on)
		}
	}
}

// TestPerturbedLabelsFail: a call whose labels differ from the expected
// vector is a failed op and its latency is not recorded.
func TestPerturbedLabelsFail(t *testing.T) {
	ds := synth.Evaluation(400, 0.5, 1).Flat()
	eng, err := core.NewEngine(core.DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.ClusterDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]int(nil), res.Labels...)
	want[len(want)/2]++

	r := newRun(1, 50*time.Millisecond, false, "", t.TempDir(), &bytes.Buffer{})
	s, _ := r.oneShotLoop(eng, ds, want, false)
	if r.attempted == 0 || r.failed != r.attempted {
		t.Fatalf("attempted %d, failed %d; want every call failed", r.attempted, r.failed)
	}
	if s.op.n != 0 || s.opsPerS != 0 {
		t.Fatalf("failed calls were timed: %d samples, %v ops/s", s.op.n, s.opsPerS)
	}
	if out := r.result(); out.Correct || out.Failed != r.attempted {
		t.Fatalf("result %+v, want incorrect with every op failed", out)
	}
}

// fakeNode answers the three round endpoints for one tiny session; the
// labels endpoint fails with status labelsStatus (or returns wrong labels
// when wrongLabels is set).
func fakeNode(t *testing.T, in *serveInput, labelsStatus int, wrongLabels bool) *httptest.Server {
	mux := http.NewServeMux()
	var mu sync.Mutex
	points := len(in.warm)
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(v)
	}
	mux.HandleFunc("POST /v1/sessions/s/points", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		points += len(in.delta)
		writeJSON(w, api.AppendResponse{Appended: len(in.delta), Points: points})
	})
	mux.HandleFunc("DELETE /v1/sessions/s/points", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		points -= len(in.delta)
		writeJSON(w, api.RemoveResponse{Removed: len(in.delta), Points: points})
	})
	mux.HandleFunc("GET /v1/sessions/s/labels", func(w http.ResponseWriter, r *http.Request) {
		if labelsStatus != http.StatusOK {
			w.WriteHeader(labelsStatus)
			writeJSON(w, api.ErrorResponse{Error: api.ErrorBody{Code: api.CodeInternal, Message: "injected"}})
			return
		}
		labels := append([]int(nil), in.want...)
		if wrongLabels {
			labels[0]++
		}
		if strings.Contains(r.Header.Get("Accept"), "ndjson") {
			var meta api.LabelsMeta
			meta.Meta.Points, meta.Meta.Chunk = len(labels), len(labels)
			enc := json.NewEncoder(w)
			_ = enc.Encode(meta)
			_ = enc.Encode(api.LabelsChunk{Offset: 0, Labels: labels})
			return
		}
		writeJSON(w, api.Result{Labels: labels})
	})
	mux.HandleFunc("GET /v1/sessions/s", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		writeJSON(w, api.SessionDetail{ID: "s", Points: points})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func tinyInput() *serveInput {
	in := &serveInput{
		warm:  [][]float64{{0, 0}, {1, 1}, {2, 2}},
		delta: [][]float64{{0.5, 0.5}},
		want:  []int{0, 0, 0, 0},
	}
	in.removeIdx = []int{3}
	in.warmDS, in.deltaDS = pointset.MustFromSlices(in.warm), pointset.MustFromSlices(in.delta)
	return in
}

// TestHTTPErrorsFail: a labels read answered with a 5xx status, or with
// labels that differ from the expected ones, is a failed op; its latency and
// its round are not recorded, and the loop keeps going.
func TestHTTPErrorsFail(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status int
		wrong  bool
	}{{"status 500", http.StatusInternalServerError, false}, {"wrong labels", http.StatusOK, true}} {
		t.Run(tc.name, func(t *testing.T) {
			in := tinyInput()
			ts := fakeNode(t, in, tc.status, tc.wrong)
			var tally clientTally
			runClient(client.New(ts.URL), "s", in, time.Now().Add(100*time.Millisecond), nil, &tally)
			if tally.failed == 0 || tally.attempted != 3*tally.failed {
				t.Fatalf("attempted %d, failed %d; want one failed labels read per 3-step round", tally.attempted, tally.failed)
			}
			if tally.rounds != 0 || len(tally.round) != 0 || len(tally.lab) != 0 || len(tally.nd) != 0 {
				t.Fatalf("failed reads were timed: %d rounds, %d JSON and %d NDJSON samples", tally.rounds, len(tally.lab), len(tally.nd))
			}
			if tally.stopped {
				t.Fatal("client stopped although the session stayed warm")
			}
		})
	}
}

// TestLaggingFollowerFails: a follower whose appliedSeq stays below the
// primary's is a failed op in the run's result.
func TestLaggingFollowerFails(t *testing.T) {
	status := func(seq uint64) *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_ = json.NewEncoder(w).Encode(api.ReplicationStatusResponse{
				Sessions: map[string]api.ReplicationStatus{"s": {AppliedSeq: seq}},
			})
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	c := &cluster{
		primary:  &proc{url: status(10).URL},
		follower: &proc{url: status(7).URL},
		ids:      []string{"s"},
		probe:    http.DefaultClient,
	}
	r := newRun(1, time.Second, false, "", t.TempDir(), &bytes.Buffer{})
	r.checkFollower(c, 50*time.Millisecond)
	if res := r.result(); res.Failed != 1 || res.Attempted != 1 || res.Correct {
		t.Fatalf("result %+v, want the lagging follower as one failed op", res)
	}

	c.follower = &proc{url: status(10).URL}
	r = newRun(1, time.Second, false, "", t.TempDir(), &bytes.Buffer{})
	r.checkFollower(c, time.Second)
	if r.failed != 0 {
		t.Fatalf("caught-up follower counted as failed: %v", r.notes)
	}
}
