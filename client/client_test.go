package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"adawave/internal/api"
)

// failoverStub answers n 503s (with Retry-After, the router's mid-failover
// contract) before succeeding.
func failoverStub(t *testing.T, fail503 int32) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= fail503 {
			w.Header().Set("Retry-After", "0")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":{"code":"unavailable","message":"shard failing over"}}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		switch r.Method {
		case http.MethodGet:
			w.Write([]byte(`{"status":"ok","sessions":0}`))
		default:
			w.WriteHeader(http.StatusNoContent)
		}
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

func TestRetryIdempotentOn503(t *testing.T) {
	srv, calls := failoverStub(t, 2)
	c := New(srv.URL, WithRetry(3))
	if _, err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("GET through a failover window: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (two 503s then success)", got)
	}
}

func TestNoRetryPostOn503(t *testing.T) {
	srv, calls := failoverStub(t, 1)
	c := New(srv.URL, WithRetry(3))
	_, err := c.CreateSession(context.Background(), nil)
	if err == nil {
		t.Fatal("POST through a 503 must surface the error, not replay")
	}
	ae, ok := err.(*APIError)
	if !ok || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("got %v, want the 503 APIError", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want 1 (no POST replay)", got)
	}
}

func TestNoRetry503WithoutBudget(t *testing.T) {
	srv, calls := failoverStub(t, 1)
	c := New(srv.URL) // no WithRetry
	if _, err := c.Healthz(context.Background()); err == nil {
		t.Fatal("503 without a retry budget must surface")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want 1", got)
	}
}

// labelsFixture is a labels result of n labels, mostly noise and small
// cluster ids.
func labelsFixture(n int) api.Result {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i%13 - 1
	}
	return api.Result{Labels: labels, NumClusters: 11, Noise: 3885, Threshold: 0.0123, Levels: 1, Scale: 128}
}

// writeNDJSON renders the streamed labels form with the given chunk
// offsets and lengths, over the labels of res.
func writeNDJSON(w http.ResponseWriter, res api.Result, points int, chunks [][2]int) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	var meta api.LabelsMeta
	meta.Meta.Result = res
	meta.Meta.Result.Labels = nil
	meta.Meta.Points, meta.Meta.Chunk = points, 8192
	enc.Encode(meta)
	for _, c := range chunks {
		start := max(c[0], 0)
		enc.Encode(api.LabelsChunk{Offset: c[0], Labels: res.Labels[start : start+c[1]]})
	}
}

// TestClientReusesConnections: every success body is read to its end —
// for a chunked body, through the terminating chunk — so sequential calls
// ride one keep-alive connection instead of dialing per call.
func TestClientReusesConnections(t *testing.T) {
	// Three NDJSON chunks, and every body far past the server's 2 KB
	// unchunked buffer.
	res := labelsFixture(20000)
	rows := make([]api.SessionInfo, 500)
	for i := range rows {
		rows[i] = api.SessionInfo{ID: fmt.Sprintf("s%04d", i), Points: i, Dim: 2, Resident: true}
	}
	var chunks [][2]int
	for off := 0; off < len(res.Labels); off += 8192 {
		chunks = append(chunks, [2]int{off, min(8192, len(res.Labels)-off)})
	}
	var conns atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// encoding/json straight onto the writer: bodies past the
		// server's buffer go out chunked, without Content-Length.
		enc := json.NewEncoder(w)
		switch r.URL.Path {
		case "/v1/sessions/s/labels":
			if r.Header.Get("Accept") == "application/x-ndjson" {
				writeNDJSON(w, res, len(res.Labels), chunks)
				return
			}
			enc.Encode(res)
		case "/v1/sessions/s/multiresolution":
			enc.Encode(api.MultiResolutionResponse{Levels: []api.Result{res, res}})
		case "/v1/sessions":
			enc.Encode(api.ListSessionsResponse{Sessions: rows})
		default:
			http.NotFound(w, r)
		}
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	c := New(srv.URL, WithHTTPClient(hc))
	ctx := context.Background()

	got := make([]int, len(res.Labels))
	for i := 0; i < 50; i++ {
		lr, err := c.Labels(ctx, "s")
		if err != nil || !reflect.DeepEqual(*lr, res) {
			t.Fatalf("Labels: %v", err)
		}
		meta, err := c.LabelsStream(ctx, "s", func(off int, labels []int) error {
			copy(got[off:], labels)
			return nil
		})
		if err != nil || meta.NumClusters != res.NumClusters || !reflect.DeepEqual(got, res.Labels) {
			t.Fatalf("LabelsStream: %v", err)
		}
		levels, err := c.MultiResolution(ctx, "s", 2)
		if err != nil || len(levels) != 2 || !reflect.DeepEqual(levels[1], res) {
			t.Fatalf("MultiResolution: %v", err)
		}
		list, err := c.ListSessions(ctx)
		if err != nil || len(list) != len(rows) {
			t.Fatalf("ListSessions: %d rows, %v", len(list), err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("200 sequential calls opened %d connections, want 1", n)
	}
}

// TestLabelsStreamRejectsOutOfOrder: a chunk whose offset is not the
// running label count fails the stream with the out-of-order error, even
// when the chunk lengths add up to the advertised point count.
func TestLabelsStreamRejectsOutOfOrder(t *testing.T) {
	res := labelsFixture(30)
	cases := map[string][][2]int{
		"duplicate chunk": {{0, 10}, {10, 10}, {0, 10}},         // last chunk never sent
		"gap":             {{0, 10}, {15, 10}, {25, 5}, {5, 5}}, // [10,15) arrives late
		"negative offset": {{-1, 10}, {10, 10}, {20, 10}},
	}
	for name, chunks := range cases {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				writeNDJSON(w, res, len(res.Labels), chunks)
			}))
			defer srv.Close()
			var calls []int
			_, err := New(srv.URL).LabelsStream(context.Background(), "s", func(off int, labels []int) error {
				calls = append(calls, off)
				return nil
			})
			var oe *streamOrderError
			if !errors.As(err, &oe) || !strings.Contains(err.Error(), "NDJSON stream out of order") {
				t.Fatalf("got %v, want the out-of-order error", err)
			}
			// fn saw exactly the in-order prefix, never the bad chunk.
			for i, off := range calls {
				if off != chunks[i][0] || off != 10*i {
					t.Fatalf("fn saw offsets %v before the error", calls)
				}
			}
		})
	}
}
