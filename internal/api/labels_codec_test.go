package api

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
)

// encodeJSON is the reference rendering the codec must match byte for byte.
func encodeJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// servedLabels is an n-label vector shaped like a served session:
// mostly noise and small cluster ids.
func servedLabels(n int) []int {
	rng := rand.New(rand.NewSource(1))
	v := make([]int, n)
	for i := range v {
		v[i] = rng.Intn(12) - 1
	}
	return v
}

func diagnostics(threshold float64) Result {
	return Result{
		NumClusters: 5, Noise: 3120, Threshold: threshold, Levels: 2, Scale: 128,
		CellsQuantized: 12854, CellsTransformed: 3483, CellsKept: 368,
	}
}

func TestLabelsCodecByteIdentical(t *testing.T) {
	withLabels := func(r Result, labels []int) Result { r.Labels = labels; return r }
	noise := make([]int, 1000)
	for i := range noise {
		noise[i] = -1
	}
	// Either side of the one-digit fast paths.
	boundaries := []int{-101, -100, -99, -11, -10, -9, -2, -1, 0, 1, 9, 10, 11, 99, 100, 101}
	results := map[string]Result{
		"empty labels (omitted)": withLabels(diagnostics(0.25), []int{}),
		"nil labels":             withLabels(diagnostics(0.25), nil),
		"zero value":             {},
		"single label":           withLabels(diagnostics(1), []int{0}),
		"all noise":              withLabels(diagnostics(0.5), noise),
		"int extremes":           withLabels(diagnostics(2), []int{math.MinInt, math.MaxInt, 0, -1, math.MinInt}),
		"digit boundaries":       withLabels(diagnostics(2), boundaries),
		"50500 labels":           withLabels(diagnostics(0.0123), servedLabels(50500)),
		"tiny threshold":         withLabels(diagnostics(1e-7), []int{1, 2}),
		"huge threshold":         withLabels(diagnostics(1.5e21), []int{3}),
		"negative threshold":     withLabels(diagnostics(-2.5e-9), []int{-1}),
		"max float threshold":    withLabels(diagnostics(math.MaxFloat64), []int{7}),
		"smallest threshold":     withLabels(diagnostics(math.SmallestNonzeroFloat64), []int{7}),
	}
	for name, r := range results {
		want := encodeJSON(t, r)
		got, err := AppendResult([]byte("prefix"), &r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got[len("prefix"):], want) || string(got[:len("prefix")]) != "prefix" {
			t.Errorf("Result %s:\n got %.200s\nwant %.200s", name, got, want)
		}
		// WriteResult renders the same bytes from a pooled buffer that the
		// other cases, large and small, also pass through.
		rec := httptest.NewRecorder()
		if err := WriteResult(rec, 200, &r); err != nil || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("WriteResult %s: %v\n got %.200s\nwant %.200s", name, err, rec.Body.Bytes(), want)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
			t.Errorf("WriteResult %s: Content-Length %q, want %d", name, cl, len(want))
		}
	}

	chunks := map[string]LabelsChunk{
		"nil labels":   {Offset: 8192},
		"empty labels": {Offset: 0, Labels: []int{}},
		"single label": {Offset: 16384, Labels: []int{4}},
		"all noise":    {Offset: 1, Labels: noise},
		"int extremes": {Offset: math.MaxInt, Labels: []int{math.MinInt, math.MaxInt}},
		"boundaries":   {Offset: 10, Labels: boundaries},
		"negative":     {Offset: -3, Labels: []int{-1, -1}},
		"8192 labels":  {Offset: 40960, Labels: servedLabels(8192)},
	}
	for name, c := range chunks {
		want := encodeJSON(t, c)
		if got := AppendLabelsChunk([]byte("prefix"), &c); !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Errorf("LabelsChunk %s:\n got %.200s\nwant %.200s", name, got, want)
		}
	}

	// Like json.Encoder.Encode, a non-finite threshold is an error and
	// nothing is appended or written.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := withLabels(diagnostics(bad), []int{1})
		if err := json.NewEncoder(&bytes.Buffer{}).Encode(r); err == nil {
			t.Fatalf("encoding/json accepted threshold %v", bad)
		}
		if got, err := AppendResult([]byte("x"), &r); err == nil || string(got) != "x" {
			t.Errorf("threshold %v: AppendResult = %q, %v; want the input and an error", bad, got, err)
		}
		rec := httptest.NewRecorder()
		if err := WriteResult(rec, 200, &r); err == nil || rec.Body.Len() != 0 || rec.Header().Get("Content-Length") != "" {
			t.Errorf("threshold %v: WriteResult wrote %q (err %v)", bad, rec.Body.Bytes(), err)
		}
	}
}

// TestLabelsCodecRoundTrip decodes the encoder's own output on the fast
// path and gets the encoded values back.
func TestLabelsCodecRoundTrip(t *testing.T) {
	r := diagnostics(0.0123)
	r.Labels = append(servedLabels(50500), math.MinInt, math.MaxInt)
	body, err := AppendResult(nil, &r)
	if err != nil {
		t.Fatal(err)
	}
	var got Result
	if err := DecodeResult(body, &got); err != nil || !reflect.DeepEqual(got, r) {
		t.Fatalf("Result round trip: err %v, equal %v", err, reflect.DeepEqual(got, r))
	}
	c := LabelsChunk{Offset: 8192, Labels: r.Labels[:8192]}
	var gotc LabelsChunk
	if err := DecodeLabelsChunk(AppendLabelsChunk(nil, &c), &gotc); err != nil || !reflect.DeepEqual(gotc, c) {
		t.Fatalf("LabelsChunk round trip: err %v, got offset %d", err, gotc.Offset)
	}
}

// labelsDecodeSeeds is FuzzLabelsDecode's corpus: canonical bodies, every
// non-canonical spelling the fast path must hand to encoding/json, and
// malformed input both must reject.
func labelsDecodeSeeds(t testing.TB) [][]byte {
	r := diagnostics(0.0123)
	r.Labels = []int{-1, 0, 3, 12, -1}
	result, err := AppendResult(nil, &r)
	if err != nil {
		t.Fatal(err)
	}
	chunk := AppendLabelsChunk(nil, &LabelsChunk{Offset: 8192, Labels: []int{-1, 0, 3}})
	seeds := [][]byte{
		result, chunk,
		AppendLabelsChunk(nil, &LabelsChunk{}),
		[]byte(`{"labels":[1,2],"numClusters":2}`),
		[]byte(`{"labels":[-11,-10,-9,-1,0,9,10,11]}`),
		[]byte(`{"offset":10,"labels":[-11,-10,-9,-1,0,9,10,11]}`),
		[]byte(`{"labels":[]}`),
		[]byte(`{"labels":[],"threshold":1e2}`),
		[]byte(`{"offset":0,"labels":[]}`),
		[]byte(`{"labels":[ 1,2]}`),
		[]byte(`{"labels":[1, 2]}`),
		[]byte(`{"labels":[1,2] ,"noise":1}`),
		[]byte(` {"labels":[1]}`),
		[]byte("{\"labels\":[1]}\n\t\r "),
		[]byte(`{"offset":1 ,"labels":[1]}`),
		[]byte(`{"offset":1,"labels":[1]} `),
		[]byte(`{"labels":[1e2]}`),
		[]byte(`{"labels":[1.0]}`),
		[]byte(`{"labels":[-0]}`),
		[]byte(`{"labels":[01]}`),
		[]byte(`{"labels":[-]}`),
		[]byte(`{"labels":[1,]}`),
		[]byte(`{"labels":[,1]}`),
		[]byte(`{"labels":[9223372036854775807,-9223372036854775808]}`),
		[]byte(`{"labels":[9223372036854775808]}`),
		[]byte(`{"labels":[-9223372036854775809]}`),
		[]byte(`{"labels":[99999999999999999999999]}`),
		[]byte(`{"offset":9223372036854775808,"labels":[1]}`),
		[]byte(`{"offset":-0,"labels":[1]}`),
		[]byte(`{"LABELS":[1,2]}`),
		[]byte(`{"Labels":[1,2],"labels":[3]}`),
		[]byte(`{"labels":[1,2],"LABELS":[3]}`),
		[]byte(`{"labels":[1,2],"labels":[3]}`),
		[]byte(`{"labels":[1,2],"labels":null}`),
		[]byte(`{"labels":[1],"labelſ":[2]}`),
		[]byte(`{"labels":[1],"\u006cabels":[2]}`),
		[]byte(`{"labels":[1],"x":"labels"}`),
		[]byte(`{"offset":1,"labels":[1],"labels":[2]}`),
		[]byte(`{"offset":1,"labels":[1],"offset":2}`),
		[]byte(`{"labels":null}`),
		[]byte(`{"offset":1,"labels":null}`),
		[]byte(`null`),
		[]byte(`{"labels":[1,2]}garbage`),
		[]byte(`{"labels":[1,2]}}`),
		[]byte(`{"offset":1,"labels":[1]}x`),
		[]byte(`{"labels":[1,2],}`),
		[]byte(`{"labels":[1,2],"numClusters":"x","noise":3}`),
		[]byte(`{"labels":[1,2],"numClusters":1.5}`),
		[]byte(`{"labels":[1,2],"unknown":{"labels":[3]}}`),
		[]byte(`{"labels":[1,[2]]}`),
		[]byte(`{"labels":[1,2]`),
		[]byte(``),
	}
	// Truncation at every byte of a small canonical body.
	for _, body := range [][]byte{result, chunk} {
		for i := 0; i < len(body); i++ {
			seeds = append(seeds, body[:i:i])
		}
	}
	return seeds
}

// prefilled is a non-zero decode target: json.Unmarshal leaves fields the
// body does not mention as they were, and the codec must too.
func prefilled() (Result, LabelsChunk) {
	r := diagnostics(9)
	r.Labels = []int{7, 7, 7}
	return r, LabelsChunk{Offset: 99, Labels: []int{8}}
}

// checkLabelsDecode fails when the codec and json.Unmarshal disagree on
// data, decoding into both a zero and a prefilled target.
func checkLabelsDecode(t *testing.T, data []byte) {
	t.Helper()
	for _, fill := range []bool{false, true} {
		var wantR, gotR Result
		var wantC, gotC LabelsChunk
		if fill {
			wantR, wantC = prefilled()
			gotR, gotC = prefilled()
		}
		errWant := json.Unmarshal(data, &wantR)
		errGot := DecodeResult(data, &gotR)
		if (errWant == nil) != (errGot == nil) {
			t.Fatalf("Result %q (prefilled %v): json.Unmarshal err %v, DecodeResult err %v", data, fill, errWant, errGot)
		}
		if errWant == nil && !reflect.DeepEqual(gotR, wantR) {
			t.Fatalf("Result %q (prefilled %v):\n got %+v\nwant %+v", data, fill, gotR, wantR)
		}
		errWant = json.Unmarshal(data, &wantC)
		errGot = DecodeLabelsChunk(data, &gotC)
		if (errWant == nil) != (errGot == nil) {
			t.Fatalf("LabelsChunk %q (prefilled %v): json.Unmarshal err %v, DecodeLabelsChunk err %v", data, fill, errWant, errGot)
		}
		if errWant == nil && !reflect.DeepEqual(gotC, wantC) {
			t.Fatalf("LabelsChunk %q (prefilled %v):\n got %+v\nwant %+v", data, fill, gotC, wantC)
		}
	}
}

func FuzzLabelsDecode(f *testing.F) {
	for _, s := range labelsDecodeSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(checkLabelsDecode)
}

var benchSink any

func benchBody(b *testing.B) []byte {
	r := diagnostics(0.0123)
	r.Labels = servedLabels(50500)
	return encodeJSON(b, r)
}

// The 50,500-label body of the serve workload, through the codec and
// through encoding/json.

func BenchmarkLabelsCodecDecodeResult(b *testing.B) {
	body := benchBody(b)
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		var r Result
		if err := DecodeResult(body, &r); err != nil {
			b.Fatal(err)
		}
		benchSink = r.Labels
	}
}

func BenchmarkLabelsJSONDecodeResult(b *testing.B) {
	body := benchBody(b)
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		var r Result
		if err := json.Unmarshal(body, &r); err != nil {
			b.Fatal(err)
		}
		benchSink = r.Labels
	}
}

func BenchmarkLabelsCodecEncodeResult(b *testing.B) {
	r := diagnostics(0.0123)
	r.Labels = servedLabels(50500)
	var buf []byte
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = AppendResult(buf[:0], &r); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}

func BenchmarkLabelsJSONEncodeResult(b *testing.B) {
	r := diagnostics(0.0123)
	r.Labels = servedLabels(50500)
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := json.NewEncoder(&buf).Encode(r); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}
