package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The labels codec: Result and LabelsChunk carry the label vector, which is
// almost the whole of a labels body (a 50k-point session is a 127 KB array
// of small ints). encoding/json moves it through reflection one element at
// a time; this codec writes and scans the array directly and leaves the
// handful of diagnostics fields to encoding/json.
//
// The encoders are byte-identical to json.NewEncoder(w).Encode, trailing
// newline included. The decoders take a fast path only on the canonical
// form the encoders write — for Result, a body that opens with the labels
// member, `{"labels":[`; for LabelsChunk, exactly
// `{"offset":N,"labels":[...]}` plus trailing whitespace — whose array is
// `[`, integers of the form `-?(0|[1-9][0-9]*)` (no `-0`) in range of int,
// `,` separators without whitespace, `]`. Everything else (whitespace in
// the array, `1e2`, `1.0`, escaped or case-variant keys, a duplicate labels
// key, `null`, an overflow) falls back to json.Unmarshal of the whole body,
// so a decoder accepts, rejects and produces exactly what json.Unmarshal
// does. A decoded Labels slice is always freshly allocated.
//
// No MarshalJSON/UnmarshalJSON methods: encoding/json validates its whole
// input before calling such a method, and on a 50,500-label body that pass
// alone (json.Valid, 1.3–1.4 ms on a 2-vCPU VM) costs over twice the
// codec's whole decode (0.57 ms). Other encoding/json users keep plain
// reflection.

// maxPooledBuf bounds the WriteResult buffers returned to the pool, so one
// million-label response does not pin megabytes for the process lifetime.
const maxPooledBuf = 4 << 20

var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// putBuf returns b to the pool unless it grew past maxPooledBuf.
func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		bufPool.Put(b)
	}
}

// AppendResult appends r's JSON encoding to dst, byte-identical to what
// json.NewEncoder(w).Encode(r) writes, trailing newline included. The
// diagnostics fields go through json.Marshal on a copy without labels; the
// label array is written with strconv.AppendInt. Like Encode it fails on a
// non-finite Threshold, leaving dst as it was.
func AppendResult(dst []byte, r *Result) ([]byte, error) {
	diag := *r
	diag.Labels = nil
	head, err := json.Marshal(&diag)
	if err != nil {
		return dst, err
	}
	if len(r.Labels) == 0 {
		dst = append(dst, head...) // omitempty: no labels member
	} else {
		dst = append(dst, `{"labels":`...)
		dst = appendInts(dst, r.Labels)
		dst = append(dst, ',')
		dst = append(dst, head[1:]...)
	}
	return append(dst, '\n'), nil
}

// AppendLabelsChunk appends c's JSON encoding to dst, byte-identical to what
// json.NewEncoder(w).Encode(c) writes, trailing newline included (nil
// Labels encode as null, empty ones as []).
func AppendLabelsChunk(dst []byte, c *LabelsChunk) []byte {
	dst = append(dst, `{"offset":`...)
	dst = strconv.AppendInt(dst, int64(c.Offset), 10)
	dst = append(dst, `,"labels":`...)
	if c.Labels == nil {
		dst = append(dst, "null"...)
	} else {
		dst = appendInts(dst, c.Labels)
	}
	return append(dst, "}\n"...)
}

// appendInts appends the JSON array of v.
func appendInts(dst []byte, v []int) []byte {
	// Labels are mostly one digit or -1 plus a separator; one growth up
	// front covers that, append handles the rest.
	dst = slices.Grow(dst, 3*len(v)+2)
	dst = append(dst, '[')
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		// One-digit labels and noise (-1) are nearly every label of a
		// served vector; strconv takes the rest.
		switch {
		case 0 <= x && x < 10:
			dst = append(dst, byte('0'+x))
		case -10 < x && x < 0:
			dst = append(dst, '-', byte('0'-x))
		default:
			dst = strconv.AppendInt(dst, int64(x), 10)
		}
	}
	return append(dst, ']')
}

// WriteResult writes r as a complete JSON response: Content-Type,
// Content-Length, the status line, and the AppendResult body in one Write.
// The error is AppendResult's, returned before anything is written, so the
// caller can still answer with an error status. A failed Write is not
// reported: the status line is out and the client has gone.
func WriteResult(w http.ResponseWriter, status int, r *Result) error {
	buf := bufPool.Get().(*[]byte)
	defer putBuf(buf)
	body, err := AppendResult((*buf)[:0], r)
	*buf = body
	if err != nil {
		return err
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
	return nil
}

// DecodeResult decodes a JSON Result body into r with the semantics of
// json.Unmarshal(data, r). A body in canonical form — it opens with
// `{"labels":[`, the array is canonical, and the remaining members mention
// no labels key in any spelling — has its array scanned directly and only
// the remaining small object handed to json.Unmarshal; anything else is
// json.Unmarshal of the whole body.
func DecodeResult(data []byte, r *Result) error {
	const prefix = `{"labels":`
	if bytes.HasPrefix(data, []byte(prefix)) {
		if labels, next, ok := scanInts(data, len(prefix)); ok && next < len(data) {
			var rest []byte
			switch data[next] {
			case ',':
				// Another member must follow directly; `,}` is invalid
				// and must not collapse into a valid `{}`.
				if next+1 < len(data) && data[next+1] == '"' {
					rest = data[next+1:]
				}
			case '}':
				rest = data[next:]
			}
			if rest != nil && !mentionsLabels(rest) {
				obj := make([]byte, 0, 1+len(rest))
				obj = append(append(obj, '{'), rest...)
				if json.Unmarshal(obj, r) == nil {
					r.Labels = labels
					return nil
				}
				// A syntax or type error in the diagnostics: the whole-body
				// pass below returns json.Unmarshal's own error. It sets the
				// same fields to the same values as the partial pass did.
			}
		}
	}
	return json.Unmarshal(data, r)
}

// DecodeLabelsChunk decodes one NDJSON chunk line into c with the semantics
// of json.Unmarshal(data, c). The canonical line — `{"offset":N,"labels":`,
// a canonical array, `}`, then only whitespace — is scanned directly;
// anything else is json.Unmarshal of the whole line.
func DecodeLabelsChunk(data []byte, c *LabelsChunk) error {
	const prefix, mid = `{"offset":`, `,"labels":`
	if bytes.HasPrefix(data, []byte(prefix)) {
		if off, i, ok := scanInt(data, len(prefix)); ok && bytes.HasPrefix(data[i:], []byte(mid)) {
			if labels, next, ok := scanInts(data, i+len(mid)); ok && next < len(data) && data[next] == '}' && blank(data[next+1:]) {
				c.Offset, c.Labels = off, labels
				return nil
			}
		}
	}
	return json.Unmarshal(data, c)
}

// scanInts scans the canonical int array starting at data[i] and returns
// its values and the index just past `]`; ok is false on anything that is
// not the canonical form.
func scanInts(data []byte, i int) (v []int, next int, ok bool) {
	if i >= len(data) || data[i] != '[' {
		return nil, 0, false
	}
	i++
	end := bytes.IndexByte(data[i:], ']')
	if end < 0 {
		return nil, 0, false
	}
	end += i
	if end == i {
		return []int{}, end + 1, true // json.Unmarshal makes [] non-nil
	}
	v = make([]int, 0, bytes.Count(data[i:end], []byte{','})+1)
	s := data[:end]
	for {
		// Fast path for a label of one digit, or -1…-9, followed by `,` —
		// nearly every label of a served vector; scanInt takes the rest,
		// the last label included.
		var x, j int
		switch {
		case i+1 < len(s) && s[i]-'0' <= 9 && s[i+1] == ',':
			x, j = int(s[i]-'0'), i+1
		case i+2 < len(s) && s[i] == '-' && s[i+1]-'1' <= 8 && s[i+2] == ',':
			x, j = -int(s[i+1]-'0'), i+2
		default:
			var ok bool
			if x, j, ok = scanInt(s, i); !ok {
				return nil, 0, false
			}
		}
		v = append(v, x)
		if j == end {
			return v, end + 1, true
		}
		if s[j] != ',' {
			return nil, 0, false
		}
		i = j + 1
	}
}

// scanInt scans one canonical integer starting at data[i]: an optional
// `-`, then `0` or a digit run without a leading zero, not `-0`, in range
// of int. It returns the value and the index past the last digit.
func scanInt(data []byte, i int) (x int, next int, ok bool) {
	start, neg := i, false
	if i < len(data) && data[i] == '-' {
		neg = true
		i++
	}
	d := i
	var u uint64
	for ; i < len(data); i++ {
		c := data[i] - '0'
		if c > 9 {
			break
		}
		u = u*10 + uint64(c)
	}
	switch n := i - d; {
	case n == 0 || n > 1 && data[d] == '0' || neg && n == 1 && u == 0:
		return 0, 0, false // no digits, a leading zero, or -0
	case n > safeDigits:
		// u may have wrapped: let strconv decide the range.
		v, err := strconv.ParseInt(string(data[start:i]), 10, strconv.IntSize)
		return int(v), i, err == nil
	}
	if neg {
		return -int(u), i, true
	}
	return int(u), i, true
}

// safeDigits is the longest digit run that cannot overflow int.
const safeDigits = strconv.IntSize*3/10 - 1

// mentionsLabels reports whether b might hold a key that encoding/json would
// match to the labels field: any escape, any non-ASCII byte (Unicode case
// folding maps "ſ" to "s") or an ASCII case-insensitive "labels". False
// positives only cost the fast path.
func mentionsLabels(b []byte) bool {
	for i, c := range b {
		if c == '\\' || c >= utf8.RuneSelf {
			return true
		}
		if c|0x20 == 'l' && len(b)-i >= 6 && bytes.EqualFold(b[i:i+6], []byte("labels")) {
			return true
		}
	}
	return false
}

// blank reports whether b is only JSON whitespace.
func blank(b []byte) bool {
	for _, c := range b {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return false
		}
	}
	return true
}
