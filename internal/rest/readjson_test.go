package rest

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"mathcloud/internal/core"
)

// decoderReadJSON is ReadJSON as a json.Decoder over the bounded body
// alone: the oracle of its fast path.
func decoderReadJSON(body io.Reader, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(body), MaxBodyBytes))
	if err := dec.Decode(v); err != nil {
		return core.ErrBadRequest("invalid JSON body: %v", err)
	}
	if dec.More() {
		return core.ErrBadRequest("trailing data after JSON body")
	}
	return nil
}

// checkReadJSON requires ReadJSON to leave what decoderReadJSON leaves for
// the body the reader mk makes: into a nil core.Values (the submit body)
// and, unless nilOnly, into one that holds data, the same values, the same
// accept or reject, and the same error text.
func checkReadJSON(t *testing.T, mk func() io.Reader, nilOnly bool) {
	t.Helper()
	starts := []func() core.Values{
		func() core.Values { return nil },
		func() core.Values { return core.Values{"kept": true} },
	}
	if nilOnly {
		starts = starts[:1]
	}
	for _, start := range starts {
		got, want := start(), start()
		req, err := http.NewRequest(http.MethodPost, "/", mk())
		if err != nil {
			t.Fatal(err)
		}
		gotErr := ReadJSON(req, &got)
		wantErr := decoderReadJSON(mk(), &want)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("ReadJSON error %v, json.Decoder %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ReadJSON decoded %#v, json.Decoder %#v", got, want)
		}
	}
}

var readJSONSeeds = []string{
	`{"x":1}`,
	`{"x":1}` + " \t\r\n",
	`{"x":1}]`,
	`{"x":1}}`,
	`{"x":1} {"y":2}`,
	`{"x":1} x`,
	`{"x":1,"x":"two"}`,
	`{"x":"a\"b\\cé😀"}`,
	`{"xA":"\n"}`,
	`{"s":"\xff"}`,
	`{"s":"é ✓"}`,
	`{"n":[1,2.5,-0,1e400]}`,
	`{"n":1e400}`,
	`{"d":{"e":{"f":[null,true,false,{}]}}}`,
	`{"a":[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]}`,
	` null `,
	`[]`,
	`"x"`,
	`{`,
	`{"x":}`,
	`{"x":01}`,
	``,
	"\ufeff{}",
}

// FuzzReadJSON holds ReadJSON's hand-written path for a submit body to the
// json.Decoder path it replaces (checkReadJSON), for any body up to the
// fuzzer's sizes; TestReadJSONAtBodyLimit covers bodies at MaxBodyBytes.
func FuzzReadJSON(f *testing.F) {
	for _, s := range readJSONSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkReadJSON(t, func() io.Reader { return bytes.NewReader(body) }, false)
	})
}

// failingReader yields its bytes, then fails with err.
type failingReader struct {
	r   io.Reader
	err error
}

func (f *failingReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if err == io.EOF {
		err = f.err
	}
	return n, err
}

// TestReadJSONAtBodyLimit runs checkReadJSON on bodies around
// MaxBodyBytes — a value followed by whitespace up to the limit, by a
// trailing ']' at the limit, or by data past it, and a string that crosses
// it — and on bodies whose read fails part way.  The large bodies go into
// the submit body's target only: json.Decoder takes seconds over each
// under the race detector.
func TestReadJSONAtBodyLimit(t *testing.T) {
	for _, s := range readJSONSeeds {
		checkReadJSON(t, func() io.Reader { return strings.NewReader(s) }, false)
	}
	obj := `{"x":1}`
	padded := func(n int, tail string) string {
		return obj + strings.Repeat(" ", n-len(obj)-len(tail)) + tail
	}
	str := func(n int) string {
		return `{"s":"` + strings.Repeat("a", n-len(`{"s":""}`)) + `"}`
	}
	for _, body := range []string{
		padded(MaxBodyBytes, ""),
		padded(MaxBodyBytes, "]"),
		padded(MaxBodyBytes+1, "x"),
		str(MaxBodyBytes + 1),
	} {
		checkReadJSON(t, func() io.Reader { return strings.NewReader(body) }, true)
	}
	for _, body := range []string{obj, obj + "  ", obj + " x", `{"x":`} {
		checkReadJSON(t, func() io.Reader {
			return &failingReader{strings.NewReader(body), io.ErrUnexpectedEOF}
		}, false)
	}
}
