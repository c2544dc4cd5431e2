package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"pufferfish/internal/release"
)

// oracleDecode is the reference DecodeReleases must agree with:
// encoding/json with unknown fields disallowed, then the check that
// only whitespace follows the value, then the empty-batch refusal.
func oracleDecode(body []byte, batch bool) ([]ReleaseRequest, error) {
	decode := func(v any) error {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			return err
		}
		if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
			return errors.New("trailing data after the JSON value")
		}
		return nil
	}
	if !batch {
		reqs := make([]ReleaseRequest, 1)
		if err := decode(&reqs[0]); err != nil {
			return nil, err
		}
		return reqs, nil
	}
	var b BatchRequest
	if err := decode(&b); err != nil {
		return nil, err
	}
	if len(b.Requests) == 0 {
		return nil, errors.New("empty batch")
	}
	return b.Requests, nil
}

// checkDecode runs one body through DecodeReleases and the oracle: both
// must accept or both refuse, and accepted bodies must decode to
// reflect.DeepEqual values. The body is overwritten after decoding, so
// a decoded value that aliased it would fail the comparison.
func checkDecode(t *testing.T, data []byte, batch bool) []ReleaseRequest {
	t.Helper()
	want, werr := oracleDecode(data, batch)
	body := bytes.Clone(data)
	got, gerr := DecodeReleases(body, batch)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("batch=%v body %q:\nencoding/json error: %v\nDecodeReleases error: %v", batch, data, werr, gerr)
	}
	if werr != nil {
		return nil
	}
	for i := range body {
		body[i] = '#'
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batch=%v body %q:\nencoding/json: %#v\nDecodeReleases: %#v", batch, data, want, got)
	}
	return got
}

// decodeCorpus seeds the differential fuzz target; every body is tried
// as a single release and as a batch, alone and as two batch members.
var decodeCorpus = []string{
	`{"epsilon": 1, "mechanism": "dp", "sessions": [[0, 1, 0]]}`,
	`{"epsilon": 1, "mechanism": "mqm-exact", "smoothing": 0.5, "series": "0 1\n1 0"}`,
	`{"epsilon": 1, "mechanism": "dp", "series": "0 1", "sessions": [[0,1]]}`,
	`{"epsilon": 5e-324, "mechanism": "mqm-exact", "smoothing": 0.5, "sessions": [[0,1,0,1]]}`,
	`{"epsilon": 1, "mechanism": "kantorovich", "substrate": "network", "accountant": "s",
	  "network": [{"name":"root","card":2,"cpt":[0.3,0.7]},{"name":"leaf","card":2,"parents":[0],"cpt":[0.9,0.1,0.2,0.8]}],
	  "sessions": [[0, 1]]}`,
	`{"epsilon": 1, "mechanism": "dp", "sessions": [[0,1]]}{"epsilon": 2}`,
	`{"unknown_field": true}`,
	`not json`,
	// Keys matched case-insensitively, with encoding/json's Unicode folds.
	`{"EPSILON": 1, "Mechanism": "dp", "ſeed": 3, "ſessions": [[1]], "K": 2, "\u212a": 3}`,
	"{\"\u017feed\": 4, \"\u212a\": 5, \"requeſts\": 1}",
	`{"REQUESTS": [{"epsilon": 1}], "Requeſts": [{"k": 2}]}`,
	`{"\u0065psilon": 2, "se\u0065d": 9}`,
	// Duplicate keys: the later value decodes into the earlier one.
	`{"epsilon": 1, "epsilon": 2, "k": 3, "k": null, "mechanism": "a", "mechanism": "b"}`,
	`{"sessions": [[1,2,3],[4,5]], "sessions": [[9]], "sessions": [[null,null,null],null,[null]]}`,
	`{"sessions": [[1,2]], "sessions": [], "sessions": [[null, 7]]}`,
	`{"requests": [{"k": 3, "sessions": [[1,2]]}, {"k": 4}], "requests": [{"epsilon": 1}], "requests": [{}, {}, null]}`,
	`{"network": [1, 2], "network": {"a": 1}, "network": null}`,
	// null fields, members and bodies.
	`null`,
	` null `,
	`{"sessions": null, "series": null, "epsilon": null, "delta": null, "k": null, "mechanism": null,
	  "noise": null, "substrate": null, "network": null, "smoothing": null, "seed": null,
	  "parallelism": null, "accountant": null}`,
	`{"sessions": [null, [], [null, 1]]}`,
	`{"requests": null}`,
	`{"requests": []}`,
	`{"requests": [null, {"epsilon": 1, "sessions": [[0, 1]]}, null]}`,
	// Strings: invalid UTF-8, escapes and surrogates.
	"{\"mechanism\": \"d\xffp\", \"series\": \"0 1\xc3\"}",
	"{\"accountant\": \"\xed\xa0\x80\xf4\x90\x80\x80\xc0\xaf\"}",
	`{"accountant": "\ud83d\ude00 \ud83d \ude00 \ud83dx \ud83d\u0041 \\ \/ \b\f\n\r\t \u00e9"}`,
	`{"accountant": "\ud800\ud800\udc00"}`,
	`{"accountant": "\u12"}`,
	`{"accountant": "\x"}`,
	"{\"accountant\": \"a\tb\"}",
	"{\"network\": \"\xff\\ud800\", \"mechanism\": \"\"}",
	// Numbers.
	`{"epsilon": 1e400}`,
	`{"epsilon": -1e400}`,
	`{"epsilon": 1e-400, "delta": -0, "smoothing": 0.000001e+2}`,
	`{"k": 1.0}`,
	`{"k": 1e2}`,
	`{"k": -0, "parallelism": -3}`,
	`{"parallelism": 9223372036854775807}`,
	`{"parallelism": 9223372036854775808}`,
	`{"parallelism": -9223372036854775808}`,
	`{"sessions": [[1.5]]}`,
	`{"sessions": [[01]]}`,
	`{"sessions": [[-]]}`,
	`{"sessions": [[1e1]]}`,
	`{"sessions": [[123456789012345678901]]}`,
	`{"seed": -1}`,
	`{"seed": -0}`,
	`{"seed": 18446744073709551615}`,
	`{"seed": 18446744073709551616}`,
	`{"seed": 1.0}`,
	`{"epsilon": .5}`,
	`{"epsilon": 1.}`,
	`{"epsilon": 1e}`,
	`{"epsilon": +1}`,
	// Types and grammar.
	`{"epsilon": "1"}`,
	`{"k": true}`,
	`{"sessions": [1]}`,
	`{"sessions": {"a": 1}}`,
	`{"sessions": "0 1"}`,
	`{"series": 3}`,
	`{"requests": {}}`,
	`{"requests": [1]}`,
	`[]`,
	`"x"`,
	`1`,
	`{"network": [{"a": [true, false, null, "s", -1.5e-3, {}]}]}`,
	`{"network": nul}`,
	`{"network": [1,]}`,
	`{"network": {"a" 1}}`,
	`{"network": {1: 2}}`,
	`{"epsilon": 1,}`,
	`{,}`,
	`{"epsilon": 1 "k": 2}`,
	`{"epsilon": 1}   ` + "\t\r\n",
	`{"epsilon": 1} x`,
	`{"epsilon": 1}}`,
	``,
	` `,
	"\xef\xbb\xbf{}",
	`{"network": ` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `}`,
	`{"network": ` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`,
}

// FuzzReleaseRequestDecode is a differential target: on any bytes, as a
// single release and as a batch, DecodeReleases and encoding/json (with
// unknown fields disallowed and the trailing-data check) must agree on
// accept or refuse, and accepted bodies must decode to deeply equal
// values. An accepted single release then goes through the rest of the
// pre-scoring path the handler runs, session extraction and config
// mapping (including the embedded network parse), none of which may
// panic.
func FuzzReleaseRequestDecode(f *testing.F) {
	for _, body := range decodeCorpus {
		f.Add([]byte(body))
		f.Add([]byte(`{"requests": [` + body + `, ` + body + `]}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data, true)
		reqs := checkDecode(t, data, false)
		if reqs == nil {
			return
		}
		body := reqs[0]
		sessions, serr := body.sessions()
		if serr == nil && sessions == nil {
			t.Fatal("sessions() returned nil sessions without an error")
		}
		cfg, cerr := body.config(release.NewScoreCache())
		if cerr == nil && len(body.Network) > 0 && cfg.Network == nil {
			t.Fatal("config() accepted a network body but attached no network")
		}
	})
}
