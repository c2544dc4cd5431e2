package server

import (
	"encoding/json"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// TestDecodeFieldNamesMatchTags: the decoder's field names are exactly
// the JSON names of ReleaseRequest and BatchRequest, so a field added
// to either struct cannot be silently refused.
func TestDecodeFieldNamesMatchTags(t *testing.T) {
	for _, c := range []struct {
		typ   reflect.Type
		names []string
	}{
		{reflect.TypeFor[ReleaseRequest](), releaseFields},
		{reflect.TypeFor[BatchRequest](), batchFields},
	} {
		var tags []string
		for i := 0; i < c.typ.NumField(); i++ {
			name, _, _ := strings.Cut(c.typ.Field(i).Tag.Get("json"), ",")
			tags = append(tags, name)
		}
		if !slices.Equal(tags, c.names) {
			t.Errorf("%s: JSON names %v, decoder fields %v", c.typ.Name(), tags, c.names)
		}
	}
}

// TestDecodeSessionsShareOneBacking: a request's sessions are capped
// windows of one backing array, so no session can grow into the next,
// and batch members do not share theirs.
func TestDecodeSessionsShareOneBacking(t *testing.T) {
	reqs, err := DecodeReleases([]byte(`{"requests": [
		{"sessions": [[0, 1, 0], [1], [], [1, 1]]},
		{"sessions": [[1, 0]]}]}`), true)
	if err != nil {
		t.Fatal(err)
	}
	s := reqs[0].Sessions
	want := [][]int{{0, 1, 0}, {1}, {}, {1, 1}}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("sessions %v, want %v", s, want)
	}
	base := unsafe.SliceData(s[0])
	off := 0
	for i, row := range s {
		if cap(row) != len(row) {
			t.Errorf("session %d: cap %d, len %d", i, cap(row), len(row))
		}
		if len(row) > 0 && unsafe.SliceData(row) != (*int)(unsafe.Add(unsafe.Pointer(base), off*int(unsafe.Sizeof(0)))) {
			t.Errorf("session %d is not at offset %d of the first session's backing array", i, off)
		}
		off += len(row)
	}
	other := unsafe.SliceData(reqs[1].Sessions[0])
	if uintptr(unsafe.Pointer(other)) >= uintptr(unsafe.Pointer(base)) &&
		uintptr(unsafe.Pointer(other)) < uintptr(unsafe.Pointer(base))+uintptr(off)*unsafe.Sizeof(0) {
		t.Error("two batch members share a backing array")
	}
}

// TestDecoderFreeCapsBuffers: a decoder returned to the pool keeps
// ordinary buffers and drops ones a large body grew.
func TestDecoderFreeCapsBuffers(t *testing.T) {
	d := &decoder{in: make([]byte, 0, 4096), ints: make([]int, 0, 4096), rows: make([]row, 0, 16)}
	d.free()
	if cap(d.in) != 4096 || cap(d.ints) != 4096 || cap(d.rows) != 16 {
		t.Errorf("ordinary buffers dropped: in %d, ints %d, rows %d", cap(d.in), cap(d.ints), cap(d.rows))
	}
	d = &decoder{in: make([]byte, 0, maxPooledBody+1), ints: make([]int, 0, maxPooledInts+1), buf: make([]byte, 0, maxPooledBody+1)}
	d.free()
	if d.in != nil || d.ints != nil || d.buf != nil {
		t.Errorf("large buffers kept: in %d, ints %d, buf %d", cap(d.in), cap(d.ints), cap(d.buf))
	}
}

// warmMixBody is a single release shaped like the e2ebench warm-mix
// workload's requests: 12 sessions of 200 binary states.
func warmMixBody(tb testing.TB) []byte {
	r := rand.New(rand.NewPCG(1, 17))
	sessions := make([][]int, 12)
	for i := range sessions {
		sessions[i] = make([]int, 200)
		for j := range sessions[i] {
			sessions[i][j] = r.IntN(2)
		}
	}
	body, err := json.Marshal(ReleaseRequest{
		Sessions: sessions, Epsilon: 1, Mechanism: "mqm-exact", Smoothing: 0.5, Seed: r.Uint64(), Parallelism: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkDecodeReleases decodes a warm-mix body with the strict
// decoder and, as the reference row, with the encoding/json oracle.
func BenchmarkDecodeReleases(b *testing.B) {
	body := warmMixBody(b)
	for _, c := range []struct {
		name   string
		decode func([]byte, bool) ([]ReleaseRequest, error)
	}{
		{"strict", DecodeReleases},
		{"encoding-json", oracleDecode},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := c.decode(body, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
