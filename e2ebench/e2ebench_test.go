package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"pufferfish/internal/release"
	"pufferfish/internal/server"
)

// tinySizes shrinks every workload so the self-tests run in seconds.
var tinySizes = sizes{
	warmModels: 2, warmSessions: 2, warmLen: 20,
	coldSessions: 2, coldLen: 20, coldNodes: 7,
	batchSize: 4, accountants: 8,
	snapEntries: 5, walPending: 3,
}

var workloadNames = []string{"warm-mix", "cold-score"}

func tinyHarness(t *testing.T, name string, seed uint64) *harness {
	t.Helper()
	h, err := newHarness(name, seed, tinySizes, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestSameSeedSameBodies(t *testing.T) {
	for _, name := range workloadNames {
		a, b, other := tinyHarness(t, name, 7), tinyHarness(t, name, 7), tinyHarness(t, name, 8)
		differs := false
		for i := range 40 {
			ra := a.w.request(a.seed, streamTimed, i)
			body := ra.body()
			if !bytes.Equal(body, b.w.request(b.seed, streamTimed, i).body()) {
				t.Fatalf("%s: request %d differs between two generators with seed 7", name, i)
			}
			if !bytes.Equal(body, other.w.request(other.seed, streamTimed, i).body()) {
				differs = true
			}
			// The body is the request the gate regenerates.
			var got []server.ReleaseRequest
			if ra.batch {
				var br server.BatchRequest
				if err := decodeStrict(body, &br); err != nil {
					t.Fatalf("%s: request %d: %v", name, i, err)
				}
				got = br.Requests
			} else {
				got = make([]server.ReleaseRequest, 1)
				if err := decodeStrict(body, &got[0]); err != nil {
					t.Fatalf("%s: request %d: %v", name, i, err)
				}
			}
			for j, m := range ra.members {
				if !reflect.DeepEqual(got[j], m.req) {
					t.Fatalf("%s: request %d member %d decodes to %+v, generated %+v", name, i, j, got[j], m.req)
				}
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave identical request bodies", name)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[n-1-i] = float64(i + 1) // reversed, so tail must sort
	}
	return out
}

func TestTailPercentileChoice(t *testing.T) {
	for _, c := range []struct {
		n, beyond int
		value     float64
		pct       float64
	}{
		{n: 2000, value: 1980, pct: 99, beyond: 20}, // p99 has 20 beyond
		{n: 1000, value: 990, pct: 99, beyond: 10},  // p99 has exactly 10
		{n: 999, value: 989, pct: 100 * 989.0 / 999, beyond: 10},
		{n: 100, value: 90, pct: 90, beyond: 10}, // p99 has 1 beyond: step down
		{n: 11, value: 1, pct: 100.0 / 11, beyond: 10},
		{n: 5, value: 5, pct: 100, beyond: 0}, // too few: the maximum
	} {
		got := tail(seq(c.n))
		if math.Float64bits(got.Value) != math.Float64bits(c.value) || got.Beyond != c.beyond || got.N != c.n ||
			math.Abs(got.Pct-c.pct) > 1e-9 {
			t.Errorf("tail(1..%d) = %+v, want value %v at p%v with %d beyond", c.n, got, c.value, c.pct, c.beyond)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(1, 4, 16) = %v, want 4", got)
	}
}

// TestLayerRowsSumToHTTPTotal runs the traced replay of every workload
// and checks that the top-level layer rows plus server.unattributed_us
// add up to the traced HTTP total.
func TestLayerRowsSumToHTTPTotal(t *testing.T) {
	for _, name := range workloadNames {
		h := tinyHarness(t, name, 3)
		h.traced = 12
		res, err := h.runTraced(h.dir + "/spans.jsonl")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum, total := res.attribution()
		if total <= 0 || math.Abs(sum-total) > 1e-9*total {
			t.Errorf("%s: rows + residual = %v us, HTTP total %v us", name, sum, total)
		}
		// The rows do not overlap: a twin request's top-level spans fit
		// inside its root span.
		blob, err := os.ReadFile(res.spanFile)
		if err != nil {
			t.Fatal(err)
		}
		spans := map[int]span{}
		children := map[int]int64{}
		dec := json.NewDecoder(bytes.NewReader(blob))
		for dec.More() {
			var sp span
			if err := dec.Decode(&sp); err != nil {
				t.Fatal(err)
			}
			spans[sp.ID] = sp
			children[sp.Parent] += sp.dur()
		}
		for id, sp := range spans {
			if sp.Name == spanTwin && children[id] > sp.dur() {
				t.Errorf("%s: request %d: top-level spans cover %d ns of a %d ns twin request", name, sp.Req, children[id], sp.dur())
			}
		}
	}
}

// TestGateCatchesTamperedReport serves a short timed phase, checks the
// gate passes, then tampers with one served report and checks the gate
// refuses it: σ scaled by 0.9, or an accounting block whose release
// count comes from another ledger state than its ε.
func TestGateCatchesTamperedReport(t *testing.T) {
	tamperings := []struct {
		workload, what string
		tamper         func(*release.Report)
	}{
		{"warm-mix", "σ × 0.9", func(r *release.Report) { r.NoiseScale *= 0.9; r.Sigma *= 0.9 }},
		{"cold-score", "σ × 0.9", func(r *release.Report) { r.NoiseScale *= 0.9; r.Sigma *= 0.9 }},
		{"cold-score", "a torn accounting block", func(r *release.Report) { r.Accounting.Releases-- }},
	}
	for _, c := range tamperings {
		name := c.workload
		h := tinyHarness(t, name, 5)
		if err := h.materialize(h.dir + "/setup"); err != nil {
			t.Fatal(err)
		}
		l, _, err := h.setUp(h.dir + "/setup")
		if err != nil {
			t.Fatal(err)
		}
		p, err := h.closedLoop(l, 200*time.Millisecond)
		if cerr := l.close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		if p.failed != 0 || len(p.responses) == 0 {
			t.Fatalf("%s: %d failed, %d served", name, p.failed, len(p.responses))
		}
		if _, err := h.gate(p.responses, l); err != nil {
			t.Fatalf("%s: untampered run fails the gate: %v", name, err)
		}
		last := len(p.responses) - 1
		batch := h.w.request(h.seed, streamTimed, p.responses[last].idx).batch
		reps, err := decodeReports(p.responses[last].body, batch)
		if err != nil {
			t.Fatal(err)
		}
		c.tamper(reps[0])
		var v any = reps[0]
		if batch {
			v = server.BatchResponse{Reports: reps}
		}
		tampered, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		p.responses[last].body = tampered
		if _, err := h.gate(p.responses, l); err == nil {
			t.Errorf("%s: the gate accepted %s", name, c.what)
		}
	}
}

// TestCanonIgnoresOnlyCacheBlock: the one field the gate leaves out is
// the cache's cumulative traffic block.
func TestCanonIgnoresOnlyCacheBlock(t *testing.T) {
	a := &release.Report{Mechanism: release.MechDP, NoiseScale: 0.5, Histogram: []float64{0.25, 0.75}, Cache: &release.CacheReport{Hits: 1}}
	b := *a
	b.Cache = &release.CacheReport{Hits: 9, Misses: 3}
	if err := sameReport(a, &b); err != nil {
		t.Errorf("reports differing only in the cache block: %v", err)
	}
	b.Histogram = []float64{0.25, math.Nextafter(0.75, 1)}
	if err := sameReport(a, &b); err == nil {
		t.Error("reports one ulp apart compare equal")
	}
}
