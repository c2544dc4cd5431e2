package server

import (
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"pufferfish/internal/faultfs"
	"pufferfish/internal/floats"
	"pufferfish/internal/markov"
	"pufferfish/internal/release"
)

// kantSessions keeps the transport sweeps race-detector friendly.
func kantSessions(t *testing.T) [][]int {
	t.Helper()
	rng := rand.New(rand.NewPCG(31, 32))
	truth := markov.BinaryChain(0.5, 0.9, 0.8)
	var sessions [][]int
	for i := 0; i < 3; i++ {
		sessions = append(sessions, truth.Sample(50, rng))
	}
	return sessions
}

// TestKantorovichEndToEnd: the new mechanism is servable through both
// endpoints, bit-identical to release.Run, warm on repeats, and the
// per-mechanism stats counters report the traffic mix.
func TestKantorovichEndToEnd(t *testing.T) {
	sessions := kantSessions(t)
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cfg := release.Config{Epsilon: 1, Mechanism: release.MechKantorovich, Smoothing: 0.5, Seed: 9}
	want, err := release.Run(sessions, cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := ReleaseRequest{Sessions: sessions, Epsilon: 1, Mechanism: release.MechKantorovich, Smoothing: 0.5, Seed: 9}

	check := func(body []byte) {
		t.Helper()
		var got release.Report
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("bad response %s: %v", body, err)
		}
		if !floats.EqSlices(got.Histogram, want.Histogram, 0) || got.Sigma != want.Sigma || got.NoiseScale != want.NoiseScale {
			t.Fatalf("server release diverges from release.Run:\n  server %+v\n  run    %+v", got, want)
		}
		if got.Kantorovich == nil || *got.Kantorovich != *want.Kantorovich {
			t.Fatalf("diagnostics block diverges: %+v vs %+v", got.Kantorovich, want.Kantorovich)
		}
		if got.Cache == nil {
			t.Fatal("missing shared-cache stats block")
		}
	}

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/release", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	check(body)
	cold := getStats(t, ts.Client(), ts.URL)
	if cold.Cache.Misses == 0 {
		t.Fatalf("cold stats show no cache fill: %+v", cold)
	}

	// A warm batch mixing kantorovich (twice, same model) with the
	// other scoring mechanism: the kantorovich entries must come from
	// the cache or intra-batch dedupe, never a re-sweep.
	batch := BatchRequest{Requests: []ReleaseRequest{
		req,
		req,
		{Sessions: sessions, Epsilon: 1, Mechanism: release.MechMQMApprox, Smoothing: 0.5, Seed: 9},
	}}
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/release/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var batchResp BatchResponse
	if err := json.Unmarshal(body, &batchResp); err != nil {
		t.Fatal(err)
	}
	if len(batchResp.Reports) != 3 {
		t.Fatalf("batch returned %d reports", len(batchResp.Reports))
	}
	for i := 0; i < 2; i++ {
		blob, err := json.Marshal(batchResp.Reports[i])
		if err != nil {
			t.Fatal(err)
		}
		check(blob)
	}
	warm := getStats(t, ts.Client(), ts.URL)
	// Only the mqm-approx batch member may add misses.
	if warm.Cache.Misses > cold.Cache.Misses+1 {
		t.Errorf("warm batch re-swept kantorovich profiles: misses %d -> %d", cold.Cache.Misses, warm.Cache.Misses)
	}

	mix := warm.ReleasesByMechanism
	for _, mech := range mechanisms {
		if _, ok := mix[mech]; !ok {
			t.Errorf("stats missing counter for %q: %v", mech, mix)
		}
	}
	if mix[release.MechKantorovich] != 3 || mix[release.MechMQMApprox] != 1 || mix[release.MechDP] != 0 {
		t.Errorf("traffic mix wrong: %v", mix)
	}
	var total int64
	for _, n := range mix {
		total += n
	}
	if total != warm.ReleasesTotal {
		t.Errorf("per-mechanism counters sum to %d, releases_total = %d", total, warm.ReleasesTotal)
	}
}

// TestCacheFileRoundTrip: the -cache-file flow — drive traffic, save,
// load into a fresh server, and the same requests are pure hits with
// bit-identical responses.
func TestCacheFileRoundTrip(t *testing.T) {
	sessions := kantSessions(t)
	path := filepath.Join(t.TempDir(), "cache.json")

	// A missing file yields an empty cache, not an error (first boot).
	empty, _, _, err := loadSnapshotFS(faultfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 {
		t.Fatalf("missing file produced %d entries", empty.Len())
	}

	first := New(Config{})
	ts := httptest.NewServer(first.Handler())
	reqs := []ReleaseRequest{
		{Sessions: sessions, Epsilon: 1, Mechanism: release.MechKantorovich, Smoothing: 0.5, Seed: 5},
		{Sessions: sessions, Epsilon: 1, Mechanism: release.MechMQMExact, Smoothing: 0.5, Seed: 5},
	}
	bodies := make([][]byte, len(reqs))
	for i, req := range reqs {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/release", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		bodies[i] = body
	}
	entries := first.Cache().Len()
	if entries == 0 {
		t.Fatal("no cache entries to persist")
	}
	if err := SaveSnapshotFS(faultfs.OS, path, first.Cache(), nil, 0); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	warmCache, _, _, err := loadSnapshotFS(faultfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if warmCache.Len() != entries {
		t.Fatalf("restored %d entries, want %d", warmCache.Len(), entries)
	}
	second := New(Config{Cache: warmCache})
	ts2 := httptest.NewServer(second.Handler())
	defer ts2.Close()
	for i, req := range reqs {
		resp, body := postJSON(t, ts2.Client(), ts2.URL+"/v1/release", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm request %d: status %d: %s", i, resp.StatusCode, body)
		}
		var got, want release.Report
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(bodies[i], &want); err != nil {
			t.Fatal(err)
		}
		if !floats.EqSlices(got.Histogram, want.Histogram, 0) || got.Sigma != want.Sigma {
			t.Fatalf("restored-cache release %d diverges from the original", i)
		}
	}
	if misses := second.Cache().Stats().Misses; misses != 0 {
		t.Errorf("restored cache re-scored %d entries; want a fully warm restart", misses)
	}
	if hits := second.Cache().Stats().Hits; hits == 0 {
		t.Error("restored cache recorded no hits")
	}

	// Corrupt files are an explicit error.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := loadSnapshotFS(faultfs.OS, bad); err == nil {
		t.Error("corrupt cache file accepted")
	}
}
