package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pufferfish/internal/release"
)

// treeNetworkJSON is a 5-node household polytree in the bayes JSON
// codec — the wire format of ReleaseRequest.Network.
const treeNetworkJSON = `[
	{"name": "p0", "card": 2, "cpt": [0.8, 0.2]},
	{"name": "p1", "card": 2, "parents": [0], "cpt": [0.9, 0.1, 0.35, 0.65]},
	{"name": "p2", "card": 2, "parents": [0], "cpt": [0.9, 0.1, 0.35, 0.65]},
	{"name": "p3", "card": 2, "parents": [1], "cpt": [0.9, 0.1, 0.35, 0.65]},
	{"name": "p4", "card": 2, "parents": [1], "cpt": [0.9, 0.1, 0.35, 0.65]}
]`

func networkRequest(seed uint64) ReleaseRequest {
	return ReleaseRequest{
		Sessions: [][]int{{0, 1, 0, 1, 1}}, Epsilon: 1,
		Mechanism: release.MechKantorovich,
		Substrate: release.SubstrateNetwork,
		Network:   json.RawMessage(treeNetworkJSON),
		Seed:      seed,
	}
}

// TestNetworkSubstrateOverHTTP: a Bayesian-network release served end
// to end — substrate-tagged report, per-substrate stats counter, and a
// fully cache-served repeat.
func TestNetworkSubstrateOverHTTP(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var first release.Report
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/release", networkRequest(42))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("release %d: %d %s", i, resp.StatusCode, body)
		}
		var report release.Report
		mustUnmarshal(t, body, &report)
		if report.Substrate != release.SubstrateNetwork {
			t.Fatalf("release %d: substrate %q", i, report.Substrate)
		}
		if report.Model != nil || report.Kantorovich == nil {
			t.Fatalf("release %d: model %v, kantorovich %v", i, report.Model, report.Kantorovich)
		}
		if i == 0 {
			first = report
			continue
		}
		for c := range report.Histogram {
			if report.Histogram[c] != first.Histogram[c] {
				t.Fatalf("cell %d: %v != %v across identical requests", c, report.Histogram[c], first.Histogram[c])
			}
		}
	}

	st := getStats(t, ts.Client(), ts.URL)
	if st.ReleasesBySubstrate[release.SubstrateNetwork] != 2 || st.ReleasesBySubstrate[release.SubstrateChain] != 0 {
		t.Errorf("substrate counters: %+v", st.ReleasesBySubstrate)
	}
	// k = 2 cells profiled once, then served warm on the repeat.
	if st.Cache.Misses != 2 || st.Cache.Hits != 2 {
		t.Errorf("cache traffic: %+v", st.Cache)
	}
}

// TestNetworkSubstrateBatch: a batch mixing chain and network
// substrates scores both routes under one worker grant and counts each
// kind.
func TestNetworkSubstrateBatch(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	chainReq := ReleaseRequest{
		Series: accountantSeries, Epsilon: 1,
		Mechanism: release.MechKantorovich, Smoothing: 0.5, Seed: 3,
	}
	batch := BatchRequest{Requests: []ReleaseRequest{networkRequest(1), chainReq, networkRequest(2)}}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/release/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var br BatchResponse
	mustUnmarshal(t, body, &br)
	wantKinds := []string{release.SubstrateNetwork, release.SubstrateChain, release.SubstrateNetwork}
	for i, rep := range br.Reports {
		if rep.Substrate != wantKinds[i] {
			t.Errorf("report %d: substrate %q, want %q", i, rep.Substrate, wantKinds[i])
		}
	}
	if br.Reports[0].Histogram[0] == br.Reports[2].Histogram[0] {
		t.Error("different seeds released identical noise")
	}
	st := getStats(t, ts.Client(), ts.URL)
	if st.ReleasesBySubstrate[release.SubstrateNetwork] != 2 || st.ReleasesBySubstrate[release.SubstrateChain] != 1 {
		t.Errorf("substrate counters: %+v", st.ReleasesBySubstrate)
	}
	// The two network requests carry the same model at ε=1, so they
	// dedupe into one scoring pass with the chain member: k = 2 network
	// misses, no network hits, plus exactly the chain member's own
	// cold traffic.
	chainAlone, err := release.Run(mustSessions(t, chainReq.Series), release.Config{
		Epsilon: 1, Mechanism: release.MechKantorovich, Smoothing: 0.5, Seed: 3,
		Cache: release.NewScoreCache(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 + chainAlone.Cache.Misses; st.Cache.Misses != want || st.Cache.Hits != chainAlone.Cache.Hits {
		t.Errorf("cache traffic %+v, want %d misses and %d hits (the chain member's alone)", st.Cache, want, chainAlone.Cache.Hits)
	}
}

func mustSessions(t *testing.T, series string) [][]int {
	t.Helper()
	sessions, err := release.ParseSeries(strings.NewReader(series))
	if err != nil {
		t.Fatal(err)
	}
	return sessions
}

// TestNetworkSubstrateRejections: malformed network requests fail with
// 400 before any session or scoring work.
func TestNetworkSubstrateRejections(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bad := networkRequest(1)
	bad.Network = json.RawMessage(`[{"name": "p0", "card": 2, "cpt": [0.8, 0.7]}]`)
	if resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/release", bad); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unnormalized CPT: %d %s", resp.StatusCode, body)
	}
	missing := networkRequest(1)
	missing.Network = nil
	if resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/release", missing); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing network: %d %s", resp.StatusCode, body)
	}
	quilt := networkRequest(1)
	quilt.Mechanism = release.MechMQMExact
	quilt.Smoothing = 0.5
	if resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/release", quilt); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("quilt mechanism on network: %d %s", resp.StatusCode, body)
	}
	if st := getStats(t, ts.Client(), ts.URL); st.ReleasesTotal != 0 {
		t.Errorf("rejected requests released: %+v", st)
	}
}
