package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"pufferfish/internal/accounting"
	"pufferfish/internal/faultfs"
	"pufferfish/internal/release"
)

// accountantSeries is a tiny request substrate: short enough that the
// kantorovich profile sweeps stay fast, long enough to fit a model.
const accountantSeries = "0 1 0 1 1 0 1 0 0 1 1 0"

// TestAccountantSessionsAcrossRequests: requests naming the same
// accountant session share one cumulative ledger across single and
// batch endpoints; the session surfaces on /v1/stats; unaccounted
// requests stay out of it.
func TestAccountantSessionsAcrossRequests(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := ReleaseRequest{
		Series: accountantSeries, Epsilon: 1, Delta: 1e-5,
		Mechanism: release.MechKantorovich, Noise: release.NoiseGaussian,
		Smoothing: 0.5, Seed: 7, Accountant: "tenant-a",
	}
	var last *release.Report
	for i := 0; i < 3; i++ {
		req.Seed = uint64(i)
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/release", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("release %d: %d %s", i, resp.StatusCode, body)
		}
		var report release.Report
		mustUnmarshal(t, body, &report)
		if report.Accounting == nil || report.Accounting.Releases != i+1 {
			t.Fatalf("release %d: accounting %+v", i, report.Accounting)
		}
		if report.Accounting.Accountant != "tenant-a" {
			t.Fatalf("release %d: session name %q", i, report.Accounting.Accountant)
		}
		last = &report
	}

	// A batch naming the same session keeps accumulating; a request
	// without an accountant does not touch it.
	batch := BatchRequest{Requests: []ReleaseRequest{req, req, {
		Series: accountantSeries, Epsilon: 1,
		Mechanism: release.MechMQMExact, Smoothing: 0.5, Seed: 9,
	}}}
	batch.Requests[0].Seed, batch.Requests[1].Seed = 10, 11
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/release/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var br BatchResponse
	mustUnmarshal(t, body, &br)
	if br.Reports[0].Accounting.Releases != 4 || br.Reports[1].Accounting.Releases != 5 {
		t.Fatalf("batch accounting counts = %d, %d",
			br.Reports[0].Accounting.Releases, br.Reports[1].Accounting.Releases)
	}
	if br.Reports[2].Accounting != nil {
		t.Fatal("unaccounted batch request got an accounting block")
	}

	st := getStats(t, ts.Client(), ts.URL)
	as, ok := st.Accountants["tenant-a"]
	if !ok {
		t.Fatalf("stats missing session: %+v", st.Accountants)
	}
	if as.Releases != 5 || as.Delta != accounting.DefaultDelta {
		t.Fatalf("session stats %+v", as)
	}
	if as.LinearEpsilon != 5 {
		t.Fatalf("linear ε = %v, want 5", as.LinearEpsilon)
	}
	if !(as.RDPEpsilon > 0 && as.RDPEpsilon <= as.LinearEpsilon) {
		t.Fatalf("RDP ε = %v vs linear %v", as.RDPEpsilon, as.LinearEpsilon)
	}
	if last.Accounting.LinearEpsilon >= as.LinearEpsilon {
		t.Fatalf("per-release block did not trail the session: %v vs %v",
			last.Accounting.LinearEpsilon, as.LinearEpsilon)
	}
}

// TestInvalidRequestsMintNoSessions: a request that fails validation
// must not create (or persist) an accountant session, and the session
// map is capped so fresh names cannot grow it without bound.
func TestInvalidRequestsMintNoSessions(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bad := ReleaseRequest{
		Series: accountantSeries, Epsilon: -1, // invalid ε: Prepare rejects
		Mechanism: release.MechMQMExact, Smoothing: 0.5, Accountant: "garbage",
	}
	if resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/release", bad); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid request: %d", resp.StatusCode)
	}
	if st := getStats(t, ts.Client(), ts.URL); len(st.Accountants) != 0 {
		t.Fatalf("invalid request minted sessions: %+v", st.Accountants)
	}
	if snaps := s.AccountantSnapshots(); snaps != nil {
		t.Fatalf("invalid request reached the snapshot: %+v", snaps)
	}

	// The cap refuses fresh names once full, without touching
	// established sessions.
	for i := 0; i < maxAccountantSessions; i++ {
		if _, err := s.accountantFor(fmt.Sprintf("s%d", i)); err != nil {
			t.Fatalf("session %d refused below the cap: %v", i, err)
		}
	}
	if _, err := s.accountantFor("one-too-many"); err == nil {
		t.Fatal("session over the cap accepted")
	}
	if _, err := s.accountantFor("s0"); err != nil {
		t.Fatalf("existing session refused at the cap: %v", err)
	}
}

// TestAccountantSessionPersistenceRoundTrip: the pufferd checkpoint
// carries the accountant sessions next to the score tables, and a
// second server booted from it resumes the budgets exactly.
func TestAccountantSessionPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snapshot.json")
	walPath := filepath.Join(dir, "accounting.wal")
	st, err := OpenDurable(faultfs.OS, nil, path, walPath)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Cache: st.Cache, Accountants: st.Accountants, WAL: st.WAL})
	ts := httptest.NewServer(s.Handler())

	for i, name := range []string{"a", "a", "b"} {
		req := ReleaseRequest{
			Series: accountantSeries, Epsilon: 1, Delta: 1e-5,
			Mechanism: release.MechKantorovich, Noise: release.NoiseGaussian,
			Smoothing: 0.5, Seed: uint64(i), Accountant: name,
		}
		if resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/release", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("release %d: %d %s", i, resp.StatusCode, body)
		}
	}
	before := s.Stats()
	ts.Close()
	if err := Checkpoint(faultfs.OS, path, s, st.WAL); err != nil {
		t.Fatal(err)
	}
	if err := st.WAL.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = OpenDurable(faultfs.OS, nil, path, walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer st.WAL.Close()
	if len(st.Accountants) != 2 {
		t.Fatalf("restored %d sessions, want 2", len(st.Accountants))
	}
	if st.Replayed != 0 {
		t.Errorf("replayed %d journal records the checkpoint already folded in", st.Replayed)
	}
	restored := New(Config{Cache: st.Cache, Accountants: st.Accountants, WAL: st.WAL})
	after := restored.Stats()
	for _, name := range []string{"a", "b"} {
		if after.Accountants[name] != before.Accountants[name] {
			t.Errorf("session %q: restored %+v != original %+v",
				name, after.Accountants[name], before.Accountants[name])
		}
	}

	// The restored session keeps accumulating where it left off.
	ts2 := httptest.NewServer(restored.Handler())
	defer ts2.Close()
	req := ReleaseRequest{
		Series: accountantSeries, Epsilon: 1, Delta: 1e-5,
		Mechanism: release.MechKantorovich, Noise: release.NoiseGaussian,
		Smoothing: 0.5, Seed: 99, Accountant: "a",
	}
	resp, body := postJSON(t, ts2.Client(), ts2.URL+"/v1/release", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restore release: %d %s", resp.StatusCode, body)
	}
	var report release.Report
	mustUnmarshal(t, body, &report)
	if report.Accounting.Releases != 3 {
		t.Fatalf("post-restore session count = %d, want 3 (2 restored + 1)", report.Accounting.Releases)
	}
	// And it was served warm: the restored cache already holds every
	// profile for this model.
	if st := restored.Stats(); st.Cache.Misses != 0 {
		t.Errorf("restored cache missed %d times", st.Cache.Misses)
	}
}

// TestSnapshotFileLegacyFormat: snapshots from before the current
// cache format still load without failing the boot. Version-1 cache
// entries live in the pre-kind-tag fingerprint domain, so they are
// dropped (cold cache) — but accountant ledgers, which carry
// cumulative privacy spend, are always kept.
func TestSnapshotFileLegacyFormat(t *testing.T) {
	// Pre-accounting bare-cache layout, version 1: loads cold, no
	// sessions.
	path := filepath.Join(t.TempDir(), "legacy.json")
	legacy := []byte(`{"version": 1, "scores": [{"fp_hi": 1, "fp_lo": 2, "eps": 1, "exact": true,
		"sigma": 12.5, "node": 3, "quilt_a": 1, "quilt_b": 1, "influence": 0.25, "ell": 2}]}`)
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	cache, accountants, _, err := loadSnapshotFS(faultfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 0 || accountants != nil {
		t.Fatalf("legacy bare load: %d entries, %d sessions, want cold and none", cache.Len(), len(accountants))
	}
	// Version-1 cache inside a full snapshot file: the cache starts
	// cold but the accountant budgets survive the upgrade.
	path2 := filepath.Join(t.TempDir(), "legacy2.json")
	withAcct := []byte(`{"cache": {"version": 1, "scores": [{"fp_hi": 1, "fp_lo": 2, "eps": 1, "exact": true,
		"sigma": 12.5, "node": 3, "quilt_a": 1, "quilt_b": 1, "influence": 0.25, "ell": 2}]},
		"accountants": {"a": {"delta": 1e-5, "entries": [{"kind": "gaussian", "eps": 1, "delta": 1e-5, "rho": 0.5}]}}}`)
	if err := os.WriteFile(path2, withAcct, 0o644); err != nil {
		t.Fatal(err)
	}
	cache, accountants, _, err = loadSnapshotFS(faultfs.OS, path2)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 0 {
		t.Errorf("legacy cache entries merged: %d resident", cache.Len())
	}
	if len(accountants) != 1 || accountants["a"] == nil {
		t.Fatalf("accountants lost across legacy upgrade: %v", accountants)
	}
}

// TestSnapshotFileRejectsCorruptAccountant: a snapshot whose
// accountant entries could never have been recorded must fail the
// load, exactly like a corrupted score entry.
func TestSnapshotFileRejectsCorruptAccountant(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	bad := []byte(`{"cache": {"version": 1},
		"accountants": {"x": {"delta": 1e-5, "entries": [{"kind": "gaussian", "eps": 1, "delta": 1e-5, "rho": -3}]}}}`)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := loadSnapshotFS(faultfs.OS, path); err == nil {
		t.Fatal("corrupt accountant snapshot accepted")
	}
}

func mustUnmarshal(t *testing.T, blob []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(blob, v); err != nil {
		t.Fatalf("unmarshal %s: %v", blob, err)
	}
}
