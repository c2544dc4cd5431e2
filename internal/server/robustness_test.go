package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"pufferfish/internal/release"
)

// TestSessionCapConfigurable: Config.MaxAccountants bounds the session
// map at exactly the configured value; the first request past it gets
// 403 (not a generic 400) and shows up in the session_refusals
// counter, while established sessions keep working.
func TestSessionCapConfigurable(t *testing.T) {
	s := New(Config{MaxAccountants: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := ReleaseRequest{
		Series: accountantSeries, Epsilon: 1,
		Mechanism: release.MechDP, Seed: 1,
	}
	for i := 0; i < 2; i++ {
		req.Accountant = fmt.Sprintf("tenant-%d", i)
		if resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/release", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("session %d under the cap: %d %s", i, resp.StatusCode, body)
		}
	}
	// The boundary: session 3 on a cap of 2.
	req.Accountant = "tenant-2"
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/release", req)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("session over the cap: %d %s", resp.StatusCode, body)
	}
	// Established sessions are unaffected.
	req.Accountant = "tenant-0"
	if resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/release", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("existing session at the cap: %d %s", resp.StatusCode, body)
	}
	st := getStats(t, ts.Client(), ts.URL)
	if st.SessionRefusals != 1 {
		t.Fatalf("session_refusals = %d, want 1", st.SessionRefusals)
	}
	if len(st.Accountants) != 2 {
		t.Fatalf("%d sessions minted under a cap of 2", len(st.Accountants))
	}
}

// TestCeilingRefusedBeforeScoring: a release that would breach the
// session ceiling is refused with 403 before any scoring work runs
// (the scoring hook fires only for admitted requests), the refusal is
// counted, and the session's recorded spend never moves.
func TestCeilingRefusedBeforeScoring(t *testing.T) {
	s := New(Config{CeilingEps: 2.5, CeilingDelta: 1e-5})
	var scored atomic.Int64
	s.scoringHook = func() { scored.Add(1) }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := ReleaseRequest{
		Series: accountantSeries, Epsilon: 1,
		Mechanism: release.MechMQMExact, Smoothing: 0.5, Accountant: "capped",
	}
	for i := 0; i < 2; i++ {
		req.Seed = uint64(i)
		if resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/release", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("release %d under the ceiling: %d %s", i, resp.StatusCode, body)
		}
	}
	admitted := scored.Load()
	// Refused alone and as a batch of one, both before scoring.
	resp, body := postBoth(t, ts.Client(), ts.URL, mustJSON(t, req))
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("over-ceiling release: %d %s", resp.StatusCode, body)
	}
	if scored.Load() != admitted {
		t.Fatal("refused release reached the scoring stage")
	}
	st := getStats(t, ts.Client(), ts.URL)
	if st.BudgetRefusals != 2 {
		t.Fatalf("budget_refusals = %d, want 2", st.BudgetRefusals)
	}
	if got := st.Accountants["capped"].Releases; got != 2 {
		t.Fatalf("refused release charged the session: %d releases", got)
	}

	// A batch whose members each fit the ceiling but jointly breach it
	// is refused whole, up front — no member is scored or charged.
	fresh := req
	fresh.Accountant = "joint"
	batch := BatchRequest{Requests: []ReleaseRequest{fresh, fresh, fresh}}
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/release/batch", batch)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("over-ceiling batch: %d %s", resp.StatusCode, body)
	}
	if scored.Load() != admitted {
		t.Fatal("refused batch reached the scoring stage")
	}
	if st := getStats(t, ts.Client(), ts.URL); st.Accountants["joint"].Releases != 0 {
		t.Fatal("refused batch charged the session")
	}
}

// TestCeilingGaussianExactPrecheck: the Gaussian pre-scoring check
// uses the exact entry Finish would charge (W∞ cancels out of ρ), so
// admission and the eventual charge agree: a request admitted by the
// check completes, and the first one refused is refused consistently.
func TestCeilingGaussianExactPrecheck(t *testing.T) {
	s := New(Config{CeilingEps: 0.6, CeilingDelta: 1e-5})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req := ReleaseRequest{
		Series: accountantSeries, Epsilon: 0.5, Delta: 1e-6,
		Mechanism: release.MechKantorovich, Noise: release.NoiseGaussian,
		Smoothing: 0.5, Accountant: "gauss",
	}
	okCount := 0
	for i := 0; i < 8; i++ {
		req.Seed = uint64(i)
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/release", req)
		switch resp.StatusCode {
		case http.StatusOK:
			okCount++
		case http.StatusForbidden:
			// Once refused, every identical follow-up is refused too.
			if i == 0 {
				t.Fatalf("first release refused: %s", body)
			}
			st := getStats(t, ts.Client(), ts.URL)
			if got := st.Accountants["gauss"].Releases; got != okCount {
				t.Fatalf("session charged %d releases, %d admitted", got, okCount)
			}
			return
		default:
			t.Fatalf("release %d: %d %s", i, resp.StatusCode, body)
		}
	}
	t.Fatal("ceiling never engaged over 8 Gaussian releases")
}

// TestQueueShedding: with the worker pool saturated and the wait queue
// full, a scoring request is shed with 429 + Retry-After instead of
// piling up, and the shed shows in stats. Draining the pool lets the
// queued request complete normally.
func TestQueueShedding(t *testing.T) {
	s := New(Config{Workers: 1, MaxQueue: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Saturate the pool out-of-band.
	grant, err := s.budget.acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	req := ReleaseRequest{
		Series: accountantSeries, Epsilon: 1,
		Mechanism: release.MechMQMExact, Smoothing: 0.5, Seed: 1,
	}
	// One request may wait (queue depth 1)...
	type result struct {
		status int
		body   []byte
	}
	done := make(chan result, 1)
	go func() {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/release", req)
		done <- result{resp.StatusCode, body}
	}()
	waitFor(t, "queued waiter", func() bool {
		s.budget.mu.Lock()
		defer s.budget.mu.Unlock()
		return s.budget.waiting == 1
	})
	// ...the next is shed immediately, alone or as a batch of one.
	resp, body := postBoth(t, ts.Client(), ts.URL, mustJSON(t, req))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	s.budget.release(grant)
	if r := <-done; r.status != http.StatusOK {
		t.Fatalf("queued request after drain: %d %s", r.status, r.body)
	}
	if st := getStats(t, ts.Client(), ts.URL); st.ShedTotal != 2 {
		t.Fatalf("shed_total = %d, want 2", st.ShedTotal)
	}
}

// TestRequestTimeout: the configured deadline propagates through the
// pipeline; a request that outlives it aborts with 503 at the next
// stage boundary, for both the scoring and the no-scoring paths.
func TestRequestTimeout(t *testing.T) {
	s := New(Config{RequestTimeout: 20 * time.Millisecond})
	s.scoringHook = func() { time.Sleep(60 * time.Millisecond) }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	scoring := ReleaseRequest{
		Series: accountantSeries, Epsilon: 1,
		Mechanism: release.MechMQMExact, Smoothing: 0.5, Seed: 1,
	}
	if resp, body := postBoth(t, ts.Client(), ts.URL, mustJSON(t, scoring)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("timed-out scoring request: %d %s", resp.StatusCode, body)
	}
	direct := ReleaseRequest{
		Series: accountantSeries, Epsilon: 1,
		Mechanism: release.MechDP, Seed: 1, Accountant: "late",
	}
	if resp, body := postBoth(t, ts.Client(), ts.URL, mustJSON(t, direct)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("timed-out direct request: %d %s", resp.StatusCode, body)
	}
	// The aborted requests never charged their session.
	if st := getStats(t, ts.Client(), ts.URL); st.Accountants["late"].Releases != 0 {
		t.Fatal("timed-out request charged the ledger")
	}
}

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
