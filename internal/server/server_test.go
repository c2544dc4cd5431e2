package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pufferfish/internal/floats"
	"pufferfish/internal/markov"
	"pufferfish/internal/release"
)

func sampleSessions(t *testing.T) [][]int {
	t.Helper()
	rng := rand.New(rand.NewPCG(81, 82))
	truth := markov.BinaryChain(0.5, 0.9, 0.85)
	var sessions [][]int
	for i := 0; i < 4; i++ {
		sessions = append(sessions, truth.Sample(300, rng))
	}
	return sessions
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// postBoth POSTs one release body to /v1/release and, wrapped as a
// batch of one, to /v1/release/batch. Both endpoints run one pipeline,
// so the test fails unless they answer with the same status and
// Retry-After, each with a JSON {error} body on failure. It returns the
// single endpoint's response and body.
func postBoth(t *testing.T, client *http.Client, base string, body string) (*http.Response, []byte) {
	t.Helper()
	post := func(path, body string) (*http.Response, []byte) {
		resp, err := client.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			var msg map[string]string
			if err := json.Unmarshal(out, &msg); err != nil || msg["error"] == "" {
				t.Errorf("%s: error body %q not JSON {error}", path, out)
			}
		}
		return resp, out
	}
	single, singleBody := post("/v1/release", body)
	batch, batchBody := post("/v1/release/batch", `{"requests": [`+body+`]}`)
	if single.StatusCode != batch.StatusCode {
		t.Errorf("status: single %d (%s), batch of one %d (%s)", single.StatusCode, singleBody, batch.StatusCode, batchBody)
	}
	if a, b := single.Header.Get("Retry-After"), batch.Header.Get("Retry-After"); a != b {
		t.Errorf("Retry-After: single %q, batch of one %q", a, b)
	}
	return single, singleBody
}

// mustJSON marshals a request body for postBoth.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

func getStats(t *testing.T, client *http.Client, base string) Stats {
	t.Helper()
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestReleaseBitIdenticalToRunAndCacheWarm is the acceptance test: N
// concurrent POST /v1/release requests over the same model release
// bit-identical histograms to release.Run with the same seed, and the
// stats endpoint shows cache hits > 0 from the second request on.
func TestReleaseBitIdenticalToRunAndCacheWarm(t *testing.T) {
	sessions := sampleSessions(t)
	for _, mech := range []string{release.MechMQMExact, release.MechMQMApprox} {
		t.Run(mech, func(t *testing.T) {
			s := New(Config{})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			cfg := release.Config{Epsilon: 1, Mechanism: mech, Smoothing: 0.5, Seed: 7}
			want, err := release.Run(sessions, cfg)
			if err != nil {
				t.Fatal(err)
			}
			req := ReleaseRequest{Sessions: sessions, Epsilon: 1, Mechanism: mech, Smoothing: 0.5, Seed: 7}

			check := func(body []byte) {
				t.Helper()
				var got release.Report
				if err := json.Unmarshal(body, &got); err != nil {
					t.Fatalf("bad response %s: %v", body, err)
				}
				if !floats.EqSlices(got.Histogram, want.Histogram, 0) {
					t.Fatalf("histogram differs from release.Run:\n  server %v\n  run    %v", got.Histogram, want.Histogram)
				}
				if got.Sigma != want.Sigma || got.NoiseScale != want.NoiseScale || got.K != want.K {
					t.Fatalf("report differs from release.Run:\n  server %+v\n  run    %+v", got, want)
				}
				if got.Cache == nil {
					t.Fatal("server report missing the shared-cache stats block")
				}
			}

			// First request: cold cache.
			resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/release", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			check(body)
			cold := getStats(t, ts.Client(), ts.URL)
			if cold.Cache.Misses == 0 || cold.Cache.Entries == 0 {
				t.Fatalf("cold stats show no cache fill: %+v", cold)
			}

			// N concurrent repeats: warm, all bit-identical.
			const n = 8
			var wg sync.WaitGroup
			bodies := make([][]byte, n)
			codes := make([]int, n)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					r := req
					r.Parallelism = 1 + i%3 // mixed worker asks; results identical
					resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/release", r)
					codes[i], bodies[i] = resp.StatusCode, body
				}(i)
			}
			wg.Wait()
			for i := 0; i < n; i++ {
				if codes[i] != http.StatusOK {
					t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
				}
				check(bodies[i])
			}
			warm := getStats(t, ts.Client(), ts.URL)
			if warm.Cache.Hits == 0 {
				t.Fatalf("repeated model produced no cache hits: %+v", warm)
			}
			if warm.Cache.Misses != cold.Cache.Misses {
				t.Errorf("warm requests re-scored a cached model: %+v -> %+v", cold, warm)
			}
			if warm.RequestsTotal != n+1 || warm.ReleasesTotal != n+1 {
				t.Errorf("request accounting off: %+v", warm)
			}
		})
	}
}

// TestSeriesBody: the raw-text input format of privrelease works over
// HTTP too and matches the parsed-sessions route bit for bit.
func TestSeriesBody(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	series := "0 1 0 1 1\n\n1 0 0\n"
	sessions, err := release.ParseSeries(strings.NewReader(series))
	if err != nil {
		t.Fatal(err)
	}
	want, err := release.Run(sessions, release.Config{Epsilon: 1, Mechanism: release.MechMQMExact, Smoothing: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/release",
		ReleaseRequest{Series: series, Epsilon: 1, Mechanism: release.MechMQMExact, Smoothing: 0.5, Seed: 9})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got release.Report
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if !floats.EqSlices(got.Histogram, want.Histogram, 0) {
		t.Errorf("series body diverges from parsed sessions: %v vs %v", got.Histogram, want.Histogram)
	}
}

// TestBatchEndpoint: a mixed batch matches per-request release.Run
// bit for bit, and duplicate fitted models are scored once.
func TestBatchEndpoint(t *testing.T) {
	sessions := sampleSessions(t)
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var reqs []ReleaseRequest
	for i := 0; i < 4; i++ { // four duplicates of one model
		reqs = append(reqs, ReleaseRequest{Sessions: sessions, Epsilon: 1, Mechanism: release.MechMQMExact, Smoothing: 0.5, Seed: uint64(10 + i)})
	}
	reqs = append(reqs,
		ReleaseRequest{Sessions: sessions, Epsilon: 1, Mechanism: release.MechMQMApprox, Smoothing: 0.5, Seed: 20},
		ReleaseRequest{Sessions: sessions, Epsilon: 2, Mechanism: release.MechMQMExact, Smoothing: 0.5, Seed: 21},
		ReleaseRequest{Sessions: sessions, Epsilon: 1, Mechanism: release.MechDP, Seed: 22},
		ReleaseRequest{Sessions: sessions, Epsilon: 1, Mechanism: release.MechGroupDP, Seed: 23},
	)
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/release/batch", BatchRequest{Requests: reqs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got BatchResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Reports) != len(reqs) {
		t.Fatalf("got %d reports for %d requests", len(got.Reports), len(reqs))
	}
	for i, req := range reqs {
		want, err := release.Run(sessions, release.Config{
			Epsilon: req.Epsilon, Mechanism: req.Mechanism, Smoothing: req.Smoothing, Seed: req.Seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !floats.EqSlices(got.Reports[i].Histogram, want.Histogram, 0) || got.Reports[i].Sigma != want.Sigma {
			t.Errorf("batch report %d diverges from release.Run:\n  batch %+v\n  run   %+v", i, got.Reports[i], want)
		}
	}
	// Four identical mqm-exact requests at ε=1 dedupe to one scoring
	// unit before the cache is even consulted, so the cold batch pays
	// one miss per distinct (mechanism, ε, model) — 3 here — and zero
	// per-duplicate traffic.
	st := getStats(t, ts.Client(), ts.URL)
	if st.Cache.Misses != 3 {
		t.Errorf("cold batch misses = %d, want 3 distinct scoring units: %+v", st.Cache.Misses, st)
	}
	if st.ReleasesTotal != int64(len(reqs)) || st.RequestsTotal != 1 {
		t.Errorf("batch accounting off: %+v", st)
	}

	// A second identical batch is served fully from the warm cache.
	before := s.Cache().Stats()
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/release/batch", BatchRequest{Requests: reqs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	after := s.Cache().Stats()
	if after.Misses != before.Misses {
		t.Errorf("warm batch re-scored: misses %d -> %d", before.Misses, after.Misses)
	}
	if after.Hits <= before.Hits {
		t.Errorf("warm batch hit nothing: hits %d -> %d", before.Hits, after.Hits)
	}
}

// TestBadRequests: every malformed body is a 400 with a JSON error,
// including the degenerate configured-K regression.
func TestBadRequests(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := map[string]string{
		"malformed":        `{"epsilon": `,
		"unknown field":    `{"epsilon": 1, "mechanism": "dp", "series": "0 1", "bogus": 3}`,
		"no data":          `{"epsilon": 1, "mechanism": "dp"}`,
		"both inputs":      `{"epsilon": 1, "mechanism": "dp", "series": "0 1", "sessions": [[0,1]]}`,
		"bad mechanism":    `{"epsilon": 1, "mechanism": "nope", "series": "0 1"}`,
		"bad epsilon":      `{"epsilon": -1, "mechanism": "dp", "series": "0 1"}`,
		"degenerate k":     `{"epsilon": 1, "k": 1, "mechanism": "dp", "series": "0 0"}`,
		"state above k":    `{"epsilon": 1, "k": 2, "mechanism": "dp", "series": "0 5"}`,
		"bad series value": `{"epsilon": 1, "mechanism": "dp", "series": "0 x"}`,
		"empty session":    `{"epsilon": 1, "mechanism": "dp", "sessions": [[0,1],[]]}`,
		"all empty":        `{"epsilon": 1, "mechanism": "dp", "sessions": [[]]}`,
		"subnormal eps":    `{"epsilon": 5e-324, "mechanism": "mqm-exact", "smoothing": 0.5, "sessions": [[0,1,0,1]]}`,
		"trailing data":    `{"epsilon": 1, "mechanism": "dp", "series": "0 1"}{"epsilon": 99}`,
	}
	for name, body := range cases {
		if resp, out := postBoth(t, ts.Client(), ts.URL, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, resp.StatusCode, out)
		}
	}
	// A request that parses but cannot be released — a normal-but-tiny
	// ε whose noise scale overflows after scoring — is the client's
	// fault: 422, never a 500 (and never a handler panic).
	resp422, body422 := postBoth(t, ts.Client(), ts.URL, mustJSON(t, ReleaseRequest{
		Series: strings.Repeat("0 1 ", 20), Epsilon: 1e-307, Mechanism: release.MechMQMExact, Smoothing: 0.5,
	}))
	if resp422.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("overflowing noise scale: status %d, want 422 (%s)", resp422.StatusCode, body422)
	}

	// A batch fails whole with the offending index.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/release/batch", BatchRequest{Requests: []ReleaseRequest{
		{Series: "0 1 0", Epsilon: 1, Mechanism: release.MechDP},
		{Series: "0 1 0", Epsilon: 0, Mechanism: release.MechDP},
	}})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "request 1") {
		t.Errorf("batch error: status %d body %s, want 400 naming request 1", resp.StatusCode, body)
	}
}

// TestGracefulShutdownDrains: Shutdown returns only after an in-flight
// release finishes, and that release still gets its full response.
func TestGracefulShutdownDrains(t *testing.T) {
	s := New(Config{})
	started := make(chan struct{})
	unblock := make(chan struct{})
	var once sync.Once
	s.scoringHook = func() {
		once.Do(func() { close(started) })
		<-unblock
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Shutdown

	base := "http://" + ln.Addr().String()
	type result struct {
		code int
		body []byte
	}
	done := make(chan result, 1)
	go func() {
		blob, _ := json.Marshal(ReleaseRequest{Series: "0 1 0 1 1 0", Epsilon: 1, Mechanism: release.MechMQMExact, Smoothing: 0.5, Seed: 3})
		resp, err := http.Post(base+"/v1/release", "application/json", bytes.NewReader(blob))
		if err != nil {
			done <- result{code: -1, body: []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		done <- result{code: resp.StatusCode, body: body}
	}()

	<-started // the release is now in flight
	if got := s.Stats().InFlight; got != 1 {
		t.Errorf("in_flight = %d with a blocked release", got)
	}
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(t.Context()) }()
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) with a release still in flight", err)
	case <-time.After(150 * time.Millisecond):
	}
	close(unblock)
	res := <-done
	if res.code != http.StatusOK {
		t.Fatalf("drained release: status %d: %s", res.code, res.body)
	}
	var rep release.Report
	if err := json.Unmarshal(res.body, &rep); err != nil || len(rep.Histogram) == 0 {
		t.Fatalf("drained release body %s: %v", res.body, err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestWorkerBudgetNeverOversubscribed: with a budget of 2, concurrent
// greedy requests are each granted at most the whole budget and the
// in-use gauge never exceeds it.
func TestWorkerBudgetNeverOversubscribed(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	monitorDone := make(chan struct{})
	var overshoot atomic.Int64
	go func() {
		defer close(monitorDone)
		ticker := time.NewTicker(100 * time.Microsecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
			}
			if u := int64(s.budget.inUse()); u > 2 && u > overshoot.Load() {
				overshoot.Store(u)
			}
		}
	}()

	sessions := sampleSessions(t)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := ReleaseRequest{Sessions: sessions, Epsilon: 1 + float64(i)*0.25, Mechanism: release.MechMQMExact, Smoothing: 0.5, Seed: uint64(i)}
			resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/release", req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	<-monitorDone
	if got := overshoot.Load(); got != 0 {
		t.Errorf("worker budget oversubscribed: %d in use with budget 2", got)
	}
	st := getStats(t, ts.Client(), ts.URL)
	if st.Workers.Budget != 2 || st.Workers.InUse != 0 {
		t.Errorf("workers gauge after drain: %+v", st.Workers)
	}
}

func TestStatsShape(t *testing.T) {
	s := New(Config{Workers: 3})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	st := getStats(t, ts.Client(), ts.URL)
	if st.Workers.Budget != 3 || st.UptimeSeconds < 0 || st.RequestsTotal != 0 || st.InFlight != 0 {
		t.Errorf("fresh stats: %+v", st)
	}
	// Wrong method on a known route.
	resp, err := ts.Client().Get(ts.URL + "/v1/release")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/release: status %d, want 405", resp.StatusCode)
	}
}

// TestInfluenceTableStats: /v1/stats surfaces the per-matrix
// influence-table layer beneath the score cache. Two exact-scored
// releases over one model at different ε miss the score cache twice
// (ε is part of the score fingerprint) but share the matrix's warmed
// log-ratio tables, so the block must show exactly one table miss, at
// least one hit, one matrix, and a nonzero cached power count.
func TestInfluenceTableStats(t *testing.T) {
	sessions := sampleSessions(t)
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, eps := range []float64{1, 1.5} {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/release",
			ReleaseRequest{Sessions: sessions, Epsilon: eps, Mechanism: release.MechMQMExact, Smoothing: 0.5, Seed: 7})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ε=%g: status %d: %s", eps, resp.StatusCode, body)
		}
	}
	st := getStats(t, ts.Client(), ts.URL)
	it := st.InfluenceTables
	if it.Misses != 1 || it.Hits < 1 || it.Matrices != 1 || it.Powers < 1 {
		t.Errorf("influence table stats after two ε over one model: %+v", it)
	}
}

// TestPreWarmedCache: a server constructed around an existing cache
// starts warm — the restart story for long-lived deployments.
func TestPreWarmedCache(t *testing.T) {
	sessions := sampleSessions(t)
	cache := release.NewScoreCache()
	if _, err := release.Run(sessions, release.Config{Epsilon: 1, Mechanism: release.MechMQMExact, Smoothing: 0.5, Seed: 7, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	missesBefore := cache.Stats().Misses

	s := New(Config{Cache: cache})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/release",
		ReleaseRequest{Sessions: sessions, Epsilon: 1, Mechanism: release.MechMQMExact, Smoothing: 0.5, Seed: 7})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	st := s.Stats()
	if st.Cache.Misses != missesBefore {
		t.Errorf("pre-warmed server re-scored: misses %d -> %d", missesBefore, st.Cache.Misses)
	}
	if st.Cache.Hits == 0 {
		t.Errorf("pre-warmed server hit nothing: %+v", st.Cache)
	}
}

func ExampleServer() {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	blob := `{"series": "0 1 0 1 1 0 1 0", "epsilon": 1, "mechanism": "mqm-exact", "smoothing": 0.5, "seed": 4}`
	resp, err := http.Post(ts.URL+"/v1/release", "application/json", strings.NewReader(blob))
	if err != nil {
		fmt.Println(err)
		return
	}
	defer resp.Body.Close()
	var rep release.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("mechanism=%s k=%d sessions=%d σ=%g\n", rep.Mechanism, rep.K, rep.Sessions, rep.Sigma)
	// Output: mechanism=mqm-exact k=2 sessions=1 σ=8
}
