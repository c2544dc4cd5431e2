package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// scrapeMetrics fetches GET /metrics and returns the exposition text.
func scrapeMetrics(t *testing.T, client *http.Client, base string) string {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("GET /metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue finds the sample for the exact series (name plus
// rendered label set) in an exposition and returns its value.
func metricValue(t *testing.T, exposition, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		rest, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			t.Fatalf("series %s: bad value %q", series, rest)
		}
		return v
	}
	t.Fatalf("series %s not found in exposition:\n%s", series, exposition)
	return 0
}

// TestMetricsEndToEnd drives release traffic (singles, a batch, an
// accounted session) and asserts the /metrics exposition reports it:
// the labeled release counter matches the traffic mix, the finish-stage
// histogram count equals total releases, the request counter carries
// endpoint and status labels, and the accountant collectors surface
// the session.
func TestMetricsEndToEnd(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	sessions := sampleSessions(t)

	for i := 0; i < 3; i++ {
		resp, out := postJSON(t, ts.Client(), ts.URL+"/v1/release", ReleaseRequest{
			Sessions: sessions, Epsilon: 1, Mechanism: "dp", Seed: 7,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("release %d: status %d: %s", i, resp.StatusCode, out)
		}
	}
	resp, out := postJSON(t, ts.Client(), ts.URL+"/v1/release", ReleaseRequest{
		Sessions: sessions, Epsilon: 1, Mechanism: "dp", Seed: 7, Accountant: "sess-a",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("accounted release: status %d: %s", resp.StatusCode, out)
	}
	resp, out = postJSON(t, ts.Client(), ts.URL+"/v1/release/batch", BatchRequest{
		Requests: []ReleaseRequest{
			{Sessions: sessions, Epsilon: 1, Mechanism: "dp", Seed: 7},
			{Sessions: sessions, Epsilon: 1, Mechanism: "group-dp", Seed: 7},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, out)
	}
	// One bad request, so the status label has a non-200 series too.
	resp, _ = postJSON(t, ts.Client(), ts.URL+"/v1/release", ReleaseRequest{Epsilon: 1, Mechanism: "dp"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad release: status %d", resp.StatusCode)
	}

	m := scrapeMetrics(t, ts.Client(), ts.URL)
	for _, want := range []string{
		"# HELP pufferd_releases_total ",
		"# TYPE pufferd_releases_total counter",
		"# TYPE pufferd_stage_duration_seconds histogram",
		"# TYPE pufferd_request_duration_seconds histogram",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if got := metricValue(t, m, `pufferd_releases_total{mechanism="dp",substrate="chain"}`); got != 5 {
		t.Errorf("dp releases = %v, want 5", got)
	}
	if got := metricValue(t, m, `pufferd_releases_total{mechanism="group-dp",substrate="chain"}`); got != 1 {
		t.Errorf("group-dp releases = %v, want 1", got)
	}
	// Zero-valued series are pre-created so ratio queries never miss a
	// term.
	if got := metricValue(t, m, `pufferd_releases_total{mechanism="kantorovich",substrate="network"}`); got != 0 {
		t.Errorf("unused release series = %v, want 0", got)
	}
	if got := metricValue(t, m, `pufferd_requests_total{endpoint="release",status="200"}`); got != 4 {
		t.Errorf("release 200s = %v, want 4", got)
	}
	if got := metricValue(t, m, `pufferd_requests_total{endpoint="release",status="400"}`); got != 1 {
		t.Errorf("release 400s = %v, want 1", got)
	}
	if got := metricValue(t, m, `pufferd_requests_total{endpoint="batch",status="200"}`); got != 1 {
		t.Errorf("batch 200s = %v, want 1", got)
	}
	// Every release runs the finish stage exactly once; traffic has
	// quiesced, so the histogram count equals the release total.
	if got := metricValue(t, m, `pufferd_stage_duration_seconds_count{stage="finish"}`); got != 6 {
		t.Errorf("finish stage count = %v, want 6", got)
	}
	if got := metricValue(t, m, `pufferd_accountant_releases_total{session="sess-a"}`); got != 1 {
		t.Errorf("session releases = %v, want 1", got)
	}
	if eps := metricValue(t, m, `pufferd_accountant_epsilon{session="sess-a"}`); eps <= 0 {
		t.Errorf("session ε = %v, want > 0", eps)
	}
	if d := metricValue(t, m, `pufferd_accountant_delta{session="sess-a"}`); d <= 0 {
		t.Errorf("session δ = %v, want > 0", d)
	}
	if b := metricValue(t, m, "pufferd_workers_budget"); b != 2 {
		t.Errorf("workers budget = %v, want 2", b)
	}
	if up := metricValue(t, m, "pufferd_uptime_seconds"); up <= 0 {
		t.Errorf("uptime = %v, want > 0", up)
	}
	misses := metricValue(t, m, "pufferd_score_cache_misses_total")
	hits := metricValue(t, m, "pufferd_score_cache_hits_total")
	if misses < 0 || hits < 0 {
		t.Errorf("cache counters hits=%v misses=%v", hits, misses)
	}
}

// TestMetricsConcurrentScrapes hammers /metrics and /v1/stats while
// release traffic is in flight (the race detector owns the memory
// half), asserts every mid-traffic stats snapshot is consistent enough
// for ratio math, and pins the quiesced histogram counts to the
// request totals.
func TestMetricsConcurrentScrapes(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	sessions := sampleSessions(t)

	const releases = 24
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m := scrapeMetrics(t, ts.Client(), ts.URL)
				if !strings.Contains(m, "pufferd_releases_total") {
					t.Error("scrape lost the release counter")
				}
				st := getStats(t, ts.Client(), ts.URL)
				var parts int64
				for _, n := range st.ReleasesByMechanism {
					parts += n
				}
				// The read-side ordering guarantee: parts before totals.
				if parts > st.ReleasesTotal {
					t.Errorf("torn stats: sum(by_mechanism)=%d > releases_total=%d", parts, st.ReleasesTotal)
				}
				if st.ReleasesTotal > st.RequestsTotal {
					t.Errorf("torn stats: releases_total=%d > requests_total=%d", st.ReleasesTotal, st.RequestsTotal)
				}
			}
		}()
	}
	var reqWG sync.WaitGroup
	for i := 0; i < releases; i++ {
		reqWG.Add(1)
		go func(i int) {
			defer reqWG.Done()
			resp, out := postJSON(t, ts.Client(), ts.URL+"/v1/release", ReleaseRequest{
				Sessions: sessions, Epsilon: 1, Mechanism: "dp", Seed: uint64(i),
			})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("release %d: status %d: %s", i, resp.StatusCode, out)
			}
		}(i)
	}
	reqWG.Wait()
	close(stop)
	wg.Wait()

	// Quiesced: the histogram counts must sum to the request totals
	// exactly.
	m := scrapeMetrics(t, ts.Client(), ts.URL)
	if got := metricValue(t, m, `pufferd_releases_total{mechanism="dp",substrate="chain"}`); got != releases {
		t.Errorf("dp releases = %v, want %d", got, releases)
	}
	for _, stage := range []string{"prepare", "ceiling", "noise", "finish", "journal"} {
		series := fmt.Sprintf(`pufferd_stage_duration_seconds_count{stage=%q}`, stage)
		if got := metricValue(t, m, series); got != releases {
			t.Errorf("stage %s count = %v, want %d", stage, got, releases)
		}
	}
	if got := metricValue(t, m, `pufferd_request_duration_seconds_count{endpoint="release"}`); got != releases {
		t.Errorf("release duration count = %v, want %d", got, releases)
	}
	st := getStats(t, ts.Client(), ts.URL)
	if st.ReleasesTotal != releases {
		t.Errorf("stats releases_total = %d, want %d", st.ReleasesTotal, releases)
	}
}

// TestTracesRecent asserts the recent-traces ring serves finished
// request traces newest first, with the pipeline stages as spans and
// the handler's attributes attached.
func TestTracesRecent(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	sessions := sampleSessions(t)

	resp, out := postJSON(t, ts.Client(), ts.URL+"/v1/release", ReleaseRequest{
		Sessions: sessions, Epsilon: 1, Mechanism: "mqm-approx", Seed: 3, Accountant: "traced",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("release: status %d: %s", resp.StatusCode, out)
	}

	r, err := ts.Client().Get(ts.URL + "/v1/traces/recent")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var tr TracesResponse
	if err := json.NewDecoder(r.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(tr.Traces))
	}
	got := tr.Traces[0]
	if got.Name != "release" || got.ID == "" {
		t.Errorf("trace header: %+v", got)
	}
	if got.DurationMS <= 0 {
		t.Errorf("trace duration_ms = %v", got.DurationMS)
	}
	for k, want := range map[string]string{
		"mechanism": "mqm-approx", "substrate": "chain", "session": "traced", "status": "200",
	} {
		if got.Attrs[k] != want {
			t.Errorf("attr %s = %q, want %q", k, got.Attrs[k], want)
		}
	}
	seen := map[string]bool{}
	for _, sp := range got.Spans {
		seen[sp.Name] = true
		if sp.Error != "" {
			t.Errorf("span %s failed: %s", sp.Name, sp.Error)
		}
	}
	// mqm-approx with an accountant exercises every stage.
	for _, stage := range stageNames {
		if !seen[stage] {
			t.Errorf("trace missing stage %s (saw %v)", stage, seen)
		}
	}
}

// TestRequestIDLookup: every traced response names its trace in
// X-Request-Id, refused requests included; GET /v1/traces/recent?id=
// serves that trace alone, and 404s once the ring has evicted it.
func TestRequestIDLookup(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	lookup := func(id string) (int, TracesResponse) {
		t.Helper()
		r, err := ts.Client().Get(ts.URL + "/v1/traces/recent?id=" + url.QueryEscape(id))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var tr TracesResponse
		if r.StatusCode == http.StatusOK {
			if err := json.NewDecoder(r.Body).Decode(&tr); err != nil {
				t.Fatal(err)
			}
		}
		return r.StatusCode, tr
	}
	bad := func() string {
		t.Helper()
		r, err := ts.Client().Post(ts.URL+"/v1/release", "application/json", strings.NewReader("{"))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed body: status %d", r.StatusCode)
		}
		return r.Header.Get("X-Request-Id")
	}

	resp, out := postJSON(t, ts.Client(), ts.URL+"/v1/release", ReleaseRequest{
		Sessions: sampleSessions(t), Epsilon: 1, Mechanism: "dp", Seed: 5,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("release: status %d: %s", resp.StatusCode, out)
	}
	id := resp.Header.Get("X-Request-Id")
	if id == "" {
		t.Fatal("release response carries no X-Request-Id")
	}
	badID := bad()
	if badID == "" || badID == id {
		t.Fatalf("refused request's X-Request-Id %q (release's %q)", badID, id)
	}
	if r, err := ts.Client().Get(ts.URL + "/v1/stats"); err != nil {
		t.Fatal(err)
	} else if r.Body.Close(); r.Header.Get("X-Request-Id") != "" {
		t.Error("untraced endpoint sent an X-Request-Id")
	}

	code, tr := lookup(id)
	if code != http.StatusOK || len(tr.Traces) != 1 {
		t.Fatalf("lookup %s: status %d, %d traces", id, code, len(tr.Traces))
	}
	got := tr.Traces[0]
	if got.ID != id || got.Attrs["mechanism"] != "dp" || got.Attrs["status"] != "200" {
		t.Errorf("lookup %s returned %+v", id, got)
	}
	seen := map[string]bool{}
	for _, sp := range got.Spans {
		seen[sp.Name] = true
	}
	for _, stage := range []string{"read", "decode", "prepare", "finish", "encode"} {
		if !seen[stage] {
			t.Errorf("looked-up trace lacks stage %s (saw %v)", stage, seen)
		}
	}
	if code, tr := lookup(badID); code != http.StatusOK || tr.Traces[0].Attrs["status"] != "400" {
		t.Errorf("lookup of the refused request: status %d, %+v", code, tr.Traces)
	}
	if code, _ := lookup("nope"); code != http.StatusNotFound {
		t.Errorf("lookup of an unknown ID: status %d, want 404", code)
	}

	// A full ring of newer traces evicts the release's.
	for i := 0; i < traceRingCapacity; i++ {
		bad()
	}
	if code, _ := lookup(id); code != http.StatusNotFound {
		t.Errorf("lookup of an evicted trace: status %d, want 404", code)
	}
}

// TestSlowRequestLog asserts the structured request log: every traced
// request logs at Info with its trace id and attributes, and a request
// over the slow threshold logs at Warn with per-stage durations.
func TestSlowRequestLog(t *testing.T) {
	var buf bytes.Buffer
	s := New(Config{
		Workers:     1,
		Logger:      slog.New(slog.NewTextHandler(&buf, nil)),
		SlowRequest: time.Nanosecond, // every request is slow
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, out := postJSON(t, ts.Client(), ts.URL+"/v1/release", ReleaseRequest{
		Sessions: sampleSessions(t), Epsilon: 1, Mechanism: "dp", Seed: 11,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("release: status %d: %s", resp.StatusCode, out)
	}
	log := buf.String()
	for _, want := range []string{
		"level=WARN", `msg="slow request"`, "trace=t", "endpoint=release",
		"status=200", "mechanism=dp", "substrate=chain", "stage_finish=",
	} {
		if !strings.Contains(log, want) {
			t.Errorf("slow-request log missing %q:\n%s", want, log)
		}
	}

	// Below the threshold the same request logs at Info without stage
	// timings.
	buf.Reset()
	s2 := New(Config{
		Workers:     1,
		Logger:      slog.New(slog.NewTextHandler(&buf, nil)),
		SlowRequest: time.Hour,
	})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp, out = postJSON(t, ts2.Client(), ts2.URL+"/v1/release", ReleaseRequest{
		Sessions: sampleSessions(t), Epsilon: 1, Mechanism: "dp", Seed: 11,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("release: status %d: %s", resp.StatusCode, out)
	}
	log = buf.String()
	if !strings.Contains(log, "level=INFO") || !strings.Contains(log, "msg=request") {
		t.Errorf("fast request did not log at Info:\n%s", log)
	}
	if strings.Contains(log, "stage_finish=") {
		t.Errorf("fast request leaked stage timings:\n%s", log)
	}
}
