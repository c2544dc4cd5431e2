package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"pufferfish/internal/accounting"
	"pufferfish/internal/accounting/wal"
	"pufferfish/internal/bayes"
	"pufferfish/internal/core"
	"pufferfish/internal/obs"
	"pufferfish/internal/release"
	"pufferfish/internal/server"
)

// The traced run. Each request of the workload's sequence is replayed at
// concurrency 1 on two twin states built the same way: (a) over
// loopback HTTP into a server, and (b) through the public call of each
// layer, with a span around every call. The spans come from this file
// only; nothing is added inside the program. (a)'s latency minus the sum
// of (b)'s top-level spans is server.unattributed_us: transport,
// net/http, handler glue and the server's own telemetry.

// span is one timed call. Times are nanoseconds since the run started.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a request's root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	req   int
	spans []span
	open  []int // indices of open spans, innermost last
}

func (t *tracer) begin(name string) int {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{Req: t.req, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(k int) {
	t.spans[k].End = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// Span and row names. A row is named after the layer whose public call
// its span times.
const (
	spanHTTP       = "server.http"
	spanTwin       = "twin"
	rowDecode      = "server.decode_us"
	rowParse       = "bayes.parse_us"
	rowPrepare     = "release.prepare_us"
	rowCheck       = "accounting.check_us"
	rowScoreHit    = "core.score_hit_us"
	rowColdMQM     = "core.score_cold_ms.mqm-exact"
	rowColdChain   = "kantorovich.score_cold_ms.chain"
	rowColdNetwork = "kantorovich.score_cold_ms.network"
	rowFinish      = "release.finish_us"
	rowEncode      = "server.encode_us"
	rowAppend      = "wal.append_us" // a child of release.finish_us
	rowResidual    = "server.unattributed_us"
	rowHTTP        = "server.http_us"
)

// topRows are the twin's top-level rows, in pipeline order; with the
// residual they sum to the HTTP total of every request.
var topRows = []string{rowDecode, rowParse, rowPrepare, rowCheck, rowScoreHit, rowColdMQM, rowColdChain, rowColdNetwork, rowFinish, rowEncode}

// timedJournal is the timing wrapper around the twin's *wal.Writer,
// installed with Ledger.SetJournal.
type timedJournal struct {
	w  *wal.Writer
	tr *tracer
}

func (j *timedJournal) Append(session string, e accounting.Entry) (uint64, error) {
	k := j.tr.begin(rowAppend)
	defer j.tr.end(k)
	return j.w.Append(session, e)
}

func (j *timedJournal) Applied(seq uint64) { j.w.Applied(seq) }

// twin serves requests through the layers' public calls, mirroring the
// server's handlers stage by stage.
type twin struct {
	st state
	tr *tracer
}

// serve handles one request body, a batch or a single release, and
// returns the response body the server would write.
func (t *twin) serve(body []byte, batch bool) ([]byte, error) {
	ctx := context.Background()
	root := t.tr.begin(spanTwin)
	defer t.tr.end(root)

	k := t.tr.begin(rowDecode)
	var reqs []server.ReleaseRequest
	var err error
	if batch {
		var b server.BatchRequest
		err = decodeStrict(body, &b)
		reqs = b.Requests
	} else {
		reqs = make([]server.ReleaseRequest, 1)
		err = decodeStrict(body, &reqs[0])
	}
	t.tr.end(k)
	if err != nil {
		return nil, err
	}

	prepared := make([]*release.Prepared, len(reqs))
	ledgers := make([]*accounting.Ledger, len(reqs))
	for i := range reqs {
		r := &reqs[i]
		cfg := baseConfig(r, t.st.cache)
		if len(r.Network) > 0 {
			k := t.tr.begin(rowParse)
			cfg.Network, err = bayes.ParseJSON(r.Network)
			t.tr.end(k)
			if err != nil {
				return nil, err
			}
		}
		k := t.tr.begin(rowPrepare)
		prepared[i], err = release.PrepareContext(ctx, r.Sessions, cfg)
		t.tr.end(k)
		if err != nil {
			return nil, err
		}
		if r.Accountant != "" {
			led, ok := t.st.ledgers[r.Accountant]
			if !ok {
				return nil, fmt.Errorf("twin: unknown accountant session %q", r.Accountant)
			}
			prepared[i].SetAccountant(led, r.Accountant)
			ledgers[i] = led
		}
	}
	for i, led := range ledgers {
		if led == nil {
			continue
		}
		k := t.tr.begin(rowCheck)
		e, err := prepared[i].PlannedEntry()
		if err == nil {
			err = led.CheckCharge(e)
		}
		t.tr.end(k)
		if err != nil {
			return nil, err
		}
	}
	scores := make([]core.ChainScore, len(prepared))
	for i, p := range prepared {
		if !p.NeedsScore() {
			continue
		}
		p.SetParallelism(1) // the server grants each request's ask of 1
		misses := t.st.cache.Stats().Misses
		k := t.tr.begin(rowScoreHit)
		scores[i], err = p.Score(ctx)
		t.tr.end(k)
		if err != nil {
			return nil, err
		}
		if t.st.cache.Stats().Misses != misses {
			t.tr.spans[k].Name = coldRow(p)
		}
	}
	reports := make([]*release.Report, len(prepared))
	for i, p := range prepared {
		k := t.tr.begin(rowFinish)
		reports[i], err = p.FinishContext(ctx, scores[i])
		t.tr.end(k)
		if err != nil {
			return nil, err
		}
	}

	k = t.tr.begin(rowEncode)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if batch {
		err = enc.Encode(server.BatchResponse{Reports: reports})
	} else {
		err = enc.Encode(reports[0])
	}
	t.tr.end(k)
	return buf.Bytes(), err
}

// coldRow names the row of a score that missed the cache.
func coldRow(p *release.Prepared) string {
	switch {
	case p.Mechanism() == release.MechKantorovich && p.SubstrateKind() == release.SubstrateNetwork:
		return rowColdNetwork
	case p.Mechanism() == release.MechKantorovich:
		return rowColdChain
	}
	return "core.score_cold_ms." + p.Mechanism()
}

// decodeStrict is the server's request decoding: unknown fields are
// refused and the body must hold exactly one JSON value.
func decodeStrict(body []byte, v any) error {
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

// newTwin builds (b)'s state in dir the way set-up builds a server's,
// binds the journal wrapper and ceiling a server would bind, and sends
// the set-up warm-ups through it.
func (h *harness) newTwin(dir string, tr *tracer, fsync *obs.Histogram) (*twin, error) {
	if err := h.materialize(dir); err != nil {
		return nil, err
	}
	st, err := h.restore(dir)
	if err != nil {
		return nil, err
	}
	t := &twin{st: st, tr: tr}
	if st.wal != nil {
		st.wal.Instrument(nil, fsync)
		j := &timedJournal{w: st.wal, tr: tr}
		for name, led := range st.ledgers {
			led.SetJournal(j, name)
			if err := led.SetCeiling(ceilingEps, 0); err != nil {
				return nil, errors.Join(err, st.wal.Close())
			}
		}
	}
	for _, r := range h.w.warmups(h.seed) {
		if _, err := t.serve(r.body(), r.batch); err != nil {
			return nil, errors.Join(err, t.close())
		}
	}
	return t, nil
}

func (t *twin) close() error {
	if t.st.wal != nil {
		return t.st.wal.Close()
	}
	return nil
}

// layerRow is one row of the per-layer table.
type layerRow struct {
	name, unit string
	median     float64 // over the requests where the row occurs
	mean       float64 // over all traced requests, so the means add up
	n          int     // requests where the row occurs
}

// unitOf is a row's unit: ms for cold scores, µs for the rest.
func unitOf(row string) string {
	if strings.Contains(row, "_ms") {
		return "ms"
	}
	return "us"
}

// attribution returns, in µs per traced request, the sum of the
// top-level rows plus the residual, and the HTTP total they add up to.
func (r *tracedResult) attribution() (sum, total float64) {
	for _, row := range r.rows {
		v := row.mean
		if row.unit == "ms" {
			v *= 1e3
		}
		switch row.name {
		case rowHTTP:
			total = v
		case rowAppend: // inside release.finish_us
		default:
			sum += v
		}
	}
	return sum, total
}

// tracedResult is the per-layer table and its context.
type tracedResult struct {
	requests      int
	rows          []layerRow
	fsyncUS       float64
	requestBytes  float64
	responseBytes float64
	spanFile      string
}

// runTraced replays the first h.traced requests in lockstep on a fresh
// server and a fresh twin, and compares their reports bit for bit.
func (h *harness) runTraced(spanFile string) (*tracedResult, error) {
	tr := &tracer{t0: time.Now()}
	dirA := filepath.Join(h.dir, "traced-a")
	if err := h.materialize(dirA); err != nil {
		return nil, err
	}
	a, _, err := h.setUp(dirA)
	if err != nil {
		return nil, err
	}
	fsync := obs.NewHistogram(nil)
	// Warm-up spans belong to no traced request; drop them.
	b, err := h.newTwin(filepath.Join(h.dir, "traced-b"), tr, fsync)
	if err != nil {
		return nil, errors.Join(err, a.close())
	}
	tr.spans = tr.spans[:0]
	res, err := h.lockstep(a, b, tr)
	err = errors.Join(err, a.close(), b.close())
	if err != nil {
		return nil, err
	}
	if s := fsync.Snapshot(); s.Count > 0 {
		res.fsyncUS = s.Sum / float64(s.Count) * 1e6
	}
	res.spanFile = spanFile
	return res, writeSpans(spanFile, tr.spans)
}

func (h *harness) lockstep(a *live, b *twin, tr *tracer) (*tracedResult, error) {
	res := &tracedResult{requests: h.traced}
	var buf bytes.Buffer
	for i := range h.traced {
		tr.req = i
		r := h.w.request(h.seed, streamTimed, i)
		body := r.body()
		var gotA, gotB []byte
		sendA := func() error {
			k := tr.begin(spanHTTP)
			status, err := a.post(r.path(), body, &buf)
			tr.end(k)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d: %s", status, buf.Bytes())
			}
			gotA = slices.Clone(buf.Bytes())
			return err
		}
		sendB := func() (err error) {
			gotB, err = b.serve(body, r.batch)
			return err
		}
		// Alternate which twin goes first, so neither always runs with
		// the other's data in the CPU caches.
		first, second := sendA, sendB
		if i%2 == 1 {
			first, second = sendB, sendA
		}
		if err := first(); err != nil {
			return nil, fmt.Errorf("traced request %d: %w", i, err)
		}
		if err := second(); err != nil {
			return nil, fmt.Errorf("traced request %d: %w", i, err)
		}
		if err := sameResponse(gotA, gotB, r.batch); err != nil {
			return nil, fmt.Errorf("traced request %d: %w: server and twin disagree: %w", i, errGate, err)
		}
		res.requestBytes += float64(len(body)) / float64(h.traced)
		res.responseBytes += float64(len(gotA)) / float64(h.traced)
	}
	res.rows = layerRows(tr.spans, h.traced)
	return res, nil
}

func sameResponse(a, b []byte, batch bool) error {
	ra, err := decodeReports(a, batch)
	if err != nil {
		return err
	}
	rb, err := decodeReports(b, batch)
	if err != nil {
		return err
	}
	if len(ra) != len(rb) {
		return fmt.Errorf("%d reports against %d", len(ra), len(rb))
	}
	for j := range ra {
		if err := sameReport(ra[j], rb[j]); err != nil {
			return err
		}
	}
	return nil
}

// layerRows folds the spans of n requests into per-request row totals:
// each top-level twin span adds to its row, wal appends add to their
// child row, and the residual is the HTTP span minus the top-level sum.
func layerRows(spans []span, n int) []layerRow {
	perReq := make([]map[string]int64, n)
	for i := range perReq {
		perReq[i] = map[string]int64{}
	}
	twinRoot := map[int]int{} // span ID -> request, for twin roots
	for _, s := range spans {
		if s.Name == spanTwin {
			twinRoot[s.ID] = s.Req
		}
	}
	for _, s := range spans {
		row := perReq[s.Req]
		switch {
		case s.Name == spanHTTP:
			row[rowHTTP] += s.dur()
		case s.Name == rowAppend:
			row[rowAppend] += s.dur()
		default:
			if _, ok := twinRoot[s.Parent]; ok {
				row[s.Name] += s.dur()
				row[rowResidual] -= s.dur()
			}
		}
	}
	for _, row := range perReq {
		row[rowResidual] += row[rowHTTP]
	}
	names := []string{rowHTTP}
	names = append(names, topRows...)
	for _, row := range perReq {
		for name := range row {
			if !slices.Contains(names, name) && name != rowResidual && name != rowAppend {
				names = append(names, name)
			}
		}
	}
	names = append(names, rowResidual, rowAppend)
	var rows []layerRow
	for _, name := range names {
		unit := unitOf(name)
		scale := 1e3
		if unit == "ms" {
			scale = 1e6
		}
		var vals []float64
		var sum float64
		for _, row := range perReq {
			if v, ok := row[name]; ok {
				vals = append(vals, float64(v)/scale)
				sum += float64(v) / scale
			}
		}
		rows = append(rows, layerRow{name: name, unit: unit, median: median(vals), mean: sum / float64(n), n: len(vals)})
	}
	return rows
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return errors.Join(err, f.Close())
		}
	}
	return f.Close()
}
