package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"

	"pufferfish/internal/accounting"
	"pufferfish/internal/accounting/wal"
	"pufferfish/internal/faultfs"
	"pufferfish/internal/release"
	"pufferfish/internal/server"
)

// The correctness gate. Every served report must equal, bit for bit,
// release.Run on the regenerated request at the same commit. Only the
// report's cache block is left out: it carries the score cache's
// cumulative traffic counters, which depend on what else the cache has
// served, not on the release.
//
// An accounted report's accounting block also describes its session
// "after this release", and with concurrent clients other charges to
// the session may land before the block is read. So the gate rebuilds
// each session's ledger in the order the journal recorded its charges,
// and requires each block to equal that ledger exactly as it stood
// after some charge: the one the report counts as its release count,
// which must include its own. A block whose fields come from two
// different ledger states matches none and fails the gate. Every
// journaled charge must belong to exactly one served report, and each
// session's final state on the server must equal the replay.

// canon is a report's comparable form: its JSON without the cache block.
// JSON floats round-trip exactly, so equal bytes mean equal bits.
func canon(r *release.Report) ([]byte, error) {
	c := *r
	c.Cache = nil
	return json.Marshal(&c)
}

func sameReport(got, want *release.Report) error {
	g, err := canon(got)
	if err != nil {
		return err
	}
	w, err := canon(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("served report differs from release.Run:\n served %s\n   want %s", g, w)
	}
	return nil
}

// decodeReports parses a response body into its member reports.
func decodeReports(body []byte, batch bool) ([]*release.Report, error) {
	if batch {
		var br server.BatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			return nil, err
		}
		return br.Reports, nil
	}
	var r release.Report
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	return []*release.Report{&r}, nil
}

// gateResult summarizes a passed gate.
type gateResult struct {
	checked     int // member reports compared
	noiseScales []float64
}

// checked is one member report with the request it answered.
type checked struct {
	m   member
	got *release.Report
}

// gate checks every served response of the timed phase against the
// server l that served them, after l is closed.
func (h *harness) gate(responses []served, l *live) (*gateResult, error) {
	var all []checked
	res := &gateResult{}
	for _, s := range responses {
		r := h.w.request(h.seed, streamTimed, s.idx)
		reps, err := decodeReports(s.body, r.batch)
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", s.idx, err)
		}
		if len(reps) != len(r.members) {
			return nil, fmt.Errorf("request %d: %d reports for %d releases", s.idx, len(reps), len(r.members))
		}
		for j, rep := range reps {
			all = append(all, checked{m: r.members[j], got: rep})
			res.noiseScales = append(res.noiseScales, rep.NoiseScale)
		}
	}
	res.checked = len(all)
	if h.prov == nil {
		return res, h.checkUnaccounted(all)
	}
	return res, h.checkAccounted(all, l)
}

// parallel runs f(0..n-1) on h.clients goroutines and returns the first
// error.
func (h *harness) parallel(n int, f func(i int) error) error {
	errs := make([]error, h.clients)
	var wg sync.WaitGroup
	for c := range h.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < n && errs[c] == nil; i += h.clients {
				errs[c] = f(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (h *harness) checkUnaccounted(all []checked) error {
	cache := release.NewScoreCache()
	return h.parallel(len(all), func(i int) error {
		want, err := runMember(&all[i].m, cache, nil)
		if err != nil {
			return err
		}
		return sameReport(all[i].got, want)
	})
}

func runMember(m *member, cache *release.ScoreCache, led *accounting.Ledger) (*release.Report, error) {
	cfg, err := releaseConfig(&m.req, cache)
	if err != nil {
		return nil, err
	}
	if led != nil {
		cfg.Accountant, cfg.AccountantName = led, m.req.Accountant
	}
	return release.Run(m.req.Sessions, cfg)
}

// ledgerState is a session's cumulative accounting after one charge.
type ledgerState struct {
	releases              int
	linear, deltaSum, rdp float64
}

func (h *harness) checkAccounted(all []checked, l *live) error {
	jw, rec, err := wal.Recover(faultfs.OS, nil, l.wal.Path(), 0)
	if err != nil {
		return err
	}
	if err := jw.Close(); err != nil {
		return err
	}
	charges := map[string][]accounting.Entry{}
	for name, es := range h.prov.snapshotted {
		charges[name] = slices.Clone(es)
	}
	for _, r := range rec.Records {
		charges[r.Session] = append(charges[r.Session], r.Entry)
	}
	// Served releases per session; the journal's last len(served)
	// charges of the session must be exactly theirs.
	bySession := map[string][]checked{}
	for _, c := range all {
		bySession[c.m.req.Accountant] = append(bySession[c.m.req.Accountant], c)
	}
	stats := l.srv.Stats().Accountants
	names := slices.Sorted(maps.Keys(charges))
	cache := release.NewScoreCache()
	return h.parallel(len(names), func(i int) error {
		name := names[i]
		led := accounting.NewLedger(accounting.DefaultDelta)
		states := make([]ledgerState, 0, len(charges[name]))
		for _, e := range charges[name] {
			if err := led.Add(e); err != nil {
				return err
			}
			rdp, err := led.Epsilon(led.Delta())
			if err != nil {
				return err
			}
			states = append(states, ledgerState{led.Count(), led.LinearEpsilon(), led.DeltaSum(), rdp})
		}
		cs := bySession[name]
		first := len(charges[name]) - len(cs) // index of the first served charge
		if first < len(h.prov.snapshotted[name]) {
			return fmt.Errorf("session %s: %d served releases but only %d journaled charges", name, len(cs), len(charges[name])-len(h.prov.snapshotted[name]))
		}
		var served, journaled []string
		for _, e := range charges[name][first:] {
			journaled = append(journaled, fmt.Sprintf("%#v", e))
		}
		for _, c := range cs {
			// A fresh ledger records exactly the entry this release charges.
			own := accounting.NewLedger(accounting.DefaultDelta)
			want, err := runMember(&c.m, cache, own)
			if err != nil {
				return err
			}
			served = append(served, fmt.Sprintf("%#v", own.Entries()[0]))
			if c.got.Accounting == nil {
				return fmt.Errorf("session %s: accounted report without an accounting block", name)
			}
			n := c.got.Accounting.Releases
			if n <= first || n > len(states) {
				return fmt.Errorf("session %s: report counts %d releases, outside the %d..%d its charge allows", name, n, first+1, len(states))
			}
			st := states[n-1]
			a := want.Accounting
			a.Releases, a.LinearEpsilon, a.DeltaSum, a.RDPEpsilon = st.releases, st.linear, st.deltaSum, st.rdp
			if err := sameReport(c.got, want); err != nil {
				return fmt.Errorf("session %s: %w", name, err)
			}
		}
		slices.Sort(served)
		slices.Sort(journaled)
		if !slices.Equal(served, journaled) {
			return fmt.Errorf("session %s: journaled charges differ from the served releases", name)
		}
		last := states[len(states)-1]
		st, ok := stats[name]
		if !ok || st.Releases != last.releases || !sameBits(st.LinearEpsilon, last.linear) ||
			!sameBits(st.RDPEpsilon, last.rdp) || !sameBits(st.DeltaSum, last.deltaSum) {
			return fmt.Errorf("session %s: server ledger %+v differs from the replay %+v", name, st, last)
		}
		return nil
	})
}

// plannedEntry is the ledger entry the release of m charges.
func plannedEntry(m *member) (accounting.Entry, error) {
	cfg, err := releaseConfig(&m.req, nil)
	if err != nil {
		return accounting.Entry{}, err
	}
	p, err := release.Prepare(m.req.Sessions, cfg)
	if err != nil {
		return accounting.Entry{}, err
	}
	return p.PlannedEntry()
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
