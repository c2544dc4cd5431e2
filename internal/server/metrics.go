package server

import (
	"maps"
	"time"

	"pufferfish/internal/accounting"
	"pufferfish/internal/obs"
)

// stageNames pins the release pipeline's stage vocabulary. Handlers
// record spans with exactly these names (release owns prepare, noise,
// finish, journal; the server owns read, decode, ceiling, wait, score,
// encode), and the stage-latency histogram pre-creates every series so
// a scrape sees all stages from the first request, zero-valued until
// traffic exercises them.
var stageNames = []string{"read", "decode", "prepare", "ceiling", "wait", "score", "noise", "finish", "journal", "encode"}

// serverMetrics holds the hot-path instrumented families; everything
// that already has a counter elsewhere (cache, budget, ledgers, WAL)
// is bridged with scrape-time collectors in newServerMetrics instead,
// so no subsystem keeps books twice.
type serverMetrics struct {
	// requests counts HTTP requests by endpoint and numeric status.
	requests *obs.CounterVec
	// releases counts successful releases by mechanism and substrate;
	// it is the only release count, and Stats reads releases_total and
	// both breakdowns from it.
	releases *obs.CounterVec
	// reqDur is end-to-end handler latency per endpoint.
	reqDur *obs.HistogramVec
	// stageDur is per-stage latency from trace spans; failed spans are
	// excluded, so a stage's _count equals its successes — in
	// particular, finish's _count equals pufferd_releases_total once
	// traffic quiesces.
	stageDur *obs.HistogramVec
}

// newServerMetrics registers the full pufferd metric catalogue on reg
// and wires the scrape-time bridges into s. It runs last in New, when
// every subsystem the collectors read is in place.
func newServerMetrics(s *Server, reg *obs.Registry) *serverMetrics {
	m := &serverMetrics{
		requests: reg.Counter("pufferd_requests_total",
			"HTTP requests by endpoint and status code.", "endpoint", "status"),
		releases: reg.Counter("pufferd_releases_total",
			"Successful releases by mechanism and substrate.", "mechanism", "substrate"),
		reqDur: reg.Histogram("pufferd_request_duration_seconds",
			"End-to-end request latency by endpoint.", nil, "endpoint"),
		stageDur: reg.Histogram("pufferd_stage_duration_seconds",
			"Release pipeline stage latency (successful stages only).", nil, "stage"),
	}
	// Pre-create the enumerable series so ratios computed from a scrape
	// never miss a zero-valued term.
	for _, mech := range mechanisms {
		for _, sub := range substrates {
			m.releases.With(mech, sub)
		}
	}
	for _, stage := range stageNames {
		m.stageDur.With(stage)
	}

	reg.GaugeFunc("pufferd_uptime_seconds",
		"Seconds since the server was constructed.",
		func() float64 { return time.Since(s.started).Seconds() })
	reg.GaugeFunc("pufferd_in_flight",
		"Requests currently being handled.",
		func() float64 { return float64(s.inFlight.Load()) })

	reg.CounterFunc("pufferd_score_cache_hits_total",
		"Score cache lookups served from cache.",
		func() float64 { return float64(s.cache.Stats().Hits) })
	reg.CounterFunc("pufferd_score_cache_misses_total",
		"Score cache lookups that computed fresh.",
		func() float64 { return float64(s.cache.Stats().Misses) })
	reg.GaugeFunc("pufferd_score_cache_entries",
		"Entries held by the score cache.",
		func() float64 { return float64(s.cache.Len()) })
	reg.CounterFunc("pufferd_influence_table_hits_total",
		"Influence-table lookups that reused warmed log-ratio tables.",
		func() float64 { return float64(s.cache.TableStats().Hits) })
	reg.CounterFunc("pufferd_influence_table_misses_total",
		"Influence-table lookups that built tables fresh.",
		func() float64 { return float64(s.cache.TableStats().Misses) })
	reg.GaugeFunc("pufferd_influence_matrices",
		"Distinct transition matrices with cached influence tables.",
		func() float64 { return float64(s.cache.TableStats().Matrices) })
	reg.GaugeFunc("pufferd_influence_table_rows",
		"Cached influence-table rows across all matrices.",
		func() float64 { return float64(s.cache.TableStats().Powers) })

	reg.GaugeFunc("pufferd_workers_budget",
		"Global scoring-worker budget.",
		func() float64 { return float64(s.budget.total) })
	reg.GaugeFunc("pufferd_workers_in_use",
		"Scoring workers currently granted.",
		func() float64 { return float64(s.budget.inUse()) })
	reg.GaugeFunc("pufferd_workers_queued",
		"Requests blocked waiting for a scoring worker.",
		func() float64 { return float64(s.budget.queued()) })

	reg.CounterFunc("pufferd_budget_refusals_total",
		"Releases refused by an accountant session's budget ceiling.",
		func() float64 { return float64(s.budgetRefusals.Load()) })
	reg.CounterFunc("pufferd_session_refusals_total",
		"Requests refused by the accountant-session cap.",
		func() float64 { return float64(s.sessionRefusals.Load()) })
	reg.CounterFunc("pufferd_shed_total",
		"Scoring requests shed because the worker queue was full.",
		func() float64 { return float64(s.shedTotal.Load()) })

	if s.wal != nil {
		// The Writer observes into these histograms inside Append, so
		// the unlabeled series must exist before traffic; GaugeFunc
		// bridges cover the cheap monotone state.
		appendLat := reg.Histogram("pufferd_wal_append_seconds",
			"WAL record append latency (encode + write + fsync).", nil)
		fsyncLat := reg.Histogram("pufferd_wal_fsync_seconds",
			"WAL fsync latency within each append.", nil)
		s.wal.Instrument(appendLat.With(), fsyncLat.With())
		reg.GaugeFunc("pufferd_wal_last_seq",
			"Sequence number of the newest durable WAL record.",
			func() float64 { return float64(s.wal.LastSeq()) })
		reg.CounterFunc("pufferd_wal_appends_total",
			"WAL records journaled since this process opened the log.",
			func() float64 { return float64(s.wal.Appends()) })
	}

	reg.Collect("pufferd_accountant_epsilon",
		"Cumulative RDP-optimized ε per accountant session.", "gauge",
		[]string{"session"}, func(emit func([]string, float64)) {
			for name, a := range s.accountantStates() {
				emit([]string{name}, a.Epsilon)
			}
		})
	reg.Collect("pufferd_accountant_delta",
		"The δ at which each session's ε is quoted.", "gauge",
		[]string{"session"}, func(emit func([]string, float64)) {
			for name, a := range s.accountantStates() {
				emit([]string{name}, a.Delta)
			}
		})
	reg.Collect("pufferd_accountant_releases_total",
		"Releases charged to each accountant session.", "counter",
		[]string{"session"}, func(emit func([]string, float64)) {
			for name, a := range s.accountantStates() {
				emit([]string{name}, float64(a.Releases))
			}
		})
	return m
}

// accountantStates reads every named session's budget for /v1/stats
// and the accountant collectors. Ledger pointers are copied under amu;
// each ledger's State — one locked read, so its figures never mix two
// ledger states — is taken outside it, since a cold ε conversion can do
// an α-grid scan.
func (s *Server) accountantStates() map[string]accounting.State {
	s.amu.Lock()
	leds := maps.Clone(s.accountants)
	s.amu.Unlock()
	if len(leds) == 0 {
		return nil
	}
	out := make(map[string]accounting.State, len(leds))
	for name, led := range leds {
		out[name] = led.State()
	}
	return out
}
