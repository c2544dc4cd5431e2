// Package release implements the end-to-end pipeline behind
// cmd/privrelease — the shape in which a downstream user consumes this
// library: parse a discrete time series (possibly split into
// independent sessions), fit the empirical chain as the model class Θ,
// compute the chosen mechanism's noise scale, and release the
// relative-frequency histogram with a machine-readable report.
package release

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"

	"pufferfish/internal/accounting"
	"pufferfish/internal/bayes"
	"pufferfish/internal/core"
	"pufferfish/internal/kantorovich"
	"pufferfish/internal/markov"
	"pufferfish/internal/noise"
	"pufferfish/internal/obs"
	"pufferfish/internal/query"
)

// Mechanism names accepted by Config.
const (
	MechMQMExact    = "mqm-exact"
	MechMQMApprox   = "mqm-approx"
	MechGroupDP     = "group-dp"
	MechDP          = "dp"
	MechKantorovich = "kantorovich"
)

// Mechanisms returns every mechanism name Prepare accepts, in a
// stable order. It is the single source of truth the validation
// switch, the serving layer's per-mechanism counters, and the load
// smokes all consume, so a new mechanism cannot be wired in without
// its traffic being visible in /v1/stats.
func Mechanisms() []string {
	return []string{MechMQMExact, MechMQMApprox, MechKantorovich, MechGroupDP, MechDP}
}

// Noise backend names accepted by Config.Noise.
const (
	NoiseLaplace  = "laplace"
	NoiseGaussian = "gaussian"
)

// Substrate kinds accepted by Config.Substrate.
const (
	SubstrateChain   = "chain"
	SubstrateNetwork = "network"
)

// Substrates returns every substrate kind Prepare accepts, in a stable
// order — the source of truth for the serving layer's per-substrate
// counters, mirroring Mechanisms.
func Substrates() []string {
	return []string{SubstrateChain, SubstrateNetwork}
}

// Config selects the release parameters.
type Config struct {
	// Epsilon is the Pufferfish/DP privacy parameter.
	Epsilon float64
	// Delta is the δ of the (ε, δ) guarantee when Noise is "gaussian"
	// (required there, in (0, 1)); it must be 0 for the pure-ε Laplace
	// backend.
	Delta float64
	// K is the number of states; 0 infers max(data)+1.
	K int
	// Mechanism is one of the Mech* constants.
	Mechanism string
	// Substrate selects the secret model: "" or "chain" fits an
	// empirical Markov chain from the data (the classic pipeline);
	// "network" scores the Bayesian network in Network through the
	// generic substrate pipeline instead of fitting anything. The
	// network substrate is Kantorovich-only: the quilt mechanisms'
	// chain-specialized dynamic programs have no network analogue here.
	Substrate string
	// Network is the secret model for Substrate == "network": a
	// polytree Bayesian network with one node per observation and a
	// uniform state cardinality (the release's k). The data must be a
	// single session of exactly N() observations — observation t is the
	// realized value of node t.
	Network *bayes.Network
	// Noise selects the additive backend for MechKantorovich: ""
	// or "laplace" releases with per-coordinate Laplace noise at
	// k·W∞max/ε (pure ε), "gaussian" with per-coordinate Gaussian
	// noise at the per-cell (ε/k, δ/k) analytic calibration (the
	// Pierquin et al. shift-reduction route; its Rényi curve is what
	// the accounting ledger composes). The quilt and DP mechanisms are
	// Laplace-only — their σ is a Laplace scale by construction.
	Noise string
	// Smoothing is the additive smoothing for the empirical chain.
	Smoothing float64
	// Seed drives the Laplace noise.
	Seed uint64
	// Parallelism bounds the score computation's worker count
	// (0 = all CPUs, 1 = serial); the release is identical either way.
	Parallelism int
	// Cache optionally memoizes quilt scores by (class fingerprint, ε,
	// options). Long-lived callers that Run many releases over stable
	// models pay each scoring sweep once; nil disables memoization. The
	// released values are bit-identical either way.
	Cache *ScoreCache
	// Accountant, when set, records this release into the given Rényi
	// ledger and attaches an Accounting block to the report (the
	// cumulative (ε, δ) next to the linear Theorem 4.4 bound). It is
	// purely observational: releases are bit-identical with or without
	// an accountant for a fixed seed.
	Accountant *accounting.Ledger
	// AccountantName labels the report's Accounting block with the
	// ledger's session name (the serving layer's named accountant
	// sessions); it does not affect accounting.
	AccountantName string
}

// ScoreCache re-exports the engine's score cache so CLI callers can
// construct one without importing internal/core.
type ScoreCache = core.ScoreCache

// NewScoreCache returns an empty score cache.
func NewScoreCache() *ScoreCache { return core.NewScoreCache() }

// TableCacheStats re-exports the influence-table layer's counters so
// the server can surface them in /v1/stats.
type TableCacheStats = core.TableCacheStats

// Report is the JSON-serializable release record.
type Report struct {
	Mechanism string `json:"mechanism"`
	// Substrate is the secret model kind the release was scored under
	// ("chain" or "network").
	Substrate string  `json:"substrate"`
	Epsilon   float64 `json:"epsilon"`
	// Delta is the δ of the (ε, δ) guarantee (Gaussian noise only).
	Delta        float64 `json:"delta,omitempty"`
	K            int     `json:"k"`
	Observations int     `json:"observations"`
	Sessions     int     `json:"sessions"`
	Sigma        float64 `json:"sigma,omitempty"`
	NoiseScale   float64 `json:"noise_scale"`
	// Noise names the additive backend ("laplace", "gaussian"); empty
	// for the DP baselines, whose noise is definitionally Laplace.
	Noise       string        `json:"noise,omitempty"`
	ActiveQuilt string        `json:"active_quilt,omitempty"`
	Histogram   []float64     `json:"histogram"`
	Model       *markov.Chain `json:"model,omitempty"`
	// Kantorovich carries the transport diagnostics of MechKantorovich
	// releases (nil for every other mechanism).
	Kantorovich *KantorovichReport `json:"kantorovich,omitempty"`
	// Accounting carries the Rényi ledger's view of this release and
	// of the cumulative budget. Nil exactly when Config.Accountant is
	// unset.
	Accounting *AccountingReport `json:"accounting,omitempty"`
	// Cache reports the score cache's cumulative hit/miss counters as
	// of the end of this run. They are cache-wide: a cache shared
	// across many runs (the intended long-lived-caller setup)
	// aggregates their traffic. Nil exactly when Config.Cache is
	// unset.
	Cache *CacheReport `json:"cache,omitempty"`
}

// CacheReport is the Report's score-cache traffic snapshot.
type CacheReport struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// AccountingReport is the Report's privacy-ledger block: how this
// release entered the Rényi accountant, and where the cumulative
// budget stands afterwards — the RDP-optimized (ε, δ) next to the
// linear Theorem 4.4 bound it improves on.
type AccountingReport struct {
	// Accountant is the ledger's session name (empty for anonymous
	// per-run ledgers).
	Accountant string `json:"accountant,omitempty"`
	// Kind is how this release entered the ledger: "pure" (Laplace
	// noise, ε_α = min(ε, αε²/2)) or "gaussian" (ε_α = α·ρ).
	Kind string `json:"kind"`
	// Rho is this release's zCDP parameter (Gaussian only).
	Rho float64 `json:"rho,omitempty"`
	// Curve samples this release's Rényi curve at accounting.ReportAlphas.
	Curve []accounting.CurvePoint `json:"curve"`
	// Releases is the ledger's release count including this one.
	Releases int `json:"releases"`
	// LinearEpsilon is the Theorem 4.4 bound K·max_k ε_k, valid at
	// δ = DeltaSum.
	LinearEpsilon float64 `json:"linear_epsilon"`
	// DeltaSum is Σ per-release δ — the linear bound's δ cost.
	DeltaSum float64 `json:"delta_sum,omitempty"`
	// Delta is the ledger's headline δ at which RDPEpsilon holds.
	Delta float64 `json:"delta"`
	// RDPEpsilon is the accumulated curve's optimized ε at Delta —
	// never worse than LinearEpsilon where the latter applies, and
	// quadratically tighter over many Gaussian releases.
	RDPEpsilon float64 `json:"rdp_epsilon"`
}

// KantorovichReport is the Report's transport-diagnostics block for
// the Kantorovich mechanism: the worst histogram cell and its two
// Wasserstein suprema. W₁/W∞ ≤ 1 quantifies how conservative the
// worst-case calibration is on this database's fitted model.
type KantorovichReport struct {
	// Cell is the 0-based histogram cell (state) with the largest W∞.
	Cell int `json:"cell"`
	// WInf is that cell's sup ∞-Wasserstein distance; the count-level
	// Laplace scale is k·WInf/ε.
	WInf float64 `json:"w_inf"`
	// W1 is the cell's sup 1-Wasserstein (Kantorovich) distance.
	W1 float64 `json:"w1"`
}

// ParseSeries reads a series of non-negative integer states. Values
// are separated by whitespace or commas; a blank line starts a new
// independent session (the gap-split convention of the activity
// experiments).
func ParseSeries(r io.Reader) ([][]int, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	var sessions [][]int
	var cur []int
	flush := func() {
		if len(cur) > 0 {
			sessions = append(sessions, cur)
			cur = nil
		}
	}
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			flush()
			continue
		}
		for _, field := range strings.FieldsFunc(line, func(r rune) bool {
			return r == ',' || r == ' ' || r == '\t'
		}) {
			v, err := strconv.Atoi(field)
			if err != nil {
				return nil, fmt.Errorf("release: bad value %q: %w", field, err)
			}
			if v < 0 {
				return nil, fmt.Errorf("release: negative state %d", v)
			}
			cur = append(cur, v)
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	flush()
	if len(sessions) == 0 {
		return nil, errors.New("release: no data")
	}
	return sessions, nil
}

// Prepared is a validated release whose inputs are parsed and whose
// model (for the quilt mechanisms) is fitted, but whose score and noise
// have not yet been computed. It is the seam a long-lived server uses:
// Prepare many requests, score them together with ScoreBatch (which
// dedupes identical fitted models across them), then Finish each with
// its score. Run is exactly Prepare + Score + Finish, and Score is
// ScoreBatch over one member, so the two routes release bit-identical
// histograms.
type Prepared struct {
	cfg      Config
	sessions [][]int
	flat     []int
	lengths  []int
	k        int
	n        int
	longest  int
	chain    markov.Chain   // chain substrate, scored mechanisms only
	class    markov.Class   // chain substrate, scored mechanisms only
	sub      core.Substrate // network substrate only
}

// PrepareContext is Prepare with a cancellation check up front, so a
// request whose deadline already passed does no parsing or model
// fitting at all. When the context carries an obs trace the stage is
// recorded as a "prepare" span.
func PrepareContext(ctx context.Context, sessions [][]int, cfg Config) (*Prepared, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, sp := obs.StartSpan(ctx, "prepare")
	p, err := Prepare(sessions, cfg)
	sp.EndErr(err)
	return p, err
}

// Prepare validates cfg and sessions, infers the state space, and fits
// the empirical chain for the quilt mechanisms.
func Prepare(sessions [][]int, cfg Config) (*Prepared, error) {
	if !slices.Contains(Mechanisms(), cfg.Mechanism) {
		return nil, fmt.Errorf("release: unknown mechanism %q (want %s)",
			cfg.Mechanism, strings.Join(Mechanisms(), "|"))
	}
	if !(cfg.Epsilon > 0) || math.IsInf(cfg.Epsilon, 1) {
		return nil, fmt.Errorf("release: invalid ε = %v", cfg.Epsilon)
	}
	if cfg.Epsilon < 0x1p-1022 { // subnormal: even σ = T/ε overflows
		return nil, fmt.Errorf("release: ε = %v is too small; noise scales overflow", cfg.Epsilon)
	}
	switch cfg.Noise {
	case "", NoiseLaplace:
		//privlint:allow floatcompare zero is the exact unset sentinel for δ
		if cfg.Delta != 0 {
			return nil, fmt.Errorf("release: δ = %v set, but the Laplace backend is pure-ε (δ must be 0)", cfg.Delta)
		}
	case NoiseGaussian:
		if cfg.Mechanism != MechKantorovich {
			return nil, fmt.Errorf("release: gaussian noise requires mechanism %s (the quilt/DP σ is a Laplace scale)", MechKantorovich)
		}
		if !(cfg.Delta > 0 && cfg.Delta < 1) || math.IsNaN(cfg.Delta) {
			return nil, fmt.Errorf("release: gaussian noise needs δ ∈ (0, 1), got %v", cfg.Delta)
		}
	default:
		return nil, fmt.Errorf("release: unknown noise backend %q (want %s|%s)", cfg.Noise, NoiseLaplace, NoiseGaussian)
	}
	if cfg.K != 0 && cfg.K < 2 {
		return nil, fmt.Errorf("release: configured k = %d, but a state space needs at least 2 states (0 infers from data)", cfg.K)
	}
	switch cfg.Substrate {
	case "", SubstrateChain:
		if cfg.Network != nil {
			return nil, fmt.Errorf("release: network model set without substrate %q", SubstrateNetwork)
		}
	case SubstrateNetwork:
		if cfg.Network == nil {
			return nil, fmt.Errorf("release: substrate %q needs a network model", SubstrateNetwork)
		}
		if cfg.Mechanism != MechKantorovich {
			return nil, fmt.Errorf("release: substrate %q supports only mechanism %s (the quilt mechanisms are chain-specialized)",
				SubstrateNetwork, MechKantorovich)
		}
	default:
		return nil, fmt.Errorf("release: unknown substrate %q (want %s)",
			cfg.Substrate, strings.Join(Substrates(), "|"))
	}
	if len(sessions) == 0 {
		return nil, errors.New("release: no data")
	}
	k := cfg.K
	var n, longest int
	var lengths []int
	for i, s := range sessions {
		if len(s) == 0 {
			return nil, fmt.Errorf("release: session %d is empty", i)
		}
		n += len(s)
		lengths = append(lengths, len(s))
		if len(s) > longest {
			longest = len(s)
		}
		for _, v := range s {
			if v < 0 {
				return nil, fmt.Errorf("release: negative state %d", v)
			}
			if cfg.K > 0 && v >= cfg.K {
				return nil, fmt.Errorf("release: state %d outside configured k = %d", v, cfg.K)
			}
			if v >= k {
				k = v + 1
			}
		}
	}
	if k < 2 {
		k = 2
	}
	var sub core.Substrate
	if cfg.Substrate == SubstrateNetwork {
		// The network is the authority on the state space and the
		// series shape: one session, one observation per node.
		s, err := core.NewNetworkSubstrate([]*bayes.Network{cfg.Network})
		if err != nil {
			return nil, err
		}
		if len(sessions) != 1 || longest != s.Len() {
			return nil, fmt.Errorf("release: substrate %q needs exactly one session of %d observations (one per network node), got %d session(s) totalling %d",
				SubstrateNetwork, s.Len(), len(sessions), n)
		}
		if cfg.K != 0 && cfg.K != s.K() {
			return nil, fmt.Errorf("release: configured k = %d, but the network's cardinality is %d", cfg.K, s.K())
		}
		if k > s.K() {
			return nil, fmt.Errorf("release: data has states up to %d, but the network's cardinality is %d", k-1, s.K())
		}
		k = s.K()
		sub = s
	}
	flat := make([]int, 0, n)
	for _, s := range sessions {
		flat = append(flat, s...)
	}
	p := &Prepared{
		cfg:      cfg,
		sessions: sessions,
		flat:     flat,
		lengths:  lengths,
		k:        k,
		n:        n,
		longest:  longest,
		sub:      sub,
	}
	if p.NeedsScore() && sub == nil {
		chain, err := markov.EstimateStationary(sessions, k, cfg.Smoothing)
		if err != nil {
			return nil, err
		}
		class, err := markov.NewSingleton(chain, longest)
		if err != nil {
			return nil, err
		}
		p.chain = chain
		p.class = class
	}
	return p, nil
}

// NeedsScore reports whether the mechanism requires a scoring sweep
// over the fitted model (a quilt score for the MQM variants, a
// transport profile for the Kantorovich mechanism); the DP baselines
// go straight to Finish with a zero ChainScore.
func (p *Prepared) NeedsScore() bool {
	switch p.cfg.Mechanism {
	case MechMQMExact, MechMQMApprox, MechKantorovich:
		return true
	}
	return false
}

// SubstrateKind returns the validated substrate kind ("chain" or
// "network") — the key a serving layer uses for per-substrate traffic
// counters.
func (p *Prepared) SubstrateKind() string {
	if p.sub != nil {
		return SubstrateNetwork
	}
	return SubstrateChain
}

// Mechanism returns the validated mechanism name.
func (p *Prepared) Mechanism() string { return p.cfg.Mechanism }

// SetParallelism overrides Config.Parallelism for Score (ScoreBatch
// takes its worker count as an argument instead). The released values
// are identical at every setting.
func (p *Prepared) SetParallelism(n int) { p.cfg.Parallelism = n }

// SetAccountant attaches a Rényi ledger (and its session name) after
// Prepare has validated the request — the hook a serving layer uses so
// accountant sessions are only ever created for requests that passed
// validation. Equivalent to setting Config.Accountant/AccountantName
// up front; the released values are identical either way.
func (p *Prepared) SetAccountant(led *accounting.Ledger, name string) {
	p.cfg.Accountant = led
	p.cfg.AccountantName = name
}

// PlannedEntry returns the exact accounting entry Finish will charge
// for this release, before any scoring work runs — the hook a serving
// layer uses to refuse a budget-exceeding release up front via
// Ledger.CheckCharge. The Laplace paths charge a pure-ε entry that
// depends only on validated config. The Gaussian Kantorovich entry's
// ρ looks like it needs the scored W∞, but W∞ cancels: σ scales
// linearly in W∞, so ρ = W∞²/(2σ²) is a function of (ε, δ, k) alone.
// It is the only place a charge is built: Finish charges exactly this
// entry, so the planned and charged entries are equal bit for bit.
func (p *Prepared) PlannedEntry() (accounting.Entry, error) {
	if p.cfg.Mechanism == MechKantorovich && p.cfg.Noise == NoiseGaussian {
		// Per-coordinate ρ at the unit shift bound, summed over the k
		// cells.
		sigmaUnit, err := kantorovich.GaussianCountScale(1, p.cfg.Epsilon, p.cfg.Delta, p.k)
		if err != nil {
			return accounting.Entry{}, err
		}
		rhoCoord, err := noise.GaussianRho(1, sigmaUnit)
		if err != nil {
			return accounting.Entry{}, err
		}
		return accounting.Entry{
			Kind: accounting.KindGaussian, Mechanism: p.cfg.Mechanism,
			Eps: p.cfg.Epsilon, Delta: p.cfg.Delta, Rho: float64(p.k) * rhoCoord,
		}, nil
	}
	return accounting.Entry{
		Kind: accounting.KindPure, Mechanism: p.cfg.Mechanism, Eps: p.cfg.Epsilon,
	}, nil
}

// Score computes the mechanism's chain score: ScoreBatch over this
// one member at Config.Parallelism.
func (p *Prepared) Score(ctx context.Context) (core.ChainScore, error) {
	scores, err := ScoreBatch(ctx, []*Prepared{p}, p.cfg.Parallelism)
	if err != nil {
		return core.ChainScore{}, err
	}
	return scores[0], nil
}

// ScoreBatch computes the chain score of every member that needs one
// (NeedsScore; the others get a zero score), and is the one place a
// mechanism maps to an engine scoring call. Members are grouped by
// (mechanism, ε, cache), the groups taken in order of their first
// member, and each group is scored by one batched engine call that
// scores identical fitted models — at one session length, or one
// network — once, across members. parallelism is every engine call's
// worker count (0 = all CPUs); the scores are identical at every
// setting and align with members. ctx is checked before scoring
// starts; a sweep already running is never abandoned half-way,
// matching the drain semantics of graceful shutdown.
func ScoreBatch(ctx context.Context, members []*Prepared, parallelism int) ([]core.ChainScore, error) {
	type group struct {
		members []*Prepared
		index   []int // positions of members in the batch
	}
	var groups []*group
	for i, p := range members {
		if !p.NeedsScore() {
			continue
		}
		var g *group
		for _, cand := range groups {
			if q := cand.members[0]; q.cfg.Mechanism == p.cfg.Mechanism && q.cfg.Cache == p.cfg.Cache &&
				math.Float64bits(q.cfg.Epsilon) == math.Float64bits(p.cfg.Epsilon) {
				g = cand
				break
			}
		}
		if g == nil {
			g = &group{}
			groups = append(groups, g)
		}
		g.members = append(g.members, p)
		g.index = append(g.index, i)
	}
	scores := make([]core.ChainScore, len(members))
	if len(groups) == 0 {
		return scores, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, g := range groups {
		got, err := scoreGroup(g.members, parallelism)
		if err != nil {
			return nil, err
		}
		for j, i := range g.index {
			scores[i] = got[j]
		}
	}
	return scores, nil
}

// scoreGroup makes the engine call for members sharing a mechanism, ε
// and cache: the multi-length quilt scorers over each member's fitted
// class and session lengths, or the Kantorovich scorer over each
// member's substrates (its network, or one chain view per distinct
// session length).
func scoreGroup(members []*Prepared, parallelism int) ([]core.ChainScore, error) {
	cfg := members[0].cfg
	if cfg.Mechanism == MechKantorovich {
		subs := make([][]core.Substrate, len(members))
		for j, p := range members {
			if p.sub != nil {
				subs[j] = []core.Substrate{p.sub}
				continue
			}
			var err error
			if subs[j], err = kantorovich.ChainSubstrates(p.class, p.lengths); err != nil {
				return nil, err
			}
		}
		return kantorovich.ScoreBatch(cfg.Cache, subs, cfg.Epsilon, kantorovich.Options{Parallelism: parallelism})
	}
	specs := make([]core.MultiSpec, len(members))
	for j, p := range members {
		specs[j] = core.MultiSpec{Class: p.class, Lengths: p.lengths}
	}
	if cfg.Mechanism == MechMQMExact {
		return core.ExactScoreMultiBatch(cfg.Cache, specs, cfg.Epsilon, core.ExactOptions{Parallelism: parallelism})
	}
	return core.ApproxScoreMultiBatch(cfg.Cache, specs, cfg.Epsilon, core.ApproxOptions{Parallelism: parallelism})
}

// FinishContext is Finish with a cancellation check first — the last
// point a release can be abandoned. Past it the charge is recorded and
// the noisy histogram exists, so cancellation must not interrupt: the
// finish stage itself never checks the context. When ctx carries an
// obs trace, the stage is recorded as "finish"/"noise"/"journal"
// spans.
func (p *Prepared) FinishContext(ctx context.Context, score core.ChainScore) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return p.finish(ctx, score)
}

// Finish adds the mechanism's noise and assembles the report. For the
// scored mechanisms score must come from Score or ScoreBatch; the DP
// baselines ignore it.
func (p *Prepared) Finish(score core.ChainScore) (*Report, error) {
	return p.finish(context.Background(), score)
}

// finish is the shared Finish body; ctx is consulted only for span
// recording, never for cancellation.
func (p *Prepared) finish(ctx context.Context, score core.ChainScore) (*Report, error) {
	_, fsp := obs.StartSpan(ctx, "finish")
	q := query.RelFreqHistogram{K: p.k, N: p.n}
	rng := rand.New(rand.NewPCG(p.cfg.Seed, 0x7f4a7c15))
	report := &Report{
		Mechanism:    p.cfg.Mechanism,
		Substrate:    p.SubstrateKind(),
		Epsilon:      p.cfg.Epsilon,
		Delta:        p.cfg.Delta, // 0 for Laplace, which Prepare enforces
		K:            p.k,
		Observations: p.n,
		Sessions:     len(p.sessions),
	}
	defer p.snapshotCache(report)

	_, nsp := obs.StartSpan(ctx, "noise")
	entry, err := p.applyNoise(report, score, q, rng)
	nsp.EndErr(err)
	if err != nil {
		fsp.EndErr(err)
		return nil, err
	}
	_, jsp := obs.StartSpan(ctx, "journal")
	err = p.account(report, entry)
	jsp.EndErr(err)
	fsp.EndErr(err)
	if err != nil {
		return nil, err
	}
	return report, nil
}

// applyNoise evaluates the query, draws the mechanism's noise into
// report, and returns the accounting entry the release charges — the
// "noise" stage of the pipeline, split out of finish so the span
// boundaries match the stage boundaries exactly. Every mechanism
// releases the exact query plus additive noise, so the mechanism
// switch only calibrates the per-coordinate scale (and, for the scored
// mechanisms, σ and its diagnostics); the charge, the evaluation, the
// scale guard and the one draw are shared.
func (p *Prepared) applyNoise(report *Report, score core.ChainScore, q query.RelFreqHistogram, rng *rand.Rand) (accounting.Entry, error) {
	// The charge goes through PlannedEntry, so a pre-scoring ceiling
	// check and the actual charge can never disagree.
	entry, err := p.PlannedEntry()
	if err != nil {
		return entry, err
	}
	exact, err := q.Evaluate(p.flat)
	if err != nil {
		return entry, err
	}
	eps := p.cfg.Epsilon
	var scale, sigma float64
	switch p.cfg.Mechanism {
	case MechDP:
		scale = q.Lipschitz() / eps
	case MechGroupDP:
		// A whole session may change together, so the sensitivity
		// grows to longest·L (Definition 2.2).
		scale = float64(p.longest) * q.Lipschitz() / eps
	case MechKantorovich:
		// W∞ is reconstructed from σ = k·W∞/ε; the max with W₁ absorbs
		// the one-ulp rounding of the round trip so the reported ratio
		// W₁/W∞ never exceeds 1 (its documented contract).
		wInf := math.Max(score.Sigma*eps/float64(p.k), score.Influence)
		sigma = score.Sigma
		if p.cfg.Noise == NoiseGaussian {
			// Per-coordinate Gaussian noise at the per-cell budget
			// (ε/k, δ/k).
			if sigma, err = kantorovich.GaussianCountScale(wInf, eps, p.cfg.Delta, p.k); err != nil {
				return entry, err
			}
		}
		// σ is the count-level per-coordinate scale (for Laplace,
		// k·W∞max/ε: ε/k per cell, composed); the released values are
		// relative frequencies (counts / n), so the scale divides by n
		// alongside them.
		scale = sigma / float64(p.n)
		report.Kantorovich = &KantorovichReport{Cell: score.Node, WInf: wInf, W1: score.Influence}
	default: // MechMQMExact, MechMQMApprox — Prepare validated the name
		sigma = score.Sigma
		scale = q.Lipschitz() * sigma
		report.ActiveQuilt = fmt.Sprintf("%v @ node %d", score.Quilt, score.Node)
	}
	if err := core.ValidateNoiseScale(scale, sigma, eps); err != nil {
		return entry, err
	}
	backend := noise.Laplace
	if p.cfg.Noise == NoiseGaussian {
		backend = noise.Gaussian
	}
	additive, err := backend(scale)
	if err != nil {
		return entry, err
	}
	report.Histogram = noise.AddVec(exact, additive, rng)
	report.NoiseScale = scale
	// The DP baselines report no σ and no backend (their noise is
	// definitionally Laplace), and only a fitted chain has a model.
	if p.NeedsScore() {
		report.Sigma = sigma
		report.Noise = additive.Name()
		if p.sub == nil {
			report.Model = &p.chain
		}
	}
	return entry, nil
}

// account records the finished release into cfg.Accountant and fills
// the report's Accounting block from the ledger state read in the same
// critical section as the charge, so a concurrent charge to the same
// session cannot tear the block. It runs after the noise is drawn and
// never touches the rng, so accounted and unaccounted releases are
// bit-identical for a fixed seed.
func (p *Prepared) account(report *Report, entry accounting.Entry) error {
	led := p.cfg.Accountant
	if led == nil {
		return nil
	}
	st, err := led.Charge(entry)
	if err != nil {
		return err
	}
	report.Accounting = &AccountingReport{
		Accountant:    p.cfg.AccountantName,
		Kind:          entry.Kind,
		Rho:           entry.Rho,
		Curve:         accounting.EntryCurve(entry, accounting.ReportAlphas),
		Releases:      st.Releases,
		LinearEpsilon: st.LinearEpsilon,
		DeltaSum:      st.DeltaSum,
		Delta:         st.Delta,
		RDPEpsilon:    st.Epsilon,
	}
	return nil
}

// snapshotCache fills the report's cache block from cfg.Cache,
// upholding the Report.Cache contract for every mechanism: nil exactly
// when Config.Cache is unset.
func (p *Prepared) snapshotCache(report *Report) {
	if p.cfg.Cache == nil {
		return
	}
	stats := p.cfg.Cache.Stats()
	report.Cache = &CacheReport{Hits: stats.Hits, Misses: stats.Misses}
}

// Run executes the pipeline on parsed sessions.
func Run(sessions [][]int, cfg Config) (*Report, error) {
	return RunContext(context.Background(), sessions, cfg)
}

// RunContext is Run with cancellation between the pipeline stages: a
// context cancelled before scoring starts aborts the release, while a
// scoring sweep already in flight drains to completion.
func RunContext(ctx context.Context, sessions [][]int, cfg Config) (*Report, error) {
	p, err := PrepareContext(ctx, sessions, cfg)
	if err != nil {
		return nil, err
	}
	score, err := p.Score(ctx)
	if err != nil {
		return nil, err
	}
	return p.FinishContext(ctx, score)
}
