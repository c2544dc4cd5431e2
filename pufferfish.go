// Package pufferfish is a from-scratch Go implementation of
// "Pufferfish Privacy Mechanisms for Correlated Data" (Song, Wang,
// Chaudhuri; SIGMOD 2017): the Wasserstein Mechanism — the first
// mechanism applicable to any Pufferfish instantiation — and the
// Markov Quilt Mechanism for Bayesian networks, with its efficient
// Markov-chain variants MQMExact and MQMApprox, plus the robustness
// and composition theory and the baselines the paper evaluates
// against.
//
// This root package is the public API: a thin facade over the
// internal packages, organized as
//
//   - mechanisms (this file): Wasserstein, MQMExact, MQMApprox, the
//     Kantorovich/exponential-mechanism subsystem (per-cell transport
//     profiles, exponential mechanism, Laplace/Gaussian additive
//     noise), the Rényi accounting ledger and pluggable composition
//     accountants, the generic Bayesian-network mechanism,
//     composition, robustness, baselines, and the analytic privacy
//     verifier;
//   - chain.go: Markov chains and distribution classes Θ;
//   - query.go: L1-Lipschitz queries;
//   - data.go: the flu / physical-activity / electricity substrates
//     used by the paper's experiments.
//
// See README.md for a tour and examples/ for runnable programs.
package pufferfish

import (
	"math/rand/v2"

	"pufferfish/internal/accounting"
	"pufferfish/internal/bayes"
	"pufferfish/internal/core"
	"pufferfish/internal/dist"
	"pufferfish/internal/kantorovich"
	"pufferfish/internal/noise"
)

// Release is a mechanism output: noisy values plus the noise
// accounting.
type Release = core.Release

// Secret identifies the event "record Index has value Value".
type Secret = core.Secret

// SecretPair is one indistinguishability requirement from Q.
type SecretPair = core.SecretPair

// AllValuePairs returns the Section 4.1 secret-pair set for n records
// over k values.
func AllValuePairs(n, k int) []SecretPair { return core.AllValuePairs(n, k) }

// Discrete is a finitely-supported distribution on ℝ.
type Discrete = dist.Discrete

// NewDiscrete builds a distribution from support points and masses.
func NewDiscrete(xs, ps []float64) (Discrete, error) { return dist.New(xs, ps) }

// WassersteinInf returns the ∞-Wasserstein distance W∞(µ, ν)
// (Definition 3.1).
func WassersteinInf(mu, nu Discrete) float64 { return dist.WassersteinInf(mu, nu) }

// Wasserstein1 returns the 1-Wasserstein (Kantorovich) distance
// W₁(µ, ν) — the average-case transport cost, always ≤ W∞.
func Wasserstein1(mu, nu Discrete) float64 { return dist.Wasserstein1(mu, nu) }

// MaxDivergence returns D∞(p‖q) (Definition 2.3).
func MaxDivergence(p, q Discrete) float64 { return dist.MaxDivergence(p, q) }

// DistributionPair is one pair of conditional query distributions fed
// to the Wasserstein Mechanism.
type DistributionPair = core.DistributionPair

// WassersteinInstance enumerates the conditional distribution pairs of
// a Pufferfish instantiation for a scalar query.
type WassersteinInstance = core.WassersteinInstance

// WassersteinOptions tunes the Wasserstein scale computation (worker
// count; the supremum is identical at every parallelism level).
type WassersteinOptions = core.WassersteinOptions

// WassersteinScale computes the Algorithm 1 noise parameter W using
// every CPU.
func WassersteinScale(inst WassersteinInstance) (w float64, worst DistributionPair, err error) {
	return core.WassersteinScale(inst)
}

// WassersteinScaleOpt is WassersteinScale with an explicit worker
// bound for the pair sweep. Instances that parallelize their own pair
// enumeration (ChainCountInstance) have their own Parallelism field;
// set both for a strict bound.
func WassersteinScaleOpt(inst WassersteinInstance, opt WassersteinOptions) (w float64, worst DistributionPair, err error) {
	return core.WassersteinScaleOpt(inst, opt)
}

// Wasserstein releases a scalar query value with ε-Pufferfish privacy
// via Algorithm 1 (Theorem 3.2).
func Wasserstein(value float64, inst WassersteinInstance, eps float64, rng *rand.Rand) (Release, error) {
	return core.Wasserstein(value, inst, eps, rng)
}

// ChainCountInstance is a ready-made WassersteinInstance for chain
// classes with the query F = Σ W[X_t].
type ChainCountInstance = core.ChainCountInstance

// ChainQuilt identifies a Markov quilt from the Lemma 4.6 family.
type ChainQuilt = core.ChainQuilt

// ChainScore is the result of a quilt-mechanism noise computation.
type ChainScore = core.ChainScore

// ExactOptions tunes MQMExact (Algorithm 3).
type ExactOptions = core.ExactOptions

// ApproxOptions tunes MQMApprox (Algorithm 4).
type ApproxOptions = core.ApproxOptions

// ExactScore computes MQMExact's σ_max for a chain class.
func ExactScore(class Class, eps float64, opt ExactOptions) (ChainScore, error) {
	return core.ExactScore(class, eps, opt)
}

// ApproxScore computes MQMApprox's σ_max for a chain class.
func ApproxScore(class Class, eps float64, opt ApproxOptions) (ChainScore, error) {
	return core.ApproxScore(class, eps, opt)
}

// MQMExact releases a query over chain data via Algorithm 3.
func MQMExact(data []int, q Query, class Class, eps float64, opt ExactOptions, rng *rand.Rand) (Release, ChainScore, error) {
	return core.MQMExact(data, q, class, eps, opt, rng)
}

// MQMApprox releases a query over chain data via Algorithm 4.
func MQMApprox(data []int, q Query, class Class, eps float64, opt ApproxOptions, rng *rand.Rand) (Release, ChainScore, error) {
	return core.MQMApprox(data, q, class, eps, opt, rng)
}

// Fingerprint is the canonical 128-bit identity of a class: a hash of
// everything a ChainScore depends on besides (ε, options). Classes
// with equal fingerprints score identically.
type Fingerprint = core.Fingerprint

// ClassFingerprint computes the canonical fingerprint of a class.
func ClassFingerprint(class Class) Fingerprint { return core.ClassFingerprint(class) }

// ScoreCache memoizes ChainScore results by (class fingerprint, ε,
// options), so composition-heavy workloads pay each scoring sweep
// once. A nil *ScoreCache disables memoization everywhere one is
// accepted.
type ScoreCache = core.ScoreCache

// CacheStats reports a ScoreCache's hit/miss counters.
type CacheStats = core.CacheStats

// TableCacheStats reports the per-transition-matrix influence-table
// layer beneath a ScoreCache: hits/misses of the shared table lookup,
// the number of distinct matrices held, and the total cached power
// rows across them. Read it with (*ScoreCache).TableStats.
type TableCacheStats = core.TableCacheStats

// NewScoreCache returns an empty score cache.
func NewScoreCache() *ScoreCache { return core.NewScoreCache() }

// ScoreBatch computes ExactScore for every class through one worker-
// pool invocation, deduplicating identical fingerprints (O(unique)
// scoring work) and sharing power tables across θ with equal
// transition matrices. cache may be nil. Results align with classes
// and are bit-identical to per-class ExactScore calls.
func ScoreBatch(cache *ScoreCache, classes []Class, eps float64, opt ExactOptions) ([]ChainScore, error) {
	return core.ScoreBatch(cache, classes, eps, opt)
}

// ApproxScoreBatch is ScoreBatch for MQMApprox.
func ApproxScoreBatch(cache *ScoreCache, classes []Class, eps float64, opt ApproxOptions) ([]ChainScore, error) {
	return core.ApproxScoreBatch(cache, classes, eps, opt)
}

// MultiSpec is one multi-length scoring request for the batched
// multi-length scorers: a class plus the chain-length multiset of a
// database of independent chains (the class's own T is ignored).
type MultiSpec = core.MultiSpec

// ExactScoreMultiBatch computes MQMExact's σ_max for every spec — a
// database of independent chains of the given lengths (e.g. the
// gap-split wear sessions of the activity experiments), all governed
// by the spec's class — through shared batched engine passes, so
// identical fitted models at identical lengths, across specs and not
// just within one, are scored once. cache may be nil; results align
// with specs and are identical at every parallelism. Score one
// database by passing one spec.
func ExactScoreMultiBatch(cache *ScoreCache, specs []MultiSpec, eps float64, opt ExactOptions) ([]ChainScore, error) {
	return core.ExactScoreMultiBatch(cache, specs, eps, opt)
}

// ApproxScoreMultiBatch is ExactScoreMultiBatch for MQMApprox.
func ApproxScoreMultiBatch(cache *ScoreCache, specs []MultiSpec, eps float64, opt ApproxOptions) ([]ChainScore, error) {
	return core.ApproxScoreMultiBatch(cache, specs, eps, opt)
}

// UtilityBound returns the Theorem 4.10 sufficient chain length beyond
// which MQMApprox noise stops growing with T.
func UtilityBound(class Class, eps float64) (int, error) { return core.UtilityBound(class, eps) }

// KantorovichOptions tunes the Kantorovich subsystem's transport
// sweeps (worker count; profiles are bit-identical at every setting).
type KantorovichOptions = kantorovich.Options

// KantorovichProfile is one histogram cell's transport profile: the
// suprema of W∞ (which calibrates the noise) and of the Kantorovich
// distance W₁ (the average-case diagnostic) over every admissible
// secret pair and θ.
type KantorovichProfile = core.CellScore

// KantorovichCellProfile computes (and memoizes, when cache is
// non-nil) the transport profile of one histogram cell of a chain
// class.
func KantorovichCellProfile(cache *ScoreCache, class Class, cell int, opt KantorovichOptions) (KantorovichProfile, error) {
	return kantorovich.CellProfile(cache, class, cell, opt)
}

// KantorovichProfileInstance computes the transport profile of any
// Pufferfish instantiation exposed as a WassersteinInstance.
func KantorovichProfileInstance(inst WassersteinInstance, opt KantorovichOptions) (KantorovichProfile, error) {
	return kantorovich.ProfileInstance(inst, opt)
}

// KantorovichScore computes the Kantorovich mechanism's ChainScore
// for a class: σ = k·max_a W∞(a)/ε so the histogram release spends
// ε/k per cell. In the result, Node is the 0-based worst cell and
// Influence carries its W₁ supremum.
func KantorovichScore(cache *ScoreCache, class Class, eps float64, opt KantorovichOptions) (ChainScore, error) {
	return kantorovich.Score(cache, class, eps, opt)
}

// KantorovichChainSubstrates returns the substrates a database of
// independent chains with the given session lengths is scored over:
// one view of the class per distinct length, ascending. The maximum
// per-length score is sound for the joint database.
func KantorovichChainSubstrates(class Class, lengths []int) ([]Substrate, error) {
	return kantorovich.ChainSubstrates(class, lengths)
}

// KantorovichScoreBatch scores many members through one worker-pool
// invocation. A member lists the substrates its release is scored over
// — a chain database's KantorovichChainSubstrates, or one network —
// and its score is the maximum over them. Identical substrates dedupe
// by SubstrateFingerprint across members. Results align with members
// and are identical at every parallelism.
func KantorovichScoreBatch(cache *ScoreCache, members [][]Substrate, eps float64, opt KantorovichOptions) ([]ChainScore, error) {
	return kantorovich.ScoreBatch(cache, members, eps, opt)
}

// ExpMech is the discrete exponential mechanism over a fixed output
// grid, calibrated to a W∞ transport bound (scale 2W∞/ε absorbs the
// per-input normalizers; the release is ε-Pufferfish private).
type ExpMech = kantorovich.ExpMech

// NewExpMech validates and builds an exponential mechanism.
func NewExpMech(grid []float64, wInf, eps float64) (*ExpMech, error) {
	return kantorovich.NewExpMech(grid, wInf, eps)
}

// AdditiveNoise is a zero-mean additive noise distribution (Laplace
// or Gaussian) behind one interface.
type AdditiveNoise = noise.Additive

// NewAdditiveNoise calibrates an additive noise backend to a W∞
// transport bound: kind "laplace" gives b = W∞/ε (ε-Pufferfish; delta
// is ignored), kind "gaussian" gives σ = W∞·√(2·ln(1.25/δ))/ε (the
// (ε, δ) general additive-noise route, valid for ε ∈ (0, 1] and
// δ ∈ (0, 1) — the analytic calibration does not extend to ε > 1).
func NewAdditiveNoise(kind string, wInf, eps, delta float64) (AdditiveNoise, error) {
	return kantorovich.AdditiveNoise(kind, wInf, eps, delta)
}

// Network is a discrete Bayesian network.
type Network = bayes.Network

// NetworkNode is one variable of a Bayesian network.
type NetworkNode = bayes.Node

// NewNetwork validates and builds a Bayesian network.
func NewNetwork(nodes []NetworkNode) (*Network, error) { return bayes.New(nodes) }

// NetworkFromChain converts a chain into the equivalent network
// X_1 → … → X_T.
func NetworkFromChain(c Chain, T int) (*Network, error) { return bayes.FromChain(c, T) }

// NetworkNodeJSON is the JSON wire form of one network node
// ({"name", "card", "parents", "cpt"}).
type NetworkNodeJSON = bayes.NodeJSON

// ParseNetworkJSON builds a validated network from its JSON node list
// — the format of pufferd's "network" request field and privrelease's
// -network file.
func ParseNetworkJSON(data []byte) (*Network, error) { return bayes.ParseJSON(data) }

// Substrate is the correlation model underneath a Pufferfish
// instantiation for count queries: the seam between the scoring
// pipeline (Wasserstein sweeps, Kantorovich cell profiles, the
// fingerprint-keyed ScoreCache) and the model family. Chain classes
// and polytree Bayesian networks are the built-in implementations.
type Substrate = core.Substrate

// Substrate kind tags (Substrate.Kind): they domain-separate
// fingerprints so different model families can never share a cache
// entry.
const (
	SubstrateChain   = core.SubstrateChain
	SubstrateNetwork = core.SubstrateNetwork
)

// ClassSubstrate adapts a chain class to the Substrate interface.
type ClassSubstrate = core.ClassSubstrate

// NewClassSubstrate wraps a chain class as a Substrate; scoring it is
// bit-identical to the class-based entry points.
func NewClassSubstrate(class Class) *ClassSubstrate { return core.NewClassSubstrate(class) }

// NetworkSubstrate is the Substrate over one or more polytree Bayesian
// networks (the class Θ) with uniform node cardinality, computing
// exact conditional count distributions by message passing.
type NetworkSubstrate = core.NetworkSubstrate

// NewNetworkSubstrate validates the networks (same shape, uniform
// cardinality ≥ 2, polytree structure) and builds the substrate.
func NewNetworkSubstrate(nets []*Network) (*NetworkSubstrate, error) {
	return core.NewNetworkSubstrate(nets)
}

// SubstrateFingerprint computes the canonical kind-tagged fingerprint
// of a substrate. For chain substrates it equals ClassFingerprint of
// the wrapped class.
func SubstrateFingerprint(s Substrate) Fingerprint { return core.SubstrateFingerprint(s) }

// CountInstance is the generic WassersteinInstance of a substrate with
// the count query F = Σ W[X_pos].
type CountInstance = core.CountInstance

// KantorovichCellProfileSubstrate is KantorovichCellProfile for any
// Substrate.
func KantorovichCellProfileSubstrate(cache *ScoreCache, sub Substrate, cell int, opt KantorovichOptions) (KantorovichProfile, error) {
	return kantorovich.CellProfileSubstrate(cache, sub, cell, opt)
}

// Quilt is a Markov quilt of a Bayesian network (Definition 4.2).
type Quilt = bayes.Quilt

// BayesInstantiation is the generic Algorithm 2 instantiation.
type BayesInstantiation = core.BayesInstantiation

// QuiltScoreDetail reports Algorithm 2's σ_max and active quilt.
type QuiltScoreDetail = core.QuiltScoreDetail

// QuiltScoreBayes computes Algorithm 2's noise score.
func QuiltScoreBayes(inst *BayesInstantiation, eps float64) (QuiltScoreDetail, error) {
	return core.QuiltScoreBayes(inst, eps)
}

// MarkovQuiltMechanism releases an L-Lipschitz query via Algorithm 2
// (Theorem 4.3).
func MarkovQuiltMechanism(exact []float64, lipschitz float64, inst *BayesInstantiation, eps float64, rng *rand.Rand) (Release, QuiltScoreDetail, error) {
	return core.MarkovQuiltMechanism(exact, lipschitz, inst, eps, rng)
}

// Composition tracks repeated quilt releases under Theorem 4.4.
type Composition = core.Composition

// NewExactComposition returns a composition manager using MQMExact.
func NewExactComposition(class Class, opt ExactOptions) *Composition {
	return core.NewExactComposition(class, opt)
}

// NewApproxComposition returns a composition manager using MQMApprox.
func NewApproxComposition(class Class) *Composition { return core.NewApproxComposition(class) }

// Ledger is the Rényi/zCDP privacy ledger (Pierquin et al., "Rényi
// Pufferfish Privacy"): per-release Rényi curves composed additively
// in α-divergence and converted to an (ε, δ) statement on demand —
// quadratically tighter than linear accounting over many Gaussian
// releases, and never worse than the applicable linear bound. It is
// the one accountant: Composition.WithAccountant takes a Ledger, and
// every Composition charges its releases to one (a default ledger when
// none is given).
type Ledger = accounting.Ledger

// LedgerEntry is one recorded release of a Ledger.
type LedgerEntry = accounting.Entry

// CurvePoint is one (α, ε_α) sample of a Rényi curve.
type CurvePoint = accounting.CurvePoint

// LedgerSnapshot is the JSON image of a Ledger for persistence.
type LedgerSnapshot = accounting.Snapshot

// DefaultAccountingDelta is the δ ledgers report at when unconfigured.
const DefaultAccountingDelta = accounting.DefaultDelta

// NewLedger returns an empty accounting ledger whose headline
// State().Epsilon reports ε at the given δ (δ <= 0 selects
// DefaultAccountingDelta).
func NewLedger(delta float64) *Ledger { return accounting.NewLedger(delta) }

// RestoreLedger rebuilds a ledger from a snapshot, re-validating every
// entry.
func RestoreLedger(s LedgerSnapshot) (*Ledger, error) { return accounting.Restore(s) }

// ErrCeilingExceeded marks a charge refused because it would push a
// ledger past its hard (ε, δ) ceiling (Ledger.SetCeiling). The ledger
// is left untouched; callers can surface the refusal as a distinct
// budget-exhausted condition rather than a generic failure.
var ErrCeilingExceeded = accounting.ErrCeilingExceeded

// ErrLedgerJournal marks a charge aborted because its write-ahead
// journal append failed: nothing was released and nothing was charged.
var ErrLedgerJournal = accounting.ErrJournal

// LedgerJournal is the write-ahead hook a Ledger calls *before*
// mutating on Add, so a crash can only ever over-count spend, never
// under-count it. The accounting/wal package provides the durable
// CRC-framed implementation pufferd uses.
type LedgerJournal = accounting.Journal

// GaussianRho is the per-coordinate zCDP parameter ρ = W∞²/(2σ²) of a
// Gaussian release under the shift-reduction bound — what a release
// feeds the Ledger.
func GaussianRho(wInf, sigma float64) (float64, error) { return noise.GaussianRho(wInf, sigma) }

// BeliefInstance feeds Theorem 2.4's robustness computation.
type BeliefInstance = core.BeliefInstance

// RobustnessDelta computes Δ from Theorem 2.4.
func RobustnessDelta(inst BeliefInstance) (float64, error) { return core.RobustnessDelta(inst) }

// EffectiveEpsilon returns ε + 2Δ (Theorem 2.4).
func EffectiveEpsilon(eps, delta float64) float64 { return core.EffectiveEpsilon(eps, delta) }

// LaplaceDP is the ε-differential-privacy Laplace baseline.
func LaplaceDP(data []int, q Query, eps float64, rng *rand.Rand) (Release, error) {
	return core.LaplaceDP(data, q, eps, rng)
}

// GroupDP is the group-differential-privacy baseline (Definition 2.2).
func GroupDP(data []int, q Query, maxGroupSize int, eps float64, rng *rand.Rand) (Release, error) {
	return core.GroupDP(data, q, maxGroupSize, eps, rng)
}

// GK16Score reports the reconstructed GK16 baseline's computation.
type GK16Score = core.GK16Score

// GK16Release runs the reconstructed GK16 baseline.
func GK16Release(data []int, q Query, class Class, eps float64, rng *rand.Rand) (Release, GK16Score, error) {
	return core.GK16Release(data, q, class, eps, rng)
}

// GK16Sigma computes the GK16 baseline's noise multiplier for a class,
// or an error when its spectral-norm condition fails (the paper's N/A
// entries).
func GK16Sigma(class Class, eps float64) (GK16Score, error) {
	return core.GK16SigmaClass(class, eps)
}

// VerifyChainPufferfish analytically checks Definition 2.1 for an
// additive-Laplace count release on a small chain class.
func VerifyChainPufferfish(class Class, w []int, scale, eps, slack float64, grid []float64) error {
	return core.VerifyChainPufferfish(class, w, scale, eps, slack, grid)
}
