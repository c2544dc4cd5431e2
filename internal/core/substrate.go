package core

import (
	"fmt"
	"strconv"

	"pufferfish/internal/dist"
	"pufferfish/internal/markov"
	"pufferfish/internal/sched"
)

// Substrate kind tags. The tag domain-separates fingerprints: a chain
// and a network that happened to serialize to identical canonical
// bytes can never share a ScoreCache entry.
const (
	SubstrateChain   = "chain"
	SubstrateNetwork = "network"
)

// Substrate is the correlation model underneath a Pufferfish
// instantiation (S, Q, Θ) for count queries over positions 1…Len():
// the secrets are all position values, the pairs all same-position
// value pairs with positive probability, and the scalar query is
// F(X) = Σ_pos w[X_pos] with integer per-value weights.
//
// It is the seam between the scoring pipeline and the model family:
// the Wasserstein sweep, the Kantorovich cell profiles, and the
// fingerprint-keyed ScoreCache all consume this interface, so a new
// correlation structure plugs into caching, accounting, and serving by
// implementing it. markov.Class chains (ClassSubstrate) and
// tree/polytree bayes.Network classes (NetworkSubstrate) are the two
// implementations.
type Substrate interface {
	// Kind is the substrate's domain-separation tag, one of the
	// Substrate* constants. SubstrateFingerprint mixes it into the
	// fingerprint before any canonical bytes.
	Kind() string
	// K is the per-position cardinality: values live in {0, …, K−1}
	// and the histogram query has K cells.
	K() int
	// Len is the number of positions (chain nodes, network nodes).
	Len() int
	// SecretPairs enumerates the admissible secret pairs in canonical
	// order (θ-major, then position, then value pair) — the order is
	// part of the contract: sweeps keep first maximizers, so it
	// determines which pair a diagnostic label names.
	SecretPairs() ([]SecretSpec, error)
	// CountDistSweep computes, under distribution theta (an index into
	// the substrate's Θ), the exact conditional distribution of
	// F(X) = Σ_pos w[X_pos] given X_pos = val for every position pos in
	// [from, to] (1-based) and every value val with
	// need[(pos−from)·K() + val], writing it to out at the same index
	// and leaving the other slots untouched. It errors on the first
	// needed conditioning event, in ascending (pos, val) order, of
	// probability zero. A distribution must not depend on the range it
	// was swept in: CountInstance splits ranges freely and relies on
	// bit-identical results.
	CountDistSweep(theta int, w []int, from, to int, need []bool, out []dist.Discrete) error
	// WriteFingerprint streams the substrate's canonical fingerprint
	// bytes — everything scores depend on besides (ε, options) — into
	// w. Implementations must not write the kind tag;
	// SubstrateFingerprint prepends it.
	WriteFingerprint(w FingerprintWriter)
}

// SecretSpec is one admissible secret pair of a substrate: under the
// Theta-th distribution, position Pos (1-based) takes value A or value
// B (A < B), both with positive marginal probability.
type SecretSpec struct {
	Theta, Pos, A, B int
}

// label renders the pair's diagnostic label ("X3: 0 vs 1 @ θ2", θ
// 1-based) with a single allocation (fmt.Sprintf boxes every argument,
// which dominated the pair sweep's allocation count).
func (sp SecretSpec) label() string {
	var arr [40]byte
	b := arr[:0]
	b = append(b, 'X')
	b = strconv.AppendInt(b, int64(sp.Pos), 10)
	b = append(b, ": "...)
	b = strconv.AppendInt(b, int64(sp.A), 10)
	b = append(b, " vs "...)
	b = strconv.AppendInt(b, int64(sp.B), 10)
	b = append(b, " @ θ"...)
	b = strconv.AppendInt(b, int64(sp.Theta+1), 10)
	return string(b)
}

// CountInstance is the generic WassersteinInstance of a substrate: it
// makes Algorithm 1 (and the Kantorovich cell profiles) runnable on
// anything implementing Substrate, with the same enumeration order,
// labels, and distributions as the historical chain-only path — scores
// through it are bit-identical to the pre-Substrate pipeline.
type CountInstance struct {
	Substrate Substrate
	// W are per-value integer weights; the indicator of a value makes
	// F that value's occupancy count.
	W []int
	// Parallelism bounds the worker count of the conditional-
	// distribution sweeps: 0 uses every CPU, 1 runs strictly serial.
	// The pair list is identical (same order, same distributions) at
	// every setting.
	Parallelism int
}

// sweepChunksPerWorker oversubscribes the position chunks of each θ so
// the pool's dynamic claim evens out cost estimates that miss (a
// network's nodes cost about the same each, not a chain's suffix).
const sweepChunksPerWorker = 4

// ConditionalPairs implements WassersteinInstance. Secret values with
// zero probability are skipped per Definition 2.1 (the substrate's
// SecretPairs contract). The conditional distributions — the dominant
// cost — come from one CountDistSweep per position chunk of each θ:
// every distinct (θ, pos, val) is computed once, however many pairs
// share it. Chunks are contiguous, balanced by suffix cost, and fan
// across the pool; the pairs are assembled in spec order, so the list
// is deterministic.
func (c CountInstance) ConditionalPairs() ([]DistributionPair, error) {
	k := c.Substrate.K()
	if len(c.W) != k {
		return nil, fmt.Errorf("core: weight vector has length %d, want %d", len(c.W), k)
	}
	specs, err := c.Substrate.SecretPairs()
	if err != nil {
		return nil, err
	}
	T := c.Substrate.Len()
	// One need mask and one output slab per θ with any spec, indexed
	// (pos−1)·k + val; specs are θ-major, so groups follow spec order.
	type group struct {
		theta int
		need  []bool
		out   []dist.Discrete
		cost  []float64 // per position; 0 where nothing is needed
	}
	var groups []group
	groupOf := make([]int, len(specs))
	for j, sp := range specs {
		if len(groups) == 0 || groups[len(groups)-1].theta != sp.Theta {
			groups = append(groups, group{
				theta: sp.Theta,
				need:  make([]bool, T*k),
				out:   make([]dist.Discrete, T*k),
				cost:  make([]float64, T),
			})
		}
		g := &groups[len(groups)-1]
		groupOf[j] = len(groups) - 1
		for _, v := range [2]int{sp.A, sp.B} {
			if i := (sp.Pos-1)*k + v; !g.need[i] {
				g.need[i] = true
				// A conditioned value at pos runs the steps pos…T, and
				// step t spans ~t partial sums.
				g.cost[sp.Pos-1] += float64(T*(T+1)-(sp.Pos-1)*sp.Pos) / 2
			}
		}
	}
	pool := sched.New(c.Parallelism)
	nChunks := 1
	if w := pool.Workers(); w > 1 {
		nChunks = w * sweepChunksPerWorker
	}
	type chunk struct{ g, from, to int }
	var chunks []chunk
	for gi, g := range groups {
		for _, r := range splitByCost(g.cost, nChunks) {
			chunks = append(chunks, chunk{g: gi, from: r[0], to: r[1]})
		}
	}
	errs := make([]error, len(chunks))
	pool.ForEach(len(chunks), func(j int) {
		ch := chunks[j]
		g := groups[ch.g]
		lo, hi := (ch.from-1)*k, ch.to*k
		errs[j] = c.Substrate.CountDistSweep(g.theta, c.W, ch.from, ch.to, g.need[lo:hi], g.out[lo:hi])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	pairs := make([]DistributionPair, len(specs))
	for j, sp := range specs {
		out := groups[groupOf[j]].out[(sp.Pos-1)*k:]
		pairs[j] = DistributionPair{Mu: out[sp.A], Nu: out[sp.B], Label: sp.label()}
	}
	return pairs, nil
}

// splitByCost partitions the positions with positive cost (1-based
// indices into cost) into at most n contiguous inclusive ranges of
// roughly equal total cost.
func splitByCost(cost []float64, n int) [][2]int {
	var total float64
	for _, c := range cost {
		total += c
	}
	var out [][2]int
	var acc float64
	from, last := 0, 0
	for i, c := range cost {
		if c <= 0 {
			continue
		}
		if from == 0 {
			from = i + 1
		}
		last = i + 1
		acc += c
		if acc >= total*float64(len(out)+1)/float64(n) {
			out = append(out, [2]int{from, last})
			from = 0
		}
	}
	if from != 0 {
		out = append(out, [2]int{from, last})
	}
	return out
}

// ClassSubstrate adapts a markov.Class to the Substrate interface —
// the historical chain pipeline expressed through the generic seam.
// Chains() is snapshotted at construction so grid classes do not
// rebuild their grid per conditional distribution.
type ClassSubstrate struct {
	class  markov.Class
	chains []markov.Chain
}

// NewClassSubstrate wraps a chain class as a Substrate.
func NewClassSubstrate(class markov.Class) *ClassSubstrate {
	return &ClassSubstrate{class: class, chains: class.Chains()}
}

// Kind implements Substrate.
func (s *ClassSubstrate) Kind() string { return SubstrateChain }

// K implements Substrate.
func (s *ClassSubstrate) K() int { return s.class.K() }

// Len implements Substrate: the chain length T.
func (s *ClassSubstrate) Len() int { return s.class.T() }

// Class returns the wrapped chain class.
func (s *ClassSubstrate) Class() markov.Class { return s.class }

// SecretPairs implements Substrate: all (θ, node, a, b) with both
// marginals positive, enumerated θ-major in Chains() order. Two passes
// over the (cheap) marginal admissibility checks: the first counts so
// the spec list is allocated exactly once.
func (s *ClassSubstrate) SecretPairs() ([]SecretSpec, error) {
	T := s.class.T()
	k := s.class.K()
	margs := make([][][]float64, len(s.chains))
	nSpecs := 0
	for ti, theta := range s.chains {
		marg := theta.Marginals(T)
		margs[ti] = marg
		for i := 1; i <= T; i++ {
			for a := 0; a < k; a++ {
				if marg[i-1][a] <= 0 {
					continue
				}
				for b := a + 1; b < k; b++ {
					if marg[i-1][b] > 0 {
						nSpecs++
					}
				}
			}
		}
	}
	specs := make([]SecretSpec, 0, nSpecs)
	for ti := range s.chains {
		marg := margs[ti]
		for i := 1; i <= T; i++ {
			for a := 0; a < k; a++ {
				if marg[i-1][a] <= 0 {
					continue
				}
				for b := a + 1; b < k; b++ {
					if marg[i-1][b] <= 0 {
						continue
					}
					specs = append(specs, SecretSpec{Theta: ti, Pos: i, A: a, B: b})
				}
			}
		}
	}
	return specs, nil
}

// CountDistSweep implements Substrate via the chain's forward dynamic
// program, which reuses one unconditioned prefix across the range.
func (s *ClassSubstrate) CountDistSweep(theta int, w []int, from, to int, need []bool, out []dist.Discrete) error {
	if theta < 0 || theta >= len(s.chains) {
		return fmt.Errorf("core: θ index %d outside [0,%d)", theta, len(s.chains))
	}
	return s.chains[theta].CountDistSweep(s.class.T(), w, from, to, need, out)
}

// WriteFingerprint implements Substrate: the chain length T, the state
// count, the AllInitialDistributions flag, and every representative
// chain's initial distribution and transition matrix, in Chains()
// order (order matters: the scorer's first-maximizer tie-breaking is
// order dependent).
func (s *ClassSubstrate) WriteFingerprint(w FingerprintWriter) {
	w.Word(uint64(s.class.K()))
	w.Word(uint64(s.class.T()))
	if s.class.AllInitialDistributions() {
		w.Word(1)
	} else {
		w.Word(0)
	}
	w.Word(uint64(len(s.chains)))
	for _, c := range s.chains {
		writeChain(w, c)
	}
}
