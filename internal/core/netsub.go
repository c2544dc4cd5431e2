package core

import (
	"errors"
	"fmt"

	"pufferfish/internal/bayes"
	"pufferfish/internal/dist"
)

// NetworkSubstrate adapts a class of tree/polytree Bayesian networks
// to the Substrate interface: Θ is the network list, the positions are
// the network's nodes, and the conditional count distributions come
// from the exact sum-augmented message passing of bayes.CountDistSweep
// — so the count-distribution → W∞ → noise pipeline, the ScoreCache,
// and the accountants all work on correlated data whose structure is a
// polytree rather than a chain.
type NetworkSubstrate struct {
	nets []*bayes.Network
	k, n int
	// margs[θ][node] is the node's marginal under network θ, computed
	// once at construction; SecretPairs uses it for the Definition 2.1
	// positive-probability filter.
	margs [][][]float64
}

// NewNetworkSubstrate validates the class — at least one network, all
// with the same node count and one shared cardinality ≥ 2, each a
// polytree — and precomputes every marginal.
func NewNetworkSubstrate(nets []*bayes.Network) (*NetworkSubstrate, error) {
	if len(nets) == 0 {
		return nil, errors.New("core: network substrate needs at least one network")
	}
	n := nets[0].N()
	k := nets[0].Card(0)
	if k < 2 {
		return nil, fmt.Errorf("core: network substrate needs cardinality ≥ 2, got %d", k)
	}
	margs := make([][][]float64, len(nets))
	for ti, nw := range nets {
		if nw.N() != n {
			return nil, fmt.Errorf("core: network %d has %d nodes, want %d", ti, nw.N(), n)
		}
		for i := 0; i < n; i++ {
			if nw.Card(i) != k {
				return nil, fmt.Errorf("core: network %d node %d has cardinality %d, want %d", ti, i, nw.Card(i), k)
			}
		}
		m, err := nw.MarginalsMP()
		if err != nil {
			return nil, fmt.Errorf("core: network %d: %w", ti, err)
		}
		margs[ti] = m
	}
	return &NetworkSubstrate{nets: nets, k: k, n: n, margs: margs}, nil
}

// Kind implements Substrate.
func (s *NetworkSubstrate) Kind() string { return SubstrateNetwork }

// K implements Substrate.
func (s *NetworkSubstrate) K() int { return s.k }

// Len implements Substrate: the node count.
func (s *NetworkSubstrate) Len() int { return s.n }

// Networks returns the wrapped network class (not a copy; treat as
// read-only).
func (s *NetworkSubstrate) Networks() []*bayes.Network { return s.nets }

// SecretPairs implements Substrate with the same canonical order as
// the chain substrate: θ-major, then position 1…n, then value pairs
// (a, b), a < b, both with positive marginal probability.
func (s *NetworkSubstrate) SecretPairs() ([]SecretSpec, error) {
	nSpecs := 0
	for ti := range s.nets {
		marg := s.margs[ti]
		for i := 1; i <= s.n; i++ {
			for a := 0; a < s.k; a++ {
				if marg[i-1][a] <= 0 {
					continue
				}
				for b := a + 1; b < s.k; b++ {
					if marg[i-1][b] > 0 {
						nSpecs++
					}
				}
			}
		}
	}
	specs := make([]SecretSpec, 0, nSpecs)
	for ti := range s.nets {
		marg := s.margs[ti]
		for i := 1; i <= s.n; i++ {
			for a := 0; a < s.k; a++ {
				if marg[i-1][a] <= 0 {
					continue
				}
				for b := a + 1; b < s.k; b++ {
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

// CountDistSweep implements Substrate by the network's sum-augmented
// message passing — one rooted pass per node serves all its values —
// translating the substrate's 1-based positions to the network's
// 0-based node indices.
func (s *NetworkSubstrate) CountDistSweep(theta int, w []int, from, to int, need []bool, out []dist.Discrete) error {
	if theta < 0 || theta >= len(s.nets) {
		return fmt.Errorf("core: θ index %d outside [0,%d)", theta, len(s.nets))
	}
	return s.nets[theta].CountDistSweep(w, from-1, to-1, need, out)
}

// WriteFingerprint implements Substrate: the shared cardinality, the
// node count, the network count, then each network's structure and
// parameters — per node the parent list and the full CPT, in node
// order. Node names are display-only and excluded; scores cannot
// depend on them.
func (s *NetworkSubstrate) WriteFingerprint(w FingerprintWriter) {
	w.Word(uint64(s.k))
	w.Word(uint64(s.n))
	w.Word(uint64(len(s.nets)))
	for _, nw := range s.nets {
		for i := 0; i < nw.N(); i++ {
			parents := nw.Parents(i)
			w.Word(uint64(len(parents)))
			for _, p := range parents {
				w.Word(uint64(p))
			}
			w.Floats(nw.CPT(i))
		}
	}
}
