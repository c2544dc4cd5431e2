package core

import (
	"math"
	"strings"
	"testing"

	"pufferfish/internal/bayes"
	"pufferfish/internal/markov"
)

// TestNetworkSubstrateMatchesChain: a chain recast as a Bayesian
// network through bayes.FromChain, wrapped in NetworkSubstrate, must
// agree with the chain's own ClassSubstrate — same secret pairs, same
// conditional count distributions, same Wasserstein scale and worst
// pair through the generic CountInstance.
func TestNetworkSubstrateMatchesChain(t *testing.T) {
	const T = 9
	chain := markov.BinaryChain(0.25, 0.75, 0.55)
	class, err := markov.NewSingleton(chain, T)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := bayes.FromChain(chain, T)
	if err != nil {
		t.Fatal(err)
	}
	cs := NewClassSubstrate(class)
	ns, err := NewNetworkSubstrate([]*bayes.Network{nw})
	if err != nil {
		t.Fatal(err)
	}
	if ns.K() != cs.K() || ns.Len() != cs.Len() {
		t.Fatalf("shape mismatch: network (%d, %d) vs chain (%d, %d)", ns.K(), ns.Len(), cs.K(), cs.Len())
	}

	cp, err := cs.SecretPairs()
	if err != nil {
		t.Fatal(err)
	}
	np, err := ns.SecretPairs()
	if err != nil {
		t.Fatal(err)
	}
	if len(cp) != len(np) {
		t.Fatalf("%d network pairs vs %d chain pairs", len(np), len(cp))
	}
	for i := range cp {
		if cp[i] != np[i] {
			t.Fatalf("pair %d: network %+v vs chain %+v", i, np[i], cp[i])
		}
	}

	w := []int{0, 1}
	for pos := 0; pos <= T; pos++ {
		for val := 0; val < 2; val++ {
			if pos == 0 && val > 0 {
				continue
			}
			dc, err := chain.CountDistGiven(T, w, pos, val)
			if err != nil {
				t.Fatalf("chain pos=%d val=%d: %v", pos, val, err)
			}
			dn, err := nw.CountDistGiven(w, pos-1, val)
			if err != nil {
				t.Fatalf("network pos=%d val=%d: %v", pos, val, err)
			}
			if dc.Len() != dn.Len() {
				t.Fatalf("pos=%d val=%d: %d vs %d atoms", pos, val, dn.Len(), dc.Len())
			}
			for i := 0; i < dc.Len(); i++ {
				xc, pc := dc.Atom(i)
				xn, pn := dn.Atom(i)
				if xc != xn || math.Abs(pc-pn) > 1e-12 {
					t.Errorf("pos=%d val=%d atom %d: network (%v, %v) vs chain (%v, %v)", pos, val, i, xn, pn, xc, pc)
				}
			}
		}
	}

	for _, par := range []int{1, 0} {
		wc, worstC, err := WassersteinScaleOpt(CountInstance{Substrate: cs, W: w, Parallelism: par}, WassersteinOptions{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		wn, worstN, err := WassersteinScaleOpt(CountInstance{Substrate: ns, W: w, Parallelism: par}, WassersteinOptions{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if wc != wn || worstC.Label != worstN.Label {
			t.Errorf("p=%d: network scale (%v, %q) vs chain (%v, %q)", par, wn, worstN.Label, wc, worstC.Label)
		}
	}
}

// TestSubstrateFingerprintDomainSeparation: the kind tag keeps a chain
// and its equivalent network from ever sharing a cache entry, and the
// network fingerprint is sensitive to parameters and structure.
func TestSubstrateFingerprintDomainSeparation(t *testing.T) {
	const T = 5
	chain := markov.BinaryChain(0.3, 0.8, 0.6)
	class, err := markov.NewSingleton(chain, T)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := bayes.FromChain(chain, T)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := NewNetworkSubstrate([]*bayes.Network{nw})
	if err != nil {
		t.Fatal(err)
	}
	fpChain := SubstrateFingerprint(NewClassSubstrate(class))
	fpNet := SubstrateFingerprint(ns)
	if fpChain == fpNet {
		t.Error("chain and equivalent network share a fingerprint; kind tag not separating")
	}
	if got := ClassFingerprint(class); got != fpChain {
		t.Errorf("ClassFingerprint %v != SubstrateFingerprint of ClassSubstrate %v", got, fpChain)
	}
	nw2, err := bayes.FromChain(markov.BinaryChain(0.3, 0.8, 0.61), T)
	if err != nil {
		t.Fatal(err)
	}
	ns2, err := NewNetworkSubstrate([]*bayes.Network{nw2})
	if err != nil {
		t.Fatal(err)
	}
	if SubstrateFingerprint(ns2) == fpNet {
		t.Error("perturbed CPT left the network fingerprint unchanged")
	}
}

// TestNewNetworkSubstrateValidation: the constructor refuses empty
// classes, shape mismatches, and non-polytrees.
func TestNewNetworkSubstrateValidation(t *testing.T) {
	if _, err := NewNetworkSubstrate(nil); err == nil {
		t.Error("empty class accepted")
	}
	a := bayes.MustNew([]bayes.Node{{Name: "A", Card: 2, CPT: []float64{0.5, 0.5}}})
	b := bayes.MustNew([]bayes.Node{
		{Name: "A", Card: 2, CPT: []float64{0.5, 0.5}},
		{Name: "B", Card: 2, Parents: []int{0}, CPT: []float64{0.7, 0.3, 0.2, 0.8}},
	})
	if _, err := NewNetworkSubstrate([]*bayes.Network{a, b}); err == nil || !strings.Contains(err.Error(), "nodes") {
		t.Errorf("node-count mismatch: err = %v", err)
	}
	mixed := bayes.MustNew([]bayes.Node{
		{Name: "A", Card: 2, CPT: []float64{0.5, 0.5}},
		{Name: "B", Card: 3, Parents: []int{0}, CPT: []float64{0.2, 0.3, 0.5, 0.4, 0.4, 0.2}},
	})
	if _, err := NewNetworkSubstrate([]*bayes.Network{mixed}); err == nil || !strings.Contains(err.Error(), "cardinality") {
		t.Errorf("mixed cardinality: err = %v", err)
	}
	diamond := bayes.MustNew([]bayes.Node{
		{Name: "A", Card: 2, CPT: []float64{0.4, 0.6}},
		{Name: "B", Card: 2, Parents: []int{0}, CPT: []float64{0.7, 0.3, 0.2, 0.8}},
		{Name: "C", Card: 2, Parents: []int{0}, CPT: []float64{0.6, 0.4, 0.1, 0.9}},
		{Name: "D", Card: 2, Parents: []int{1, 2}, CPT: []float64{
			0.5, 0.5, 0.3, 0.7, 0.8, 0.2, 0.25, 0.75,
		}},
	})
	if _, err := NewNetworkSubstrate([]*bayes.Network{diamond}); err == nil || !strings.Contains(err.Error(), "polytree") {
		t.Errorf("non-polytree: err = %v", err)
	}
}
