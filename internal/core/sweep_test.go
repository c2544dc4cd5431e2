package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"pufferfish/internal/bayes"
	"pufferfish/internal/dist"
	"pufferfish/internal/markov"
	"pufferfish/internal/matrix"
)

// sweepTestChain draws a k-state chain with a structural zero in one
// transition row and (for odd seeds) in the initial distribution.
func sweepTestChain(r *rand.Rand, k int) markov.Chain {
	draw := func(zero int) []float64 {
		v := make([]float64, k)
		var tot float64
		for j := range v {
			if j != zero {
				v[j] = r.Float64() + 0.05
				tot += v[j]
			}
		}
		for j := range v {
			v[j] /= tot
		}
		return v
	}
	rows := make([][]float64, k)
	for i := range rows {
		rows[i] = draw(-1)
	}
	rows[r.IntN(k)] = draw(r.IntN(k))
	zero := -1
	if r.IntN(2) == 1 {
		zero = r.IntN(k)
	}
	return markov.MustNew(draw(zero), matrix.FromRows(rows))
}

func sameDistBits(a, b dist.Discrete) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		xa, pa := a.Atom(i)
		xb, pb := b.Atom(i)
		if math.Float64bits(xa) != math.Float64bits(xb) || math.Float64bits(pa) != math.Float64bits(pb) {
			return false
		}
	}
	return true
}

// countDistGiven is the per-spec oracle: one conditional count
// distribution of F(X) given X_pos = val under θ, straight from the
// substrate's own chain or network, independent of the sweep.
func countDistGiven(sub Substrate, theta int, w []int, pos, val int) (dist.Discrete, error) {
	switch s := sub.(type) {
	case *ClassSubstrate:
		return s.chains[theta].CountDistGiven(s.class.T(), w, pos, val)
	case *NetworkSubstrate:
		return s.nets[theta].CountDistGiven(w, pos-1, val)
	}
	return dist.Discrete{}, fmt.Errorf("no per-spec oracle for %T", sub)
}

// TestConditionalPairsMatchPerSpec: the per-θ sweeps behind
// CountInstance.ConditionalPairs — chunked differently at every
// parallelism — give, pair by pair, the labels and bit-identical
// distributions of one CountDistGiven call per secret, on multi-θ
// chain classes with k ∈ {2, 3, 4} and structural zeros, and on
// network classes.
func TestConditionalPairsMatchPerSpec(t *testing.T) {
	r := rand.New(rand.NewPCG(15, 2017))
	var subs []Substrate
	var names []string
	for _, k := range []int{2, 3, 4} {
		for _, T := range []int{1, 2, 17} {
			chains := []markov.Chain{sweepTestChain(r, k), sweepTestChain(r, k), sweepTestChain(r, k)}
			class, err := markov.NewFinite(chains, T)
			if err != nil {
				t.Fatal(err)
			}
			subs = append(subs, NewClassSubstrate(class))
			names = append(names, fmt.Sprintf("chain k=%d T=%d", k, T))
		}
	}
	var nets []*bayes.Network
	for _, T := range []int{5, 12} {
		nw, err := bayes.FromChain(sweepTestChain(r, 3), T)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, nw)
	}
	ns, err := NewNetworkSubstrate(nets[:1])
	if err != nil {
		t.Fatal(err)
	}
	subs = append(subs, ns)
	names = append(names, "network")

	for si, sub := range subs {
		k := sub.K()
		for _, w := range [][]int{indicator(k, k-1), []int{2, -1, 3, 0}[:k]} {
			specs, err := sub.SecretPairs()
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 2, 0} {
				pairs, err := CountInstance{Substrate: sub, W: w, Parallelism: par}.ConditionalPairs()
				if err != nil {
					t.Fatalf("%s w=%v par=%d: %v", names[si], w, par, err)
				}
				if len(pairs) != len(specs) {
					t.Fatalf("%s w=%v par=%d: %d pairs for %d specs", names[si], w, par, len(pairs), len(specs))
				}
				for j, sp := range specs {
					mu, err := countDistGiven(sub, sp.Theta, w, sp.Pos, sp.A)
					if err != nil {
						t.Fatal(err)
					}
					nu, err := countDistGiven(sub, sp.Theta, w, sp.Pos, sp.B)
					if err != nil {
						t.Fatal(err)
					}
					if pairs[j].Label != sp.label() || !sameDistBits(pairs[j].Mu, mu) || !sameDistBits(pairs[j].Nu, nu) {
						t.Fatalf("%s w=%v par=%d: pair %d (%s) differs from the per-spec distributions", names[si], w, par, j, sp.label())
					}
				}
			}
		}
	}
}

func indicator(k, cell int) []int {
	w := make([]int, k)
	w[cell] = 1
	return w
}

// TestSplitByCost: the chunks are contiguous, ordered, disjoint, cover
// exactly the positions with positive cost, and number at most n.
func TestSplitByCost(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 200; trial++ {
		cost := make([]float64, 1+r.IntN(40))
		for i := range cost {
			if r.IntN(4) > 0 {
				cost[i] = float64(r.IntN(100))
			}
		}
		n := 1 + r.IntN(10)
		chunks := splitByCost(cost, n)
		if len(chunks) > n {
			t.Fatalf("cost %v, n=%d: %d chunks", cost, n, len(chunks))
		}
		covered := make([]bool, len(cost))
		prev := 0
		for _, c := range chunks {
			if c[0] <= prev || c[1] < c[0] || cost[c[0]-1] <= 0 || cost[c[1]-1] <= 0 {
				t.Fatalf("cost %v, n=%d: bad chunk %v in %v", cost, n, c, chunks)
			}
			for p := c[0]; p <= c[1]; p++ {
				covered[p-1] = true
			}
			prev = c[1]
		}
		for i, c := range cost {
			if c > 0 && !covered[i] {
				t.Fatalf("cost %v, n=%d: position %d uncovered by %v", cost, n, i+1, chunks)
			}
		}
	}
}
