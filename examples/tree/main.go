// Tree: release infection counts over household trees — a Bayesian-
// network substrate (epidemic spread from an index case down a
// polytree of household contacts) scored through the same Kantorovich
// transport pipeline, score cache, and noise calibration as the
// Markov-chain substrates.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	"pufferfish"
)

func main() {
	// A seven-person household tree: the index case p0 infects contacts
	// p1/p2; p1's children p3/p4 and p2's child p5 catch it next, and
	// p5 rooms with p6. States: 0 = healthy, 1 = infected. A healthy
	// parent rarely passes anything on (0.1 background rate); an
	// infected one spreads with probability 0.65.
	spread := []float64{0.9, 0.1, 0.35, 0.65}
	household, err := pufferfish.NewNetwork([]pufferfish.NetworkNode{
		{Name: "p0", Card: 2, CPT: []float64{0.8, 0.2}},
		{Name: "p1", Card: 2, Parents: []int{0}, CPT: spread},
		{Name: "p2", Card: 2, Parents: []int{0}, CPT: spread},
		{Name: "p3", Card: 2, Parents: []int{1}, CPT: spread},
		{Name: "p4", Card: 2, Parents: []int{1}, CPT: spread},
		{Name: "p5", Card: 2, Parents: []int{2}, CPT: spread},
		{Name: "p6", Card: 2, Parents: []int{5}, CPT: spread},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Exact marginal infection risk per person, by message passing.
	margs, err := household.MarginalsMP()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("marginal infection risk:")
	for i, m := range margs {
		fmt.Printf("  %s: %.3f\n", household.Name(i), m[1])
	}

	// The Pufferfish substrate: the secrets are every person's
	// infection status, the query the household's infection histogram.
	sub, err := pufferfish.NewNetworkSubstrate([]*pufferfish.Network{household})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsubstrate: kind=%s k=%d len=%d fingerprint=%v\n",
		sub.Kind(), sub.K(), sub.Len(), pufferfish.SubstrateFingerprint(sub))

	// Per-cell transport profiles through the shared score cache: W∞
	// calibrates the noise, W₁ diagnoses the calibration's slack.
	eps := 1.0
	cache := pufferfish.NewScoreCache()
	fmt.Println("per-cell transport profiles:")
	for cell := 0; cell < sub.K(); cell++ {
		p, err := pufferfish.KantorovichCellProfileSubstrate(cache, sub, cell, pufferfish.KantorovichOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  cell %d: W∞ = %.3f  W₁ = %.3f  (worst pair %s, %d pairs)\n",
			cell, p.WInf, p.W1, p.Label, p.Pairs)
	}
	// The network is the release's only substrate: a batch of one
	// member holding one substrate.
	member := [][]pufferfish.Substrate{{sub}}
	scores, err := pufferfish.KantorovichScoreBatch(cache, member, eps, pufferfish.KantorovichOptions{})
	if err != nil {
		log.Fatal(err)
	}
	score := scores[0]
	fmt.Printf("count-level noise scale σ = k·W∞/ε = %.3f (worst cell %d)\n", score.Sigma, score.Node)

	// The observed outbreak, released as a noisy infection histogram.
	observed := []int{1, 1, 0, 0, 1, 0, 0}
	counts := make([]float64, sub.K())
	for _, v := range observed {
		counts[v]++
	}
	wInf := score.Sigma * eps / float64(sub.K())
	lap, err := pufferfish.NewAdditiveNoise("laplace", wInf*float64(sub.K()), eps, 0)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(11, 13))
	fmt.Println("released histogram (healthy, infected):")
	for cell, c := range counts {
		fmt.Printf("  cell %d: exact %.0f  released %.2f\n", cell, c, c+lap.Sample(rng))
	}

	// Scoring the same substrate again is fully cache-served.
	if _, err := pufferfish.KantorovichScoreBatch(cache, member, eps, pufferfish.KantorovichOptions{}); err != nil {
		log.Fatal(err)
	}
	st := cache.Stats()
	fmt.Printf("cache traffic: %d hits, %d misses\n", st.Hits, st.Misses)
}
