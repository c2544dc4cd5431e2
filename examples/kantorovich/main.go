// Kantorovich: score a correlated binary series with the
// exponential-mechanism/Kantorovich subsystem — per-cell transport
// profiles (W∞ and the Kantorovich distance W₁), the calibrated
// histogram release, a draw from the discrete exponential mechanism,
// and the Laplace/Gaussian additive-noise backends behind one
// interface.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	"pufferfish"
)

func main() {
	rng := rand.New(rand.NewPCG(7, 8))

	// A correlated binary series split into wear sessions.
	const sessionLen = 60
	truth := pufferfish.BinaryChain(0.5, 0.9, 0.85)
	var sessions [][]int
	var flat []int
	for i := 0; i < 3; i++ {
		s := truth.Sample(sessionLen, rng)
		sessions = append(sessions, s)
		flat = append(flat, s...)
	}
	class, err := pufferfish.NewFinite([]pufferfish.Chain{truth}, sessionLen)
	if err != nil {
		log.Fatal(err)
	}
	eps := 1.0

	// Per-cell transport profiles: W∞ calibrates the noise; W₁ (the
	// Kantorovich distance) shows how much slack the worst-case
	// calibration leaves on this model.
	cache := pufferfish.NewScoreCache()
	fmt.Println("per-cell transport profiles:")
	for cell := 0; cell < 2; cell++ {
		p, err := pufferfish.KantorovichCellProfile(cache, class, cell, pufferfish.KantorovichOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  cell %d: W∞ = %.3f  W₁ = %.3f  (ratio %.2f, worst pair %s, %d pairs)\n",
			cell, p.WInf, p.W1, p.W1/p.WInf, p.Label, p.Pairs)
	}

	// The mechanism's score: σ = k·max W∞/ε, spending ε/k per cell,
	// maximized over the database's distinct session lengths.
	subs, err := pufferfish.KantorovichChainSubstrates(class, []int{sessionLen, sessionLen, sessionLen})
	if err != nil {
		log.Fatal(err)
	}
	scores, err := pufferfish.KantorovichScoreBatch(cache, [][]pufferfish.Substrate{subs}, eps, pufferfish.KantorovichOptions{})
	if err != nil {
		log.Fatal(err)
	}
	score := scores[0]
	fmt.Printf("\nKantorovich score: σ = %.2f (worst cell %d)\n", score.Sigma, score.Node)

	// Release the relative-frequency histogram. Each of the k = 2
	// cells spends ε/k, so the per-cell Laplace scale is
	// W∞/(ε/k) = σ at the count level — divided by n alongside the
	// frequencies.
	q := pufferfish.RelFreqHistogram{K: 2, N: len(flat)}
	exact, err := q.Evaluate(flat)
	if err != nil {
		log.Fatal(err)
	}
	wInf := score.Sigma * eps / 2 // per-cell W∞, recovered from σ = k·W∞/ε
	epsCell := eps / 2
	lap, err := pufferfish.NewAdditiveNoise("laplace", wInf, epsCell, 0)
	if err != nil {
		log.Fatal(err)
	}
	n := float64(len(flat))
	fmt.Printf("exact frequencies:    [%.4f %.4f]\n", exact[0], exact[1])
	fmt.Printf("released (laplace):   [%.4f %.4f]  (per-cell scale σ/n = %.4f)\n",
		exact[0]+lap.Sample(rng)/n, exact[1]+lap.Sample(rng)/n, lap.Scale()/n)

	// The same W∞ bound calibrates a Gaussian backend (the general
	// additive-noise route) at the same per-cell budget ...
	gauss, err := pufferfish.NewAdditiveNoise("gaussian", wInf, epsCell, 1e-6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gaussian alternative: σ_noise = %.2f per cell for (ε/2, δ=1e-6)\n", gauss.Scale())

	// ... and the discrete exponential mechanism over the feasible
	// count range, which never releases an impossible value (one
	// cell's count at the ε/2 per-cell budget).
	count := exact[1] * n
	grid := make([]float64, len(flat)+1)
	for i := range grid {
		grid[i] = float64(i)
	}
	m, err := pufferfish.NewExpMech(grid, wInf, epsCell)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exponential mechanism: exact count %d -> released %v (always on the grid)\n",
		int(count), m.Sample(count, rng))
}
