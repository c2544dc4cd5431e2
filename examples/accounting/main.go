// Accounting: track the cumulative privacy budget of repeated
// releases with the Rényi/zCDP ledger — the quadratic improvement
// over Theorem 4.4's linear K·max ε for Gaussian releases, the exact
// linear degenerate case for a single pure release, and the ledger as
// Composition's accountant.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand/v2"

	"pufferfish"
)

func main() {
	// A Gaussian release's Rényi curve is ε_α = α·ρ with
	// ρ = W∞²/(2σ²); curves compose additively, so K repeated releases
	// cost ~K·ρ + 2√(K·ρ·ln(1/δ)) instead of K·ε.
	const eps, delta = 1.0, 1e-5
	wInf := 2.0
	noise, err := pufferfish.NewAdditiveNoise("gaussian", wInf, eps, delta)
	if err != nil {
		log.Fatal(err)
	}
	rho, err := pufferfish.GaussianRho(wInf, noise.Scale())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gaussian backend: σ = %.3f for (ε=%g, δ=%g) at W∞ = %g  →  ρ = %.4f\n\n",
		noise.Scale(), eps, delta, wInf, rho)

	ledger := pufferfish.NewLedger(delta)
	fmt.Println("  K   linear K·maxε   RDP ε(δ=1e-5)   tighter by")
	for k := 1; k <= 16; k++ {
		if err := ledger.AddGaussian("example", rho, eps, delta); err != nil {
			log.Fatal(err)
		}
		rdp, err := ledger.Epsilon(delta)
		if err != nil {
			log.Fatal(err)
		}
		linear := ledger.LinearEpsilon()
		if k == 1 || k == 2 || k == 4 || k == 8 || k == 16 {
			fmt.Printf("%3d %15.2f %15.3f %11.2fx\n", k, linear, rdp, linear/rdp)
		}
	}

	// A single pure release is the exact linear degenerate case.
	single := pufferfish.NewLedger(delta)
	if err := single.AddPure("mqm-exact", 0.7); err != nil {
		log.Fatal(err)
	}
	one, err := single.Epsilon(delta)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsingle pure release at ε = 0.7 reports ε(δ) = %g (exactly ε: %v)\n\n",
		one, one == 0.7) //privlint:allow floatcompare the demo shows the single-entry curve is exactly ε

	// The same ledger is Composition's accountant: the released values
	// are bit-identical under any ledger, and Composition.TotalEpsilon
	// still reports Theorem 4.4's linear bound next to the ledger's
	// tighter Rényi ε.
	const T = 60
	truth := pufferfish.BinaryChain(0.5, 0.9, 0.85)
	class, err := pufferfish.NewFinite([]pufferfish.Chain{truth}, T)
	if err != nil {
		log.Fatal(err)
	}
	data := truth.Sample(T, rand.New(rand.NewPCG(1, 2)))
	q := pufferfish.RelFreqHistogram{K: 2, N: T}

	compLedger := pufferfish.NewLedger(delta)
	comp := pufferfish.NewExactComposition(class, pufferfish.ExactOptions{}).
		WithAccountant(compLedger)
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 8; i++ {
		if _, err := comp.Release(data, q, 0.5, rng); err != nil {
			log.Fatal(err)
		}
	}
	linear := comp.TotalEpsilon()
	renyi, err := compLedger.Epsilon(delta)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("composition of %d quilt releases at ε = 0.5:\n", comp.Count())
	fmt.Printf("  linear accountant (Theorem 4.4): %.2f\n", linear)
	fmt.Printf("  Rényi ledger at δ = %g:          %.3f\n", delta, renyi)
	if renyi > linear+1e-12 || math.IsNaN(renyi) {
		log.Fatal("ledger exceeded the linear bound")
	}
}
