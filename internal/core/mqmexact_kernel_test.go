package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"pufferfish/internal/activity"
	"pufferfish/internal/markov"
	"pufferfish/internal/matrix"
	"pufferfish/internal/power"
	"pufferfish/internal/sched"
)

// oldKernel is the pre-log-table influence evaluation: tables built
// entry-by-entry with logRatio (one math.Log(p/q) per (x, x′, y)
// triple) and term1 with math.Log(m[x′]/m[x]), swept exhaustively over
// every quilt with no pruning. The new scorer must agree with it
// within the error bound documented on exactScorer; these tests pin
// that bound on every substrate the repo scores.
type oldKernel struct {
	T, k     int
	allInits bool
	fwd, bwd [][]float64
	marg     [][]float64
	// L is the largest |log| of any positive table ingredient seen —
	// the constant in the documented bound 12u·(1+2L).
	L float64
}

func buildOldKernel(theta markov.Chain, T int, allInits bool) *oldKernel {
	k := theta.K()
	o := &oldKernel{T: T, k: k, allInits: allInits}
	pc := matrix.NewPowerCache(theta.P)
	seeLog := func(p float64) {
		if p > 0 {
			if l := math.Abs(math.Log(p)); l > o.L {
				o.L = l
			}
		}
	}
	for j := 1; j <= T-1; j++ {
		pj := pc.Pow(j)
		f := make([]float64, k*k)
		b := make([]float64, k*k)
		for x := 0; x < k; x++ {
			for xp := 0; xp < k; xp++ {
				bf, bb := math.Inf(-1), math.Inf(-1)
				for y := 0; y < k; y++ {
					seeLog(pj.At(x, y))
					if v := logRatio(pj.At(x, y), pj.At(xp, y)); v > bf {
						bf = v
					}
					if v := logRatio(pj.At(y, x), pj.At(y, xp)); v > bb {
						bb = v
					}
				}
				f[x*k+xp], b[x*k+xp] = bf, bb
			}
		}
		o.fwd = append(o.fwd, f)
		o.bwd = append(o.bwd, b)
	}
	if !allInits {
		o.marg = theta.Marginals(T)
		for _, m := range o.marg {
			for _, p := range m {
				seeLog(p)
			}
		}
	}
	return o
}

func (o *oldKernel) term1(i, x, xp int) (float64, bool) {
	if o.allInits {
		if i == 1 {
			return math.Inf(1), true
		}
		return o.bwd[i-2][xp*o.k+x], true
	}
	m := o.marg[i-1]
	if m[x] <= 0 || m[xp] <= 0 {
		return 0, false
	}
	return math.Log(m[xp] / m[x]), true
}

func (o *oldKernel) hasPair(i int) bool {
	if o.allInits {
		return true
	}
	count := 0
	for _, p := range o.marg[i-1] {
		if p > 0 {
			count++
		}
	}
	return count >= 2
}

func (o *oldKernel) influence(i int, q ChainQuilt) (float64, bool) {
	if q.Trivial() {
		if !o.hasPair(i) {
			return 0, false
		}
		return 0, true
	}
	worst := math.Inf(-1)
	any := false
	for x := 0; x < o.k; x++ {
		for xp := 0; xp < o.k; xp++ {
			if x == xp {
				continue
			}
			t1, admissible := o.term1(i, x, xp)
			if !admissible {
				continue
			}
			any = true
			var v float64
			if q.A > 0 {
				v += t1 + o.bwd[q.A-1][x*o.k+xp]
			}
			if q.B > 0 {
				v += o.fwd[q.B-1][x*o.k+xp]
			}
			if v > worst {
				worst = v
			}
		}
	}
	if !any {
		return 0, false
	}
	if worst < 0 {
		worst = 0
	}
	return worst, true
}

// nodeScore is the exhaustive, unpruned sweep the fused path replaced.
func (o *oldKernel) nodeScore(i, ell int, eps float64) (float64, ChainQuilt, float64) {
	if !o.hasPair(i) {
		return 0, ChainQuilt{}, 0
	}
	bestSigma, bestQuilt, bestInfl := quiltScore(o.T, 0, eps), ChainQuilt{}, 0.0
	try := func(q ChainQuilt, card int) {
		if card > ell {
			return
		}
		infl, ok := o.influence(i, q)
		if !ok {
			return
		}
		if s := quiltScore(card, infl, eps); s < bestSigma {
			bestSigma, bestQuilt, bestInfl = s, q, infl
		}
	}
	for a := 1; a <= i-1; a++ {
		try(ChainQuilt{A: a}, o.T-i+a)
		for b := 1; b <= o.T-i; b++ {
			try(ChainQuilt{A: a, B: b}, a+b-1)
		}
	}
	for b := 1; b <= o.T-i; b++ {
		try(ChainQuilt{B: b}, i+b-1)
	}
	return bestSigma, bestQuilt, bestInfl
}

// kernelSubstrates: one chain per data regime the repo scores. The flu
// experiment has no Markov-chain substrate (it is clique-based), so it
// has no exact-scorer kernel to compare.
func kernelSubstrates(t *testing.T) []struct {
	name     string
	theta    markov.Chain
	T        int
	allInits bool
} {
	t.Helper()
	fig4, err := markov.BinaryChain(0.5, 0.9, 0.85).StationaryChain()
	if err != nil {
		t.Fatal(err)
	}
	// A chain with structural zeros exercises the ±Inf conventions on
	// low powers (higher powers mix and become strictly positive).
	sparse, err := markov.NewFromRows([]float64{0.5, 0.5, 0},
		[][]float64{{0.5, 0.5, 0}, {0.2, 0.3, 0.5}, {0, 0.4, 0.6}})
	if err != nil {
		t.Fatal(err)
	}
	act, err := activity.DefaultProfile(activity.Cyclists).TrueChain()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(51, 52))
	series, err := power.DefaultHouse().Simulate(2000, rng)
	if err != nil {
		t.Fatal(err)
	}
	pow, err := power.EmpiricalChain(series, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name     string
		theta    markov.Chain
		T        int
		allInits bool
	}{
		{"fig4-binary", fig4, 30, false},
		{"sparse-zeros", sparse, 20, false},
		{"activity-k4", act, 24, false},
		{"power-k51", pow, 14, false},
		{"binary-allinits", markov.BinaryChain(0.4, 0.85, 0.75), 22, true},
	}
}

// TestLogDomainKernelWithinDocumentedBound compares the fused
// log-table scorer against the direct logRatio kernel on every
// substrate: table entries agree exactly on ±Inf and within
// 4u·(1+2L) otherwise; per-node selected influences agree within
// 12u·(1+2L); and — the conservative guard — the released influence
// never undershoots the direct kernel's value for the same quilt by
// more than that margin, so noise scales stay honest up to provable
// rounding error.
func TestLogDomainKernelWithinDocumentedBound(t *testing.T) {
	const u = 0x1p-53
	for _, sub := range kernelSubstrates(t) {
		t.Run(sub.name, func(t *testing.T) {
			old := buildOldKernel(sub.theta, sub.T, sub.allInits)
			tableMargin := 4 * u * (1 + 2*old.L)
			inflMargin := 12 * u * (1 + 2*old.L)

			sc := newExactScorer(sub.theta, sub.T, sub.theta.K(), sub.T-1, sub.allInits, sched.New(1), newPowerCacheSet())
			for j := 0; j < sub.T-1; j++ {
				for idx := range old.fwd[j] {
					for _, pair := range []struct {
						side     string
						got, ref float64
					}{
						{"fwd", sc.fwd[j][idx], old.fwd[j][idx]},
						{"bwd", sc.bwd[j][idx], old.bwd[j][idx]},
					} {
						if math.IsInf(pair.ref, 0) || math.IsInf(pair.got, 0) {
							if pair.got != pair.ref {
								t.Fatalf("%s(%d)[%d] = %v, want %v exactly", pair.side, j+1, idx, pair.got, pair.ref)
							}
							continue
						}
						if math.Abs(pair.got-pair.ref) > tableMargin {
							t.Fatalf("%s(%d)[%d] = %v, reference %v: diff %g beyond margin %g",
								pair.side, j+1, idx, pair.got, pair.ref, pair.got-pair.ref, tableMargin)
						}
					}
				}
			}

			for _, eps := range []float64{1, 3} {
				for i := 1; i <= sub.T; i++ {
					oSigma, _, _ := old.nodeScore(i, sub.T, eps)
					nSigma, nQuilt, nInfl := sc.nodeScore(i, sub.T, eps)
					if tol := 1e-9 * (1 + math.Abs(oSigma)); math.Abs(nSigma-oSigma) > tol {
						t.Fatalf("ε=%g node %d: σ %v vs reference %v", eps, i, nSigma, oSigma)
					}
					oInfl, ok := old.influence(i, nQuilt)
					if !ok {
						t.Fatalf("ε=%g node %d: selected quilt %+v inadmissible under reference", eps, i, nQuilt)
					}
					if math.Abs(nInfl-oInfl) > inflMargin {
						t.Fatalf("ε=%g node %d quilt %+v: influence %v vs reference %v, diff %g beyond margin %g",
							eps, i, nQuilt, nInfl, oInfl, nInfl-oInfl, inflMargin)
					}
					if nInfl < oInfl-inflMargin {
						t.Fatalf("ε=%g node %d quilt %+v: influence %v undershoots reference %v beyond margin",
							eps, i, nQuilt, nInfl, oInfl)
					}
				}
			}
		})
	}
}

// TestScoreCacheIncrementalLengthBitIdentical: scoring a chain at
// length T+1 through a cache warmed at length T returns exactly the
// fresh ExactScore(T+1) result — the incremental table path changes
// cost, never values — and the table layer's counters show the reuse.
func TestScoreCacheIncrementalLengthBitIdentical(t *testing.T) {
	chain, err := markov.BinaryChain(0.5, 0.9, 0.85).StationaryChain()
	if err != nil {
		t.Fatal(err)
	}
	classT, err := markov.NewSingleton(chain, 120)
	if err != nil {
		t.Fatal(err)
	}
	classT1, err := markov.NewSingleton(chain, 121)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewScoreCache()
	if _, err := cachedExact(cache, classT, 1, ExactOptions{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	got, err := cachedExact(cache, classT1, 1, ExactOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ExactScore(classT1, 1, ExactOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("incremental score differs from fresh:\n  warm  %+v\n  fresh %+v", got, want)
	}
	ts := cache.TableStats()
	if ts.Misses != 1 || ts.Hits < 1 || ts.Matrices != 1 || ts.Powers < 1 {
		t.Fatalf("table stats after T then T+1 over one matrix: %+v", ts)
	}
}
