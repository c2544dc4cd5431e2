// Package kantorovich implements the exponential-mechanism /
// Kantorovich route to Pufferfish privacy for the chain classes of
// Song–Wang–Chaudhuri, following Ding, "Kantorovich Mechanism for
// Pufferfish Privacy" (arXiv:2201.07388), with the general
// additive-noise calibration of Pierquin et al., "Rényi Pufferfish
// Privacy" (arXiv:2312.13985).
//
// # What it computes
//
// For a class Θ of Markov chains and the histogram query, every cell
// a gets a transport profile: the suprema, over all admissible secret
// pairs (X_i = u, X_i = v) and θ ∈ Θ, of two optimal-transport
// distances between the conditional distributions of the cell's count
// N_a = Σ_t 1[X_t = a]:
//
//   - W∞, the ∞-Wasserstein distance that calibrates the noise
//     (Theorem 3.2 of the source paper: the coupling argument bounds
//     the output density ratio by exp(d/scale) with d ≤ W∞);
//   - W₁, the 1-Wasserstein (Kantorovich) distance — the average-case
//     transport cost. W₁ ≤ W∞ always, and the ratio W₁/W∞ is the
//     paper-motivated diagnostic for how conservative the worst-case
//     calibration is on a given instantiation.
//
// # The mechanism
//
// The k-cell histogram is released with per-coordinate Laplace noise
// at the count-level scale k·max_a W∞(a)/ε: each cell's scalar
// release is (ε/k)-Pufferfish private by the W∞ coupling argument,
// and the joint release composes to ε (the Theorem 4.4 accounting the
// rest of this repository already relies on). The same W∞ bound also
// calibrates the discrete exponential mechanism (ExpMech — utility
// −|y − F(x)|, scale 2W∞/ε to absorb per-x normalizers on a bounded
// output grid) and the Gaussian backend of noise.Additive (the
// Pierquin et al. shift-reduction route).
//
// # Engine integration
//
// A release profiles every cell once per distinct session length. A
// profile needs P(N_cell | X_i = a) for every secret (θ, i, a), and
// core.CountInstance computes each one once, from one conditional-count
// sweep per θ rather than a dynamic program per pair: a chain advances
// one unconditioned forward table through the positions and runs only
// the conditioned suffix per (i, a), and a network serves every value
// of a node from one rooted message pass. The sweeps split into
// position chunks that fan across the sched pool (bit-identical at
// every parallelism, like every scorer in this repository), and
// finished profiles are memoized in the shared core.ScoreCache keyed by
// (class fingerprint, cell) — profiles are ε-independent, so one warm
// entry serves every privacy budget.
package kantorovich

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"pufferfish/internal/core"
	"pufferfish/internal/dist"
	"pufferfish/internal/markov"
	"pufferfish/internal/noise"
	"pufferfish/internal/sched"
)

// Options tunes the profile sweeps.
type Options struct {
	// Parallelism bounds the worker count of the conditional-count
	// sweeps and distance sweeps: 0 uses every CPU, 1 runs strictly
	// serial. Profiles and scores are bit-identical at every setting.
	Parallelism int
}

// ProfilePairs sweeps W∞ and W₁ over an explicit pair list: the W∞
// supremum keeps its first maximizer (for the diagnostic label), the
// W₁ supremum is tracked independently, and the chunk-ordered merge
// reproduces the serial loop bit-for-bit at every parallelism.
func ProfilePairs(pairs []core.DistributionPair, opt Options) core.CellScore {
	type chunkBest struct {
		wInf, w1 float64
		idx      int
	}
	best := sched.ReduceChunks(sched.New(opt.Parallelism), len(pairs), chunkBest{idx: -1},
		func(start, end int) chunkBest {
			local := chunkBest{idx: -1}
			for i := start; i < end; i++ {
				if d := dist.WassersteinInf(pairs[i].Mu, pairs[i].Nu); d > local.wInf {
					local.wInf = d
					local.idx = i
				}
				if d := dist.Wasserstein1(pairs[i].Mu, pairs[i].Nu); d > local.w1 {
					local.w1 = d
				}
			}
			return local
		},
		func(acc, v chunkBest) chunkBest {
			if v.w1 > acc.w1 {
				acc.w1 = v.w1
			}
			if v.wInf > acc.wInf {
				acc.wInf = v.wInf
				acc.idx = v.idx
			}
			return acc
		})
	p := core.CellScore{WInf: best.wInf, W1: best.w1, Pairs: len(pairs)}
	if best.idx >= 0 {
		p.Label = pairs[best.idx].Label
	}
	return p
}

// ProfileInstance computes the transport profile of any Pufferfish
// instantiation exposed as a WassersteinInstance — the chain classes
// here, but also e.g. the flu clique substrate.
func ProfileInstance(inst core.WassersteinInstance, opt Options) (core.CellScore, error) {
	pairs, err := inst.ConditionalPairs()
	if err != nil {
		return core.CellScore{}, err
	}
	if len(pairs) == 0 {
		return core.CellScore{}, errors.New("kantorovich: instantiation produced no secret pairs")
	}
	return ProfilePairs(pairs, opt), nil
}

// CellProfile returns the memoized transport profile of one histogram
// cell of a chain class, computing (and storing) it on a miss. cache
// may be nil.
func CellProfile(cache *core.ScoreCache, class markov.Class, cell int, opt Options) (core.CellScore, error) {
	if err := validate(class); err != nil {
		return core.CellScore{}, err
	}
	sub := core.NewClassSubstrate(class)
	return CellProfileSubstrate(cache, sub, cell, opt)
}

// CellProfileSubstrate is CellProfile for any Substrate — the network
// classes route here. Profiles are memoized under the substrate's
// kind-tagged fingerprint, so a chain and a network can never share an
// entry.
func CellProfileSubstrate(cache *core.ScoreCache, sub core.Substrate, cell int, opt Options) (core.CellScore, error) {
	if err := validateSubstrate(sub); err != nil {
		return core.CellScore{}, err
	}
	if cell < 0 || cell >= sub.K() {
		return core.CellScore{}, fmt.Errorf("kantorovich: cell %d outside [0,%d)", cell, sub.K())
	}
	return cellProfile(cache, sub, core.SubstrateFingerprint(sub), cell, sched.New(opt.Parallelism))
}

func cellProfile(cache *core.ScoreCache, sub core.Substrate, fp core.Fingerprint, cell int, pool sched.Pool) (core.CellScore, error) {
	if p, ok := cache.LookupCell(fp, cell); ok {
		return p, nil
	}
	w := make([]int, sub.K())
	w[cell] = 1
	inst := core.CountInstance{Substrate: sub, W: w, Parallelism: pool.Workers()}
	pairs, err := inst.ConditionalPairs()
	if err != nil {
		return core.CellScore{}, err
	}
	if len(pairs) == 0 {
		return core.CellScore{}, errors.New("kantorovich: class admits no secret pairs")
	}
	p := ProfilePairs(pairs, Options{Parallelism: pool.Workers()})
	cache.StoreCell(fp, cell, p)
	return p, nil
}

// Score computes the Kantorovich mechanism's ChainScore for a class:
// per-cell profiles for every one of the k cells, and
//
//	σ = k · max_a W∞(a) / ε
//
// so that a count-level release of the histogram at per-coordinate
// Laplace scale σ spends ε/k per cell and composes to ε. The result
// reuses ChainScore with the subsystem's meaning: Node is the 0-based
// worst cell (not a chain node), Influence carries that cell's W₁
// supremum, and Quilt/Ell stay zero. It is ScoreBatch for one member
// holding the class's substrate.
func Score(cache *core.ScoreCache, class markov.Class, eps float64, opt Options) (core.ChainScore, error) {
	if err := validate(class); err != nil {
		return core.ChainScore{}, err
	}
	out, err := ScoreBatch(cache, [][]core.Substrate{{core.NewClassSubstrate(class)}}, eps, opt)
	if err != nil {
		return core.ChainScore{}, err
	}
	return out[0], nil
}

func scoreWith(cache *core.ScoreCache, sub core.Substrate, fp core.Fingerprint, eps float64, pool sched.Pool) (core.ChainScore, error) {
	k := sub.K()
	var worst core.CellScore
	worstCell := -1
	for cell := 0; cell < k; cell++ {
		p, err := cellProfile(cache, sub, fp, cell, pool)
		if err != nil {
			return core.ChainScore{}, err
		}
		if worstCell < 0 || p.WInf > worst.WInf {
			worst, worstCell = p, cell
		}
	}
	return core.ChainScore{
		Sigma:     float64(k) * worst.WInf / eps,
		Node:      worstCell,
		Influence: worst.W1,
	}, nil
}

// ChainSubstrates returns the substrates a database of independent
// chains with the given lengths, all governed by class (whose own T is
// ignored), is scored over: one view of the class per distinct length,
// in ascending order. Unlike the quilt scorers there is no plateau
// shortcut — W∞ has no constant-beyond-2ℓ+1 structure — so every
// distinct length is profiled (and cached) on its own. The maximum
// per-length score is sound for the joint database by convolution
// contraction: conditioning on a node of one session leaves every
// other session's count distribution as a common independent
// convolution term, and W∞(µ∗ρ, ν∗ρ) ≤ W∞(µ, ν), so the
// within-session supremum bounds the database-wide one.
func ChainSubstrates(class markov.Class, lengths []int) ([]core.Substrate, error) {
	if class == nil {
		return nil, errors.New("kantorovich: nil distribution class")
	}
	if len(lengths) == 0 {
		return nil, errors.New("kantorovich: no chain lengths")
	}
	distinct := slices.Clone(lengths)
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	if distinct[0] < 1 {
		return nil, fmt.Errorf("kantorovich: invalid chain length %d", distinct[0])
	}
	subs := make([]core.Substrate, len(distinct))
	for i, l := range distinct {
		subs[i] = core.NewClassSubstrate(core.WithLength(class, l))
	}
	return subs, nil
}

// ScoreBatch scores many members through one worker-pool invocation.
// A member is the list of substrates its release is scored over — one
// per distinct session length of a chain database (ChainSubstrates),
// or a single network — and its score is the first maximum-σ score
// over that list. Substrates are deduplicated by SubstrateFingerprint
// across all members before any work is scheduled, so a repeated chain
// length or network costs one sweep; the sweeps fan across the pool
// with the usual outer/inner budget split and consult the shared cache
// first. Results align with members and are bit-for-bit identical at
// any parallelism.
func ScoreBatch(cache *core.ScoreCache, members [][]core.Substrate, eps float64, opt Options) ([]core.ChainScore, error) {
	if len(members) == 0 {
		return nil, nil
	}
	if err := validateEps(eps); err != nil {
		return nil, err
	}
	type job struct {
		sub core.Substrate
		fp  core.Fingerprint
	}
	var jobs []job
	fpToJob := map[core.Fingerprint]int{}
	jobsOf := make([][]int, len(members)) // member → job indices, in member order
	for i, subs := range members {
		if len(subs) == 0 {
			return nil, fmt.Errorf("kantorovich: member %d: no substrates", i)
		}
		for _, sub := range subs {
			if err := validateSubstrate(sub); err != nil {
				return nil, fmt.Errorf("kantorovich: member %d: %w", i, err)
			}
			fp := core.SubstrateFingerprint(sub)
			j, ok := fpToJob[fp]
			if !ok {
				j = len(jobs)
				fpToJob[fp] = j
				jobs = append(jobs, job{sub: sub, fp: fp})
			}
			jobsOf[i] = append(jobsOf[i], j)
		}
	}
	res := make([]core.ChainScore, len(jobs))
	errs := make([]error, len(jobs))
	outer, inner := sched.New(opt.Parallelism).Split(len(jobs))
	outer.ForEach(len(jobs), func(j int) {
		res[j], errs[j] = scoreWith(cache, jobs[j].sub, jobs[j].fp, eps, inner)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make([]core.ChainScore, len(members))
	for i, js := range jobsOf {
		best := res[js[0]]
		for _, j := range js[1:] {
			if res[j].Sigma > best.Sigma {
				best = res[j]
			}
		}
		out[i] = best
	}
	return out, nil
}

// AdditiveNoise returns the noise.Additive backend calibrated so a
// scalar query with transport bound wInf released as value + noise
// meets the requested target: kind "laplace" gives b = W∞/ε
// (ε-Pufferfish, the Theorem 3.2 coupling argument; delta is
// ignored), kind "gaussian" gives σ = W∞·√(2·ln(1.25/δ))/ε (the
// (ε, δ) general additive-noise route of Pierquin et al., which the
// analytic calibration restricts to ε ∈ (0, 1] and δ ∈ (0, 1)).
func AdditiveNoise(kind string, wInf, eps, delta float64) (noise.Additive, error) {
	if err := validateEps(eps); err != nil {
		return nil, err
	}
	if !(wInf > 0) || math.IsInf(wInf, 1) {
		return nil, fmt.Errorf("kantorovich: invalid transport bound W∞ = %v", wInf)
	}
	switch kind {
	case "laplace":
		return noise.Laplace(wInf / eps)
	case "gaussian":
		sigma, err := noise.GaussianSigma(wInf, eps, delta)
		if err != nil {
			return nil, err
		}
		return noise.Gaussian(sigma)
	default:
		return nil, fmt.Errorf("kantorovich: unknown noise kind %q (want laplace|gaussian)", kind)
	}
}

// GaussianCountScale calibrates the Gaussian analogue of the
// mechanism's histogram release: per-coordinate N(0, σ²) noise at the
// count level, with each of the k cells granted the per-cell budget
// (ε/k, δ/k) so the joint release composes to (ε, δ) exactly as the
// Laplace path's ε/k-per-cell split does. wInf is the worst cell's
// transport bound (max_a W∞(a)); the returned σ is
//
//	σ = W∞max · √(2·ln(1.25·k/δ)) · k/ε
//
// (noise.GaussianSigma at the per-cell budget). The analytic
// calibration restricts the per-cell ε/k to (0, 1] and δ/k to (0, 1).
func GaussianCountScale(wInf, eps, delta float64, k int) (float64, error) {
	if k < 1 {
		return 0, fmt.Errorf("kantorovich: invalid cell count k = %d", k)
	}
	return noise.GaussianSigma(wInf, eps/float64(k), delta/float64(k))
}

func validate(class markov.Class) error {
	if class == nil {
		return errors.New("kantorovich: nil distribution class")
	}
	if class.T() < 1 {
		return fmt.Errorf("kantorovich: chain length %d < 1", class.T())
	}
	if class.K() < 2 {
		return fmt.Errorf("kantorovich: state space needs at least 2 states, got %d", class.K())
	}
	return nil
}

func validateSubstrate(sub core.Substrate) error {
	if sub == nil {
		return errors.New("kantorovich: nil substrate")
	}
	if sub.Len() < 1 {
		return fmt.Errorf("kantorovich: substrate length %d < 1", sub.Len())
	}
	if sub.K() < 2 {
		return fmt.Errorf("kantorovich: state space needs at least 2 states, got %d", sub.K())
	}
	return nil
}

func validateEps(eps float64) error {
	if !(eps > 0) || math.IsInf(eps, 1) || math.IsNaN(eps) {
		return fmt.Errorf("kantorovich: invalid privacy parameter ε = %v", eps)
	}
	return nil
}
