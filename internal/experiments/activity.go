package experiments

import (
	"fmt"
	"math"
	"math/rand/v2"

	"pufferfish/internal/activity"
	"pufferfish/internal/core"
	"pufferfish/internal/floats"
	"pufferfish/internal/laplace"
	"pufferfish/internal/markov"
)

// ScoreCache re-exports the engine's score cache type for CLI callers.
type ScoreCache = core.ScoreCache

// NewScoreCache re-exports the engine's score cache so CLI callers can
// thread one through experiment configs without importing
// internal/core. Reused across repeated runs of a deterministic config
// (same seeds ⇒ same empirical chains ⇒ same fingerprints), it
// eliminates all but the first scoring sweep; results are bit-identical
// either way.
func NewScoreCache() *core.ScoreCache { return core.NewScoreCache() }

// Mechanism labels shared by the activity and power experiments.
const (
	MechDP      = "DP"
	MechGroupDP = "GroupDP"
	MechGK16    = "GK16"
	MechApprox  = "MQMApprox"
	MechExact   = "MQMExact"
)

// ActivityConfig parameterizes the Section 5.3.1 experiments (Table 1
// and Figure 4's lower row).
type ActivityConfig struct {
	// Eps is the privacy parameter (paper: 1).
	Eps float64
	// Trials is the number of noise draws averaged (paper: 20).
	Trials int
	// Smoothing is the additive smoothing of the empirical chain.
	Smoothing float64
	// PopulationScale shrinks the cohorts for quick runs (1 = paper
	// scale; 0.2 keeps every code path but ~25× faster).
	PopulationScale float64
	Seed            uint64
	// Parallelism bounds each score computation's worker count
	// (0 = all CPUs, 1 = serial); results are identical either way.
	Parallelism int
	// Cache optionally memoizes quilt scores across runs sharing the
	// config (e.g. `pufferbench all -cache` runs the activity
	// experiment for both Figure 4 and Table 1); results are
	// bit-identical either way.
	Cache *core.ScoreCache
}

// DefaultActivityConfig returns the paper's parameters.
func DefaultActivityConfig() ActivityConfig {
	return ActivityConfig{Eps: 1, Trials: 20, Smoothing: 0.5, PopulationScale: 1, Seed: 2}
}

// ActivityResult is one cohort's measurements.
type ActivityResult struct {
	Group activity.Group
	// People / Observations describe the simulated cohort.
	People       int
	Observations int
	// ExactAggHist is the true aggregated relative-frequency histogram
	// (the black bars of Figure 4's lower row).
	ExactAggHist []float64
	// MeanPrivateHists[mech] is the trial-averaged released histogram
	// (the coloured bars of Figure 4's lower row).
	MeanPrivateHists map[string][]float64
	// AggErrors / IndiErrors are the Table 1 columns: mean L1 error of
	// the aggregate histogram and mean (over people) L1 error of the
	// per-person histograms. NaN = N/A.
	AggErrors  map[string]float64
	IndiErrors map[string]float64
	// Sigmas records the computed noise scores for the quilt
	// mechanisms.
	Sigmas map[string]float64
}

// ActivityExperiment simulates the three cohorts and measures every
// mechanism on both tasks. The model class handed to the mechanisms is
// the singleton empirical chain estimated from the cohort's data with
// stationary initial distribution, exactly as in the paper.
func ActivityExperiment(cfg ActivityConfig) ([]ActivityResult, error) {
	if cfg.Eps <= 0 || cfg.Trials < 1 {
		return nil, fmt.Errorf("experiments: invalid config %+v", cfg)
	}
	if cfg.PopulationScale <= 0 || cfg.PopulationScale > 1 {
		return nil, fmt.Errorf("experiments: invalid population scale %v", cfg.PopulationScale)
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x51ed2701))
	var out []ActivityResult
	for _, g := range activity.Groups {
		res, err := activityGroup(cfg, g, rng)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

func activityGroup(cfg ActivityConfig, g activity.Group, rng *rand.Rand) (ActivityResult, error) {
	profile := activity.DefaultProfile(g)
	if cfg.PopulationScale < 1 {
		profile.Participants = maxInt(2, int(float64(profile.Participants)*cfg.PopulationScale))
		profile.SessionsPerPerson = maxInt(3, int(float64(profile.SessionsPerPerson)*cfg.PopulationScale*2))
	}
	ds, err := activity.Generate(profile, rng)
	if err != nil {
		return ActivityResult{}, err
	}
	chain, err := ds.EmpiricalChain(cfg.Smoothing)
	if err != nil {
		return ActivityResult{}, err
	}
	class, err := markov.NewSingleton(chain, ds.LongestSession())
	if err != nil {
		return ActivityResult{}, err
	}
	// The database is a set of independent gap-split chains of many
	// lengths; σ is the max over distinct lengths.
	var lengths []int
	for _, p := range ds.People {
		for _, s := range p.Sessions {
			lengths = append(lengths, len(s))
		}
	}

	res := ActivityResult{
		Group:            g,
		People:           len(ds.People),
		Observations:     ds.TotalObservations(),
		MeanPrivateHists: map[string][]float64{},
		AggErrors:        map[string]float64{},
		IndiErrors:       map[string]float64{},
		Sigmas:           map[string]float64{},
	}

	// Quilt-mechanism scores over every distinct session length (a nil
	// cfg.Cache scores without memoizing).
	spec := []core.MultiSpec{{Class: class, Lengths: lengths}}
	approx, err := core.ApproxScoreMultiBatch(cfg.Cache, spec, cfg.Eps, core.ApproxOptions{Parallelism: cfg.Parallelism})
	if err != nil {
		return ActivityResult{}, err
	}
	exact, err := core.ExactScoreMultiBatch(cfg.Cache, spec, cfg.Eps, core.ExactOptions{Parallelism: cfg.Parallelism})
	if err != nil {
		return ActivityResult{}, err
	}
	res.Sigmas[MechApprox] = approx[0].Sigma
	res.Sigmas[MechExact] = exact[0].Sigma
	if gk, err := core.GK16SigmaClass(class, cfg.Eps); err == nil {
		res.Sigmas[MechGK16] = gk.Sigma
	} else {
		res.Sigmas[MechGK16] = math.NaN()
	}

	k := activity.NumActivities
	nTotal := float64(ds.TotalObservations())
	nPeople := float64(len(ds.People))

	// Exact aggregate histogram (pooled over all observations).
	agg := make([]float64, k)
	for _, p := range ds.People {
		for _, s := range p.Sessions {
			for _, x := range s {
				agg[x]++
			}
		}
	}
	for i := range agg {
		agg[i] /= nTotal
	}
	res.ExactAggHist = agg

	// Aggregate-task per-bin noise scales.
	worstPersonShare := 0.0 // max_p N_p / N_total (person-level DP)
	worstSessionShare := 0.0
	for _, p := range ds.People {
		if share := float64(p.Observations()) / nTotal; share > worstPersonShare {
			worstPersonShare = share
		}
		if share := float64(p.LongestSession()) / nTotal; share > worstSessionShare {
			worstSessionShare = share
		}
	}
	aggScale := map[string]float64{
		MechDP:      2 * worstPersonShare / cfg.Eps,
		MechGroupDP: 2 * worstSessionShare / cfg.Eps,
		MechApprox:  2 * approx[0].Sigma / nTotal,
		MechExact:   2 * exact[0].Sigma / nTotal,
		MechGK16:    math.NaN(),
	}
	if !math.IsNaN(res.Sigmas[MechGK16]) {
		aggScale[MechGK16] = 2 * res.Sigmas[MechGK16] / nTotal
	}

	// Aggregate task: Trials noisy releases per mechanism. Iterate in
	// fixed order — ranging over the map consumes the shared rng in a
	// per-run random order, breaking the package's determinism contract
	// (and making the statistical assertions flaky).
	for _, mech := range []string{MechDP, MechGroupDP, MechApprox, MechExact, MechGK16} {
		scale := aggScale[mech]
		var sum float64
		var hist []float64
		for trial := 0; trial < cfg.Trials; trial++ {
			noisy, errv := noisyHist(agg, scale, rng)
			sum += errv
			if hist == nil {
				hist = make([]float64, k)
			}
			for i := range hist {
				hist[i] += noisy[i] / float64(cfg.Trials)
			}
		}
		if math.IsNaN(scale) {
			res.AggErrors[mech] = math.NaN()
			continue
		}
		res.AggErrors[mech] = sum / float64(cfg.Trials)
		if mech != MechDP && mech != MechGK16 {
			res.MeanPrivateHists[mech] = hist
		}
	}

	// Individual task: per person, release their own relative
	// frequency histogram; report the cohort-mean L1 error.
	indiSum := map[string]float64{}
	for _, p := range ds.People {
		n := float64(p.Observations())
		m := float64(p.LongestSession())
		ph := make([]float64, k)
		for _, s := range p.Sessions {
			for _, x := range s {
				ph[x]++
			}
		}
		for i := range ph {
			ph[i] /= n
		}
		scales := map[string]float64{
			MechGroupDP: 2 * m / (n * cfg.Eps),
			MechApprox:  2 * approx[0].Sigma / n,
			MechExact:   2 * exact[0].Sigma / n,
		}
		// Fixed order for the same determinism reason as the aggregate
		// task above.
		for _, mech := range []string{MechGroupDP, MechApprox, MechExact} {
			scale := scales[mech]
			var sum float64
			for trial := 0; trial < cfg.Trials; trial++ {
				_, errv := noisyHist(ph, scale, rng)
				sum += errv
			}
			indiSum[mech] += sum / float64(cfg.Trials)
		}
	}
	for mech, sum := range indiSum {
		res.IndiErrors[mech] = sum / nPeople
	}
	res.IndiErrors[MechDP] = math.NaN()   // no meaningful person-level DP for one person's series
	res.IndiErrors[MechGK16] = math.NaN() // inapplicable (spectral condition)
	return res, nil
}

// noisyHist adds Lap(scale) per bin and returns the noisy histogram
// and its L1 error. NaN scale returns NaN error.
func noisyHist(exact []float64, scale float64, rng *rand.Rand) ([]float64, float64) {
	if math.IsNaN(scale) || math.IsInf(scale, 1) {
		return append([]float64{}, exact...), math.NaN()
	}
	noisy := laplace.AddNoise(exact, scale, rng)
	return noisy, floats.L1Dist(noisy, exact)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// RenderTable1 formats the Table 1 layout: per cohort, aggregate and
// individual errors for every mechanism.
func RenderTable1(results []ActivityResult, eps float64) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Table 1: physical activity, L1 errors (ε = %g)", eps),
		Header: []string{"Algorithm"},
	}
	for _, r := range results {
		t.Header = append(t.Header, r.Group.String()+" Agg", r.Group.String()+" Indi")
	}
	for _, mech := range []string{MechDP, MechGroupDP, MechGK16, MechApprox, MechExact} {
		row := []string{mech}
		for _, r := range results {
			row = append(row, Fmt(r.AggErrors[mech], 4), Fmt(r.IndiErrors[mech], 4))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// RenderFig4Bottom formats one cohort's Figure 4 lower-row panel:
// exact aggregated histogram next to the mean private histograms.
func RenderFig4Bottom(r ActivityResult, eps float64) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Figure 4 (bottom): %s aggregate, ε = %g", r.Group, eps),
		Header: []string{"Activity", "Exact", MechGroupDP, MechApprox, MechExact},
	}
	for s := 0; s < activity.NumActivities; s++ {
		row := []string{activity.ActivityName(s), Fmt(r.ExactAggHist[s], 4)}
		for _, mech := range []string{MechGroupDP, MechApprox, MechExact} {
			h := r.MeanPrivateHists[mech]
			if h == nil {
				row = append(row, "N/A")
			} else {
				row = append(row, Fmt(h[s], 4))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
