package core

import (
	"math/rand/v2"
	"testing"

	"pufferfish/internal/activity"
	"pufferfish/internal/markov"
)

// The scoring engine promises bit-for-bit identical results at every
// parallelism level. These golden tests pin that promise on the
// paper's substrates; running them under -race also certifies the
// worker fan-outs.

// parallelLevels exercises serial, a worker count above this
// container's CPU count, and the auto (all CPUs) setting.
var parallelLevels = []int{1, 4, 0}

func scoresIdentical(t *testing.T, label string, got, want ChainScore) {
	t.Helper()
	if got != want {
		t.Errorf("%s: parallel score %+v != serial %+v", label, got, want)
	}
}

func fig4Classes(t *testing.T) map[string]markov.Class {
	t.Helper()
	// The Figure 4 synthetic classes: binary-interval continuum classes
	// (all initial distributions, Appendix C.4 path) at two α, and a
	// stationary singleton (stationary-shortcut path).
	bi1, err := markov.NewBinaryInterval(0.2, 0.8, 60)
	if err != nil {
		t.Fatal(err)
	}
	bi1.GridN = 3
	bi2, err := markov.NewBinaryInterval(0.35, 0.65, 40)
	if err != nil {
		t.Fatal(err)
	}
	bi2.GridN = 4
	stat, err := markov.BinaryChain(0.5, 0.9, 0.85).StationaryChain()
	if err != nil {
		t.Fatal(err)
	}
	single, err := markov.NewFinite([]markov.Chain{stat}, 300)
	if err != nil {
		t.Fatal(err)
	}
	// A non-stationary start forces the full node sweep.
	sweep, err := markov.NewFinite([]markov.Chain{markov.BinaryChain(0.9, 0.8, 0.7)}, 120)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]markov.Class{
		"interval(0.2,0.8)":   bi1,
		"interval(0.35,0.65)": bi2,
		"stationary":          single,
		"fullsweep":           sweep,
	}
}

func TestExactScoreParallelGolden(t *testing.T) {
	for name, class := range fig4Classes(t) {
		serial, err := ExactScore(class, 1, ExactOptions{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, par := range parallelLevels[1:] {
			got, err := ExactScore(class, 1, ExactOptions{Parallelism: par})
			if err != nil {
				t.Fatalf("%s par=%d: %v", name, par, err)
			}
			scoresIdentical(t, name, got, serial)
		}
		// The forced full sweep must agree with itself across levels too.
		serialSweep, err := ExactScore(class, 1, ExactOptions{ForceFullSweep: true, Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gotSweep, err := ExactScore(class, 1, ExactOptions{ForceFullSweep: true, Parallelism: 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		scoresIdentical(t, name+"/forced", gotSweep, serialSweep)
	}
}

func TestApproxScoreParallelGolden(t *testing.T) {
	for name, class := range fig4Classes(t) {
		for _, force := range []bool{false, true} {
			serial, err := ApproxScore(class, 1, ApproxOptions{ForceFullSweep: force, Parallelism: 1})
			if err != nil {
				t.Fatalf("%s force=%v: %v", name, force, err)
			}
			for _, par := range parallelLevels[1:] {
				got, err := ApproxScore(class, 1, ApproxOptions{ForceFullSweep: force, Parallelism: par})
				if err != nil {
					t.Fatalf("%s force=%v par=%d: %v", name, force, par, err)
				}
				scoresIdentical(t, name, got, serial)
			}
		}
	}
}

func TestWassersteinScaleParallelGoldenChain(t *testing.T) {
	class, err := markov.NewFinite([]markov.Chain{
		markov.BinaryChain(0.5, 0.9, 0.9),
		markov.BinaryChain(0.3, 0.7, 0.6),
	}, 8)
	if err != nil {
		t.Fatal(err)
	}
	serialInst := ChainCountInstance{Class: class, W: []int{0, 1}, Parallelism: 1}
	wSerial, worstSerial, err := WassersteinScaleOpt(serialInst, WassersteinOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range parallelLevels[1:] {
		inst := ChainCountInstance{Class: class, W: []int{0, 1}, Parallelism: par}
		w, worst, err := WassersteinScaleOpt(inst, WassersteinOptions{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if w != wSerial || worst.Label != worstSerial.Label {
			t.Errorf("par=%d: (W=%v, worst=%q) != serial (W=%v, worst=%q)",
				par, w, worst.Label, wSerial, worstSerial.Label)
		}
	}
}

func TestExactScoreMultiParallelGoldenActivity(t *testing.T) {
	// A shrunken activity cohort: the multi-length scoring path the
	// Table 1 experiments use.
	rng := rand.New(rand.NewPCG(5, 6))
	profile := activity.DefaultProfile(activity.Active)
	profile.Participants = 3
	profile.SessionsPerPerson = 4
	ds, err := activity.Generate(profile, rng)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := ds.EmpiricalChain(0.5)
	if err != nil {
		t.Fatal(err)
	}
	class, err := markov.NewSingleton(chain, ds.LongestSession())
	if err != nil {
		t.Fatal(err)
	}
	var lengths []int
	for _, p := range ds.People {
		for _, s := range p.Sessions {
			lengths = append(lengths, len(s))
		}
	}
	serialExact := exactMulti(t, nil, class, 1, ExactOptions{Parallelism: 1}, lengths)
	serialApprox := approxMulti(t, nil, class, 1, ApproxOptions{Parallelism: 1}, lengths)
	checkMultiOracle(t, "activity/exact", serialExact, perLengthScores(t, class, lengths, exactOracle(1, ExactOptions{Parallelism: 1})))
	checkMultiOracle(t, "activity/approx", serialApprox, perLengthScores(t, class, lengths, approxOracle(1, ApproxOptions{Parallelism: 1})))
	for _, par := range parallelLevels[1:] {
		scoresIdentical(t, "activity/exact", exactMulti(t, nil, class, 1, ExactOptions{Parallelism: par}, lengths), serialExact)
		scoresIdentical(t, "activity/approx", approxMulti(t, nil, class, 1, ApproxOptions{Parallelism: par}, lengths), serialApprox)
	}
}

func TestConditionalPairsDeterministicOrder(t *testing.T) {
	class, err := markov.NewFinite([]markov.Chain{markov.BinaryChain(0.5, 0.8, 0.7)}, 6)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := ChainCountInstance{Class: class, W: []int{0, 1}, Parallelism: 1}.ConditionalPairs()
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ChainCountInstance{Class: class, W: []int{0, 1}, Parallelism: 4}.ConditionalPairs()
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("pair counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Label != parallel[i].Label {
			t.Errorf("pair %d: %q vs %q", i, serial[i].Label, parallel[i].Label)
		}
	}
}
