package core

import (
	"errors"
	"math/rand/v2"
	"testing"

	"pufferfish/internal/accounting"
	"pufferfish/internal/query"
)

// TestCompositionFailedFirstReleaseRescales is the regression test for
// the pinned-ε bug: a first Release that fails *after* scoring (bad
// data) used to pin c.score without any release history, so a second
// Release at a different ε skipped the rescale guard and went out with
// σ computed for the failed call's ε — under-noised whenever ε₂ > ε₁.
// The second release must get σ(ε₂), exactly what a fresh composition
// at ε₂ releases with.
func TestCompositionFailedFirstReleaseRescales(t *testing.T) {
	class := cacheTestClass(t, 0.9, 60)
	good := make([]int, 60)
	for i := range good {
		good[i] = i % 2
	}
	bad := append([]int{}, good...)
	bad[10] = 7 // outside K=2: Evaluate fails after the score is pinned
	q := query.RelFreqHistogram{K: 2, N: len(good)}
	// ε₂ < ε₁ is the dangerous direction: σ(ε₁) < σ(ε₂), so skipping
	// the rescale released with too little noise for ε₂. ε₂ stays
	// above the pinned quilt's influence so the rescale is feasible.
	const eps1, eps2 = 2.0, 1.0

	newComp := func(exact bool) *Composition {
		if exact {
			return NewExactComposition(class, ExactOptions{})
		}
		return NewApproxComposition(class)
	}
	for _, exact := range []bool{true, false} {
		comp := newComp(exact)
		rng := rand.New(rand.NewPCG(1, 2))
		if _, err := comp.Release(bad, q, eps1, rng); err == nil {
			t.Fatal("release of out-of-range data succeeded")
		}
		if comp.Count() != 0 {
			t.Fatalf("failed release was counted: %d", comp.Count())
		}
		rel, err := comp.Release(good, q, eps2, rng)
		if err != nil {
			t.Fatal(err)
		}

		// The oracle is a composition whose first release *succeeded*
		// at ε₁ and then rescaled its pinned quilt to ε₂ — the exact
		// semantics the failed first release must not change. (Noise
		// values differ — the oracle's rng drew for two releases — so
		// only the deterministic σ and scale are compared.)
		oracle := newComp(exact)
		first, err := oracle.Release(good, q, eps1, rand.New(rand.NewPCG(1, 2)))
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Release(good, q, eps2, rand.New(rand.NewPCG(1, 2)))
		if err != nil {
			t.Fatal(err)
		}
		if rel.Sigma != want.Sigma || rel.NoiseScale != want.NoiseScale {
			t.Errorf("exact=%v: after failed first release σ = %v (scale %v), want σ(ε₂) = %v (scale %v)",
				exact, rel.Sigma, rel.NoiseScale, want.Sigma, want.NoiseScale)
		}
		// And σ(ε₂) really is bigger than the σ(ε₁) the bug leaked.
		if rel.Sigma <= first.Sigma {
			t.Errorf("exact=%v: σ(ε₂) = %v not above the failed call's σ(ε₁) = %v",
				exact, rel.Sigma, first.Sigma)
		}
		if comp.Count() != 1 || comp.TotalEpsilon() != eps2 {
			t.Errorf("exact=%v: accounting (K=%d, total=%v), want (1, %v)",
				exact, comp.Count(), comp.TotalEpsilon(), eps2)
		}
	}
}

// TestCompositionAccountantPluggable: the default ledger reports the
// Theorem 4.4 linear total (bit-identical to K·max ε), a caller's
// ledger is charged exactly the successful releases, and swapping the
// ledger never changes the released values.
func TestCompositionAccountantPluggable(t *testing.T) {
	class := cacheTestClass(t, 0.9, 60)
	data := make([]int, 60)
	for i := range data {
		data[i] = i % 2
	}
	q := query.RelFreqHistogram{K: 2, N: len(data)}
	epsSeq := []float64{1, 0.5, 2}

	run := func(led *accounting.Ledger) ([][]float64, *Composition) {
		comp := NewExactComposition(class, ExactOptions{}).WithAccountant(led)
		rng := rand.New(rand.NewPCG(3, 4))
		var values [][]float64
		for _, eps := range epsSeq {
			rel, err := comp.Release(data, q, eps, rng)
			if err != nil {
				t.Fatal(err)
			}
			values = append(values, rel.Values)
		}
		return values, comp
	}

	defValues, defComp := run(nil) // nil restores the default
	if got, want := defComp.TotalEpsilon(), 3*2.0; got != want {
		t.Errorf("default accountant total = %v, want %v", got, want)
	}
	if got := defComp.Accountant().Delta(); got != accounting.DefaultDelta {
		t.Errorf("default ledger δ = %v, want %v", got, accounting.DefaultDelta)
	}

	// Swapping the accountant after releases would discard history —
	// it must refuse loudly.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("WithAccountant after releases did not panic")
			}
		}()
		defComp.WithAccountant(accounting.NewLedger(accounting.DefaultDelta))
	}()

	led := accounting.NewLedger(1e-6)
	ledValues, ledComp := run(led)
	if led.Count() != len(epsSeq) || led.LinearEpsilon() != 6 {
		t.Errorf("caller's ledger recorded (K=%d, linear=%v)", led.Count(), led.LinearEpsilon())
	}
	got := led.Entries()
	if len(got) != 3 || got[0].Eps != 1 || got[1].Eps != 0.5 || got[2].Eps != 2 {
		t.Errorf("recorded entries = %+v", got)
	}
	for _, e := range got {
		if e.Kind != accounting.KindPure {
			t.Errorf("entry kind = %v, want pure", e.Kind)
		}
	}
	if ledComp.Count() != 3 || ledComp.Accountant() != led {
		t.Errorf("composition count = %d, ledger %p (want %p)", ledComp.Count(), ledComp.Accountant(), led)
	}
	for i := range defValues {
		for j := range defValues[i] {
			if defValues[i][j] != ledValues[i][j] {
				t.Fatalf("release %d differs across accountants", i)
			}
		}
	}
}

// failingJournal refuses every append, like a full disk under a WAL.
type failingJournal struct{}

func (failingJournal) Append(string, accounting.Entry) (uint64, error) {
	return 0, errors.New("disk full")
}
func (failingJournal) Applied(uint64) {}

// TestCompositionLedgerRefusal: a release the ledger refuses — over
// its ceiling, or with a failing journal — comes back as an error
// with no values and is not counted, instead of panicking after the
// noise was drawn.
func TestCompositionLedgerRefusal(t *testing.T) {
	class := cacheTestClass(t, 0.9, 60)
	data := make([]int, 60)
	for i := range data {
		data[i] = i % 2
	}
	q := query.RelFreqHistogram{K: 2, N: len(data)}

	ceilinged := accounting.NewLedger(accounting.DefaultDelta)
	if err := ceilinged.SetCeiling(1.5, 0); err != nil {
		t.Fatal(err)
	}
	comp := NewExactComposition(class, ExactOptions{}).WithAccountant(ceilinged)
	rng := rand.New(rand.NewPCG(5, 6))
	if _, err := comp.Release(data, q, 1, rng); err != nil {
		t.Fatalf("release under the ceiling: %v", err)
	}
	rel, err := comp.Release(data, q, 1, rng)
	if !errors.Is(err, accounting.ErrCeilingExceeded) {
		t.Fatalf("over-ceiling release: err = %v, want ErrCeilingExceeded", err)
	}
	if rel.Values != nil {
		t.Errorf("refused release returned values %v", rel.Values)
	}
	if comp.Count() != 1 {
		t.Errorf("refused release was counted: %d", comp.Count())
	}

	journaled := accounting.NewLedger(accounting.DefaultDelta)
	journaled.SetJournal(failingJournal{}, "s")
	comp = NewExactComposition(class, ExactOptions{}).WithAccountant(journaled)
	rel, err = comp.Release(data, q, 1, rng)
	if !errors.Is(err, accounting.ErrJournal) || rel.Values != nil || comp.Count() != 0 {
		t.Errorf("failing journal: err = %v, values %v, count %d", err, rel.Values, comp.Count())
	}
}
