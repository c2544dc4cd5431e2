package accounting

import (
	"encoding/json"
	"math"
	"testing"
)

func mustEpsilon(t *testing.T, l *Ledger, delta float64) float64 {
	t.Helper()
	eps, err := l.Epsilon(delta)
	if err != nil {
		t.Fatal(err)
	}
	return eps
}

// TestSinglePureReleaseIsLinear: the degenerate case of Theorem 4.4 —
// one pure release at ε must report exactly ε at every δ.
func TestSinglePureReleaseIsLinear(t *testing.T) {
	for _, eps := range []float64{0.1, 1, 2.5} {
		l := NewLedger(1e-5)
		if err := l.AddPure("mqm-exact", eps); err != nil {
			t.Fatal(err)
		}
		for _, delta := range []float64{1e-9, 1e-5, 1e-2} {
			if got := mustEpsilon(t, l, delta); got != eps {
				t.Errorf("ε = %v at δ = %v: got %v, want exactly ε", eps, delta, got)
			}
		}
		if got := l.LinearEpsilon(); got != eps {
			t.Errorf("linear ε = %v, want %v", got, eps)
		}
		if got := l.State().Epsilon; got != eps {
			t.Errorf("State().Epsilon = %v, want %v", got, eps)
		}
	}
}

// TestEmptyAndInvalid: an empty ledger reports 0; invalid δ and
// invalid entries are rejected without changing state.
func TestEmptyAndInvalid(t *testing.T) {
	l := NewLedger(0) // 0 selects the default δ
	if l.Delta() != DefaultDelta {
		t.Fatalf("default δ = %v", l.Delta())
	}
	if got := mustEpsilon(t, l, 1e-5); got != 0 {
		t.Errorf("empty ledger ε = %v", got)
	}
	if _, err := l.Epsilon(0); err == nil {
		t.Error("δ = 0 accepted")
	}
	if _, err := l.Epsilon(1); err == nil {
		t.Error("δ = 1 accepted")
	}
	bad := []Entry{
		{Kind: KindPure, Eps: 0},
		{Kind: KindPure, Eps: math.Inf(1)},
		{Kind: KindPure, Eps: math.NaN()},
		{Kind: KindPure, Eps: 1, Rho: 0.5},
		{Kind: KindPure, Eps: 1, Delta: 1e-5},
		{Kind: KindGaussian, Eps: 1, Delta: 1e-5, Rho: 0},
		{Kind: KindGaussian, Eps: 1, Delta: 1e-5, Rho: math.NaN()},
		{Kind: KindGaussian, Eps: 1, Delta: 0, Rho: 0.1},
		{Kind: KindGaussian, Eps: 1, Delta: 1.5, Rho: 0.1},
		{Kind: "mystery", Eps: 1},
	}
	for _, e := range bad {
		if err := l.Add(e); err == nil {
			t.Errorf("invalid entry accepted: %+v", e)
		}
	}
	if l.Count() != 0 {
		t.Fatalf("rejected entries changed state: count = %d", l.Count())
	}
}

// TestGaussianCompositionBeatsLinear: K repeated Gaussian releases
// compose at ~K·ρ + 2√(K·ρ·log(1/δ)), strictly below the linear K·ε
// once K grows — the whole point of the ledger.
func TestGaussianCompositionBeatsLinear(t *testing.T) {
	const eps, delta = 1.0, 1e-5
	// ρ of the analytic Gaussian calibration at (ε, δ):
	// σ = W∞√(2 ln(1.25/δ))/ε ⇒ ρ = W∞²/(2σ²) = ε²/(4 ln(1.25/δ)).
	rho := eps * eps / (4 * math.Log(1.25/delta))
	l := NewLedger(delta)
	prev := 0.0
	for k := 1; k <= 32; k++ {
		if err := l.AddGaussian("kantorovich", rho, eps, delta); err != nil {
			t.Fatal(err)
		}
		got := mustEpsilon(t, l, delta)
		linear := l.LinearEpsilon()
		if linear != float64(k)*eps {
			t.Fatalf("K = %d: linear = %v", k, linear)
		}
		if got > linear {
			t.Errorf("K = %d: RDP ε %v exceeds linear %v", k, got, linear)
		}
		if k >= 4 && got >= linear {
			t.Errorf("K = %d: RDP ε %v not strictly below linear %v", k, got, linear)
		}
		// The accumulated guarantee can only degrade with more releases.
		if got < prev {
			t.Errorf("K = %d: ε decreased %v → %v", k, prev, got)
		}
		prev = got
		// Sanity against the closed-form zCDP conversion at this K: the
		// grid minimum can't beat the continuous optimum K·ρ + 2√(K·ρ·
		// ln(1/δ)) by more than grid slack, and must be within 5% above.
		analytic := float64(k)*rho + 2*math.Sqrt(float64(k)*rho*math.Log(1/delta))
		if got > 1.05*analytic && got > linear {
			t.Errorf("K = %d: grid ε %v far above analytic %v", k, got, analytic)
		}
	}
	if got, want := l.Rho(), 32*rho; math.Abs(got-want) > 1e-12 {
		t.Errorf("accumulated ρ = %v, want %v", got, want)
	}
	if got, want := l.DeltaSum(), 32*delta; math.Abs(got-want) > 1e-12 {
		t.Errorf("ΔSum = %v, want %v", got, want)
	}
}

// TestPureCompositionNeverWorseThanLinear: homogeneous pure releases —
// the Theorem 4.4 regime — must stay at or below K·ε, and beat it
// clearly for many small-ε releases (the ½ε²-zCDP branch).
func TestPureCompositionNeverWorseThanLinear(t *testing.T) {
	const eps, delta = 0.1, 1e-6
	l := NewLedger(delta)
	for k := 1; k <= 100; k++ {
		if err := l.AddPure("", eps); err != nil {
			t.Fatal(err)
		}
		if got, linear := mustEpsilon(t, l, delta), l.LinearEpsilon(); got > linear {
			t.Fatalf("K = %d: RDP ε %v exceeds linear %v", k, got, linear)
		}
	}
	// 100 releases at ε = 0.1: linear says 10; the Rényi curve (ρ =
	// K·ε²/2 = 0.5) lands around ρ + 2√(ρ·ln 1e6) ≈ 5.76.
	if got := mustEpsilon(t, l, delta); got >= 6 {
		t.Errorf("100×ε=0.1: RDP ε = %v, want < 6 (linear 10)", got)
	}
}

// TestHeterogeneousMaxTracking: the linear bound is K·max ε over a
// mixed sequence, matching Theorem 4.4's arithmetic.
func TestHeterogeneousMaxTracking(t *testing.T) {
	l := NewLedger(1e-5)
	for _, e := range []float64{0.5, 2, 1} {
		if err := l.AddPure("", e); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.LinearEpsilon(); got != 6 {
		t.Errorf("linear = %v, want 3·2 = 6", got)
	}
	if l.Count() != 3 {
		t.Errorf("count = %d", l.Count())
	}
}

// TestEpsilonMemoization: repeated queries at one δ must hit the memo
// (same value back), and an Add must invalidate it.
func TestEpsilonMemoization(t *testing.T) {
	l := NewLedger(1e-5)
	if err := l.AddGaussian("", 0.02, 1, 1e-5); err != nil {
		t.Fatal(err)
	}
	a := mustEpsilon(t, l, 1e-5)
	if b := mustEpsilon(t, l, 1e-5); b != a {
		t.Errorf("memoized query changed: %v != %v", b, a)
	}
	if err := l.AddGaussian("", 0.02, 1, 1e-5); err != nil {
		t.Fatal(err)
	}
	if c := mustEpsilon(t, l, 1e-5); c <= a {
		t.Errorf("ε did not grow after Add: %v <= %v", c, a)
	}
}

// TestCurveAndEntries: the accumulated curve is the pointwise sum of
// the per-entry curves, and Entries returns an isolated copy.
func TestCurveAndEntries(t *testing.T) {
	l := NewLedger(1e-5)
	if err := l.AddPure("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := l.AddGaussian("b", 0.1, 1, 1e-5); err != nil {
		t.Fatal(err)
	}
	entries := l.Entries()
	if len(entries) != 2 || entries[0].Mechanism != "a" || entries[1].Mechanism != "b" {
		t.Fatalf("entries = %+v", entries)
	}
	for _, pt := range l.Curve(ReportAlphas) {
		want := entries[0].EpsAlpha(pt.Alpha) + entries[1].EpsAlpha(pt.Alpha)
		if pt.Eps != want {
			t.Errorf("curve(%v) = %v, want %v", pt.Alpha, pt.Eps, want)
		}
	}
	entries[0].Eps = 99 // mutating the copy must not touch the ledger
	if l.Entries()[0].Eps != 1 {
		t.Error("Entries returned shared storage")
	}
}

// TestSnapshotRoundTrip: Snapshot → JSON → Restore reproduces the
// ledger's accounting exactly; corrupted snapshots are rejected.
func TestSnapshotRoundTrip(t *testing.T) {
	l := NewLedger(1e-6)
	if err := l.AddPure("mqm-exact", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := l.AddGaussian("kantorovich", 0.03, 1, 1e-5); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(l.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if r.Delta() != l.Delta() || r.Count() != l.Count() {
		t.Fatalf("restored (δ=%v, K=%d), want (δ=%v, K=%d)", r.Delta(), r.Count(), l.Delta(), l.Count())
	}
	for _, delta := range []float64{1e-6, 1e-5, 1e-3} {
		if a, b := mustEpsilon(t, l, delta), mustEpsilon(t, r, delta); a != b {
			t.Errorf("δ = %v: restored ε %v != original %v", delta, b, a)
		}
	}

	corrupt := snap
	corrupt.Entries = append([]Entry{}, snap.Entries...)
	corrupt.Entries[1].Rho = math.NaN()
	if _, err := Restore(corrupt); err == nil {
		t.Error("NaN ρ snapshot accepted")
	}
}
