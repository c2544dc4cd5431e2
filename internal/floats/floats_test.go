package floats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEq(t *testing.T) {
	cases := []struct {
		a, b, tol float64
		want      bool
	}{
		{1, 1, 0, true},
		{1, 1 + 1e-12, 1e-9, true},
		{1, 1.1, 1e-9, false},
		{0, 1e-12, 1e-9, true},
		{math.Inf(1), math.Inf(1), 1e-9, true},
		{math.Inf(1), math.Inf(-1), 1e-9, false},
		{math.NaN(), math.NaN(), 1e-9, false},
		{1e18, 1e18 + 1e6, 1e-9, true}, // relative tolerance path
	}
	for _, c := range cases {
		if got := Eq(c.a, c.b, c.tol); got != c.want {
			t.Errorf("Eq(%v,%v,%v) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
	}
}

func TestSumKahan(t *testing.T) {
	// 0.1 added 10^6 times: naive summation drifts; Kahan should be
	// within 1e-9 of 1e5.
	xs := make([]float64, 1_000_000)
	for i := range xs {
		xs[i] = 0.1
	}
	if got := Sum(xs); !Eq(got, 1e5, 1e-9) {
		t.Errorf("Sum = %v, want 1e5", got)
	}
}

func TestDotAndL1(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := L1Dist(a, b); got != 9 {
		t.Errorf("L1Dist = %v, want 9", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched lengths")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestLogSumExp(t *testing.T) {
	xs := []float64{math.Log(1), math.Log(2), math.Log(3)}
	if got := LogSumExp(xs); !Eq(got, math.Log(6), 1e-12) {
		t.Errorf("LogSumExp = %v, want log 6", got)
	}
	if got := LogSumExp(nil); !math.IsInf(got, -1) {
		t.Errorf("LogSumExp(nil) = %v, want -Inf", got)
	}
	// Stability with large values.
	if got := LogSumExp([]float64{1000, 1000}); !Eq(got, 1000+math.Log(2), 1e-9) {
		t.Errorf("LogSumExp large = %v", got)
	}
}

func TestLogSumExpProperty(t *testing.T) {
	// exp(LogSumExp(xs)) == Σ exp(xs) for small inputs.
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		var direct float64
		for _, r := range raw {
			x := math.Mod(r, 5) // keep exp in range
			if math.IsNaN(x) {
				return true
			}
			xs = append(xs, x)
			direct += math.Exp(x)
		}
		return Eq(math.Exp(LogSumExp(xs)), direct, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMaxArgMax(t *testing.T) {
	xs := []float64{3, -1, 7, 7, 2}
	if Max(xs) != 7 || Min(xs) != -1 || ArgMax(xs) != 2 {
		t.Errorf("Max/Min/ArgMax wrong: %v %v %v", Max(xs), Min(xs), ArgMax(xs))
	}
}

func TestNormalize(t *testing.T) {
	xs := []float64{1, 3}
	if err := Normalize(xs); err != nil {
		t.Fatal(err)
	}
	if !EqSlices(xs, []float64{0.25, 0.75}, 1e-12) {
		t.Errorf("Normalize = %v", xs)
	}
	if err := Normalize([]float64{0, 0}); err == nil {
		t.Error("expected error normalizing zero vector")
	}
	if err := Normalize([]float64{-1, 1}); err == nil {
		t.Error("expected error normalizing zero-sum vector")
	}
}

func TestIsProbVector(t *testing.T) {
	if !IsProbVector([]float64{0.5, 0.5}, 1e-9) {
		t.Error("valid prob vector rejected")
	}
	if IsProbVector([]float64{0.6, 0.6}, 1e-9) {
		t.Error("sum-1.2 vector accepted")
	}
	if IsProbVector([]float64{1.5, -0.5}, 1e-9) {
		t.Error("out-of-range vector accepted")
	}
}

func TestLinspace(t *testing.T) {
	got := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if !EqSlices(got, want, 1e-12) {
		t.Errorf("Linspace = %v, want %v", got, want)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp wrong")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); !Eq(got, 2, 1e-12) {
		t.Errorf("Mean = %v", got)
	}
}

// TestAddScaledMatchesLoop: the unrolled axpy is bit-identical to the
// plain loop at every length around the unroll width, and leaves dst
// past len(s) alone.
func TestAddScaledMatchesLoop(t *testing.T) {
	for n := 0; n <= 9; n++ {
		s := make([]float64, n)
		dst := make([]float64, n+1)
		want := make([]float64, n+1)
		for i := range s {
			s[i] = 1 / float64(3+i)
			dst[i] = float64(i) / 7
			want[i] = dst[i] + 0.3*s[i]
		}
		dst[n], want[n] = 5, 5
		AddScaled(dst, 0.3, s)
		for i := range want {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: dst[%d] = %v, want %v", n, i, dst[i], want[i])
			}
		}
	}
}
