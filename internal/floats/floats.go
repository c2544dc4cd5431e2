// Package floats provides small floating-point helpers shared by the
// numeric substrates: tolerant comparison, log-space accumulation, and
// simple slice statistics.
//
// Everything here operates on float64 and the Go standard library only.
package floats

import (
	"fmt"
	"math"
)

// DefaultTol is the absolute/relative tolerance used by the Eq helpers
// when callers do not care about a specific precision.
const DefaultTol = 1e-9

// Eq reports whether a and b are equal within absolute tolerance tol or
// relative tolerance tol (whichever is more permissive). NaNs are never
// equal; equal infinities are.
func Eq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	//privlint:allow floatcompare bit-equality fast path of the tolerance comparator itself
	if a == b {
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

// EqSlices reports whether two slices have the same length and are
// element-wise equal within tol.
func EqSlices(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Eq(a[i], b[i], tol) {
			return false
		}
	}
	return true
}

// Sum returns the Kahan-compensated sum of xs. Compensation matters for
// the long probability vectors produced by the power-consumption
// substrate (10^6 terms).
func Sum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// AddScaled adds alpha·s[i] to dst[i] for every i < len(s) — the
// axpy of the dynamic programs' inner loops, unrolled by four because
// the loop overhead otherwise rivals the arithmetic. Every element is
// still one multiply and one add, so the result is bit-identical to
// the plain loop's. It panics if dst is shorter than s.
func AddScaled(dst []float64, alpha float64, s []float64) {
	dst = dst[:len(s)]
	i := 0
	for ; i+4 <= len(s); i += 4 {
		d, v := dst[i:i+4:i+4], s[i:i+4:i+4]
		d[0] += alpha * v[0]
		d[1] += alpha * v[1]
		d[2] += alpha * v[2]
		d[3] += alpha * v[3]
	}
	for ; i < len(s); i++ {
		dst[i] += alpha * s[i]
	}
}

// Dot returns the inner product of a and b. It panics if the lengths
// differ, as that is always a programming error in this codebase.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("floats: dot of mismatched lengths %d and %d", len(a), len(b)))
	}
	var sum float64
	for i := range a {
		sum += a[i] * b[i]
	}
	return sum
}

// L1Dist returns the L1 distance Σ|a_i − b_i|. It panics on mismatched
// lengths.
func L1Dist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("floats: l1 distance of mismatched lengths %d and %d", len(a), len(b)))
	}
	var sum float64
	for i := range a {
		sum += math.Abs(a[i] - b[i])
	}
	return sum
}

// LogSumExp returns log(Σ exp(x_i)) computed stably. It returns -Inf
// for an empty slice.
func LogSumExp(xs []float64) float64 {
	if len(xs) == 0 {
		return math.Inf(-1)
	}
	maxv := math.Inf(-1)
	for _, x := range xs {
		if x > maxv {
			maxv = x
		}
	}
	if math.IsInf(maxv, -1) {
		return maxv
	}
	var sum float64
	for _, x := range xs {
		sum += math.Exp(x - maxv)
	}
	return maxv + math.Log(sum)
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("floats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("floats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// ArgMax returns the index of the first maximal element. It panics on
// an empty slice.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		panic("floats: ArgMax of empty slice")
	}
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Normalize scales xs in place so it sums to one and returns an error
// if the sum is not positive and finite.
func Normalize(xs []float64) error {
	s := Sum(xs)
	if !(s > 0) || math.IsInf(s, 0) {
		return fmt.Errorf("floats: cannot normalize slice with sum %v", s)
	}
	for i := range xs {
		xs[i] /= s
	}
	return nil
}

// IsProbVector reports whether xs is entry-wise in [−tol, 1+tol] and
// sums to 1 within tol.
func IsProbVector(xs []float64, tol float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || x < -tol || x > 1+tol {
			return false
		}
	}
	return Eq(Sum(xs), 1, tol)
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Linspace returns n evenly spaced values from lo to hi inclusive.
// It panics if n < 2.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic("floats: Linspace needs n >= 2")
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}
