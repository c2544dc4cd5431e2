package markov

import (
	"fmt"

	"pufferfish/internal/dist"
	"pufferfish/internal/floats"
)

// CountDist returns the exact distribution of the additive functional
// N = Σ_{t=1..T} w[X_t] with integer per-state weights w, computed by
// forward dynamic programming over (state, partial sum). Step t only
// touches the live band of partial sums [t·wMin, t·wMax], so the whole
// program costs O(k²·T²·(wMax−wMin)) time and O(k·T·(wMax−wMin))
// pooled memory.
//
// This is the distribution oracle the Wasserstein Mechanism needs for
// chain instantiations: with w the indicator of a state, N is that
// state's occupancy count, so F = N/T is the released relative
// frequency.
func (c Chain) CountDist(T int, w []int) (dist.Discrete, error) {
	return c.CountDistGiven(T, w, 0, 0)
}

// CountDistGiven returns the distribution of N = Σ_t w[X_t]
// conditioned on X_cond = condState, where cond is a 1-based node
// index; cond == 0 means no conditioning. It returns an error when
// the conditioning event has probability zero. It is CountDistSweep
// over the single position cond.
func (c Chain) CountDistGiven(T int, w []int, cond, condState int) (dist.Discrete, error) {
	dp, err := newCountDP(c, T, w)
	if err != nil {
		return dist.Discrete{}, err
	}
	if cond < 0 || cond > T {
		return dist.Discrete{}, fmt.Errorf("markov: conditioning index %d outside [0,%d]", cond, T)
	}
	if cond > 0 && (condState < 0 || condState >= dp.k) {
		return dist.Discrete{}, fmt.Errorf("markov: conditioning state %d outside [0,%d)", condState, dp.k)
	}
	if cond == 0 {
		return dp.unconditioned()
	}
	need := make([]bool, dp.k)
	need[condState] = true
	out := make([]dist.Discrete, dp.k)
	if err := dp.sweep(cond, cond, need, out); err != nil {
		return dist.Discrete{}, err
	}
	return out[condState], nil
}

// CountDistSweep computes P(N | X_pos = val) for every position pos in
// [from, to] (1-based) and every value val with
// need[(pos−from)·k + val], writing it to out at the same index; the
// other slots of out are left untouched. It errors on the first needed
// conditioning event (in ascending (pos, val) order) of probability
// zero.
//
// One unconditioned forward table α advances a step per position, and
// each needed (pos, val) runs the conditioned step pos from α_{pos−1}
// plus the suffix pos+1…T, so the prefix is never recomputed. Every
// distribution is bit-identical to CountDistGiven(T, w, pos, val): the
// two run the same step kernel over the same tables.
func (c Chain) CountDistSweep(T int, w []int, from, to int, need []bool, out []dist.Discrete) error {
	dp, err := newCountDP(c, T, w)
	if err != nil {
		return err
	}
	if from < 1 || to > T || from > to {
		return fmt.Errorf("markov: sweep range [%d,%d] outside [1,%d]", from, to, T)
	}
	if n := (to - from + 1) * dp.k; len(need) != n || len(out) != n {
		return fmt.Errorf("markov: sweep over [%d,%d] needs %d need/out slots, got %d/%d", from, to, n, len(need), len(out))
	}
	return dp.sweep(from, to, need, out)
}

// countDP is the forward dynamic program shared by CountDist,
// CountDistGiven and CountDistSweep. Its tables are k×size slabs,
// tab[x*size+n] = P(X_1..X_t consistent with the conditioning so far,
// X_t = x, Σ_{s≤t} w[X_s] = n−offset); after step t only the band
// returned by band(t) can be non-zero, and only the band is ever
// zeroed, written or read.
type countDP struct {
	c            Chain
	T, k         int
	w            []int
	wMin, wMax   int
	offset, size int
}

func newCountDP(c Chain, T int, w []int) (*countDP, error) {
	k := c.K()
	if T < 1 {
		return nil, fmt.Errorf("markov: chain length %d < 1", T)
	}
	if len(w) != k {
		return nil, fmt.Errorf("markov: weight vector has length %d, want %d", len(w), k)
	}
	wMin, wMax := w[0], w[0]
	for _, v := range w[1:] {
		wMin = min(wMin, v)
		wMax = max(wMax, v)
	}
	// The table spans every partial sum of every prefix length, so its
	// range must contain 0 as well as [T·wMin, T·wMax].
	lo, hi := min(wMin, 0), max(wMax, 0)
	return &countDP{
		c: c, T: T, k: k, w: w, wMin: wMin, wMax: wMax,
		offset: -T * lo, size: T*(hi-lo) + 1,
	}, nil
}

// band returns the inclusive index range of the partial sums reachable
// after t steps.
func (dp *countDP) band(t int) (lo, hi int) {
	return t*dp.wMin + dp.offset, t*dp.wMax + dp.offset
}

// advance writes the table after step t into dst: for t = 1 the
// initial distribution, otherwise one transition from src (the table
// after step t−1). only ≥ 0 conditions X_t = only; only < 0 leaves X_t
// free.
//
// The kernel runs x → y → n over the live band, an axpy per (x, y)
// without a branch in the inner loop. Each destination entry still
// accumulates its terms in ascending x, and the structural zeros the
// kernel no longer skips add +0 to a non-negative value, so every
// table is bit-identical to the sparse x → n → y loop it replaces.
func (dp *countDP) advance(dst, src []float64, t, only int) {
	k, size := dp.k, dp.size
	lo, hi := dp.band(t)
	for y := 0; y < k; y++ {
		floats.ZeroBuffer(dst[y*size+lo : y*size+hi+1])
	}
	if t == 1 {
		for x := 0; x < k; x++ {
			if only >= 0 && x != only {
				continue
			}
			dst[x*size+dp.w[x]+dp.offset] += dp.c.Init[x]
		}
		return
	}
	lo, hi = dp.band(t - 1)
	for x := 0; x < k; x++ {
		row := dp.c.P.RawRow(x)
		in := src[x*size+lo : x*size+hi+1]
		for y := 0; y < k; y++ {
			if only >= 0 && y != only {
				continue
			}
			floats.AddScaled(dst[y*size+lo+dp.w[y]:], row[y], in)
		}
	}
}

// unconditioned runs all T steps without conditioning.
func (dp *countDP) unconditioned() (dist.Discrete, error) {
	cur := floats.GetBuffer(dp.k * dp.size)
	next := floats.GetBuffer(dp.k * dp.size)
	defer floats.PutBuffer(cur)
	defer floats.PutBuffer(next)
	for t := 1; t <= dp.T; t++ {
		dp.advance(next, cur, t, -1)
		cur, next = next, cur
	}
	return dp.collapse(cur, 0, 0)
}

// sweep is CountDistSweep after validation. Its scratch is three k×size
// pooled tables — the unconditioned α and a swapped pair for the
// conditioned suffix — whatever the range.
func (dp *countDP) sweep(from, to int, need []bool, out []dist.Discrete) error {
	k := dp.k
	alpha := floats.GetBuffer(k * dp.size)
	cur := floats.GetBuffer(k * dp.size)
	next := floats.GetBuffer(k * dp.size)
	defer func() {
		floats.PutBuffer(alpha)
		floats.PutBuffer(cur)
		floats.PutBuffer(next)
	}()
	// Before position i's iteration alpha holds α_{i−1}.
	for i := 1; i <= to; i++ {
		if i >= from {
			for a := 0; a < k; a++ {
				j := (i-from)*k + a
				if !need[j] {
					continue
				}
				dp.advance(cur, alpha, i, a)
				for t := i + 1; t <= dp.T; t++ {
					dp.advance(next, cur, t, -1)
					cur, next = next, cur
				}
				d, err := dp.collapse(cur, i, a)
				if err != nil {
					return err
				}
				out[j] = d
			}
		}
		if i < to {
			dp.advance(next, alpha, i, -1)
			alpha, next = next, alpha
		}
	}
	return nil
}

// collapse sums the table after step T over the final state and
// normalises it; cond, condState name the conditioning event in the
// zero-probability error.
func (dp *countDP) collapse(tab []float64, cond, condState int) (dist.Discrete, error) {
	size := dp.size
	lo, hi := dp.band(dp.T)
	mass := floats.GetBuffer(hi - lo + 1)
	floats.ZeroBuffer(mass)
	for x := 0; x < dp.k; x++ {
		for n, p := range tab[x*size+lo : x*size+hi+1] {
			mass[n] += p
		}
	}
	total := floats.Sum(mass)
	if total <= 1e-300 {
		floats.PutBuffer(mass)
		return dist.Discrete{}, fmt.Errorf("markov: conditioning event X_%d=%d has probability zero", cond, condState)
	}
	atoms := 0
	for _, p := range mass {
		if p > 0 {
			atoms++
		}
	}
	// One backing array for both retained slices.
	buf := make([]float64, 2*atoms)
	xs, ps := buf[:atoms:atoms], buf[atoms:]
	i := 0
	for n, p := range mass {
		if p <= 0 {
			continue
		}
		xs[i] = float64(n + lo - dp.offset)
		ps[i] = p / total
		i++
	}
	floats.PutBuffer(mass)
	// The support is built in increasing order, so the sort-free
	// constructor applies; it renormalizes exactly like dist.New.
	return dist.FromSorted(xs, ps)
}

// NodeMarginalGiven returns P(X_j = · | X_i = a) for 1-based node
// indices, computed exactly from the chain (forwards via the power
// cache for j > i, backwards via Bayes for j < i). Used by the tests
// to validate max-influence formulas.
func (c Chain) NodeMarginalGiven(T, j, i, a int) ([]float64, error) {
	if j < 1 || j > T || i < 1 || i > T {
		return nil, fmt.Errorf("markov: node index out of range")
	}
	k := c.K()
	pc := NewPowerCache(c.P)
	marg := c.Marginals(T)
	if marg[i-1][a] <= 0 {
		return nil, fmt.Errorf("markov: conditioning event X_%d=%d has probability zero", i, a)
	}
	out := make([]float64, k)
	switch {
	case j == i:
		out[a] = 1
	case j > i:
		p := pc.Pow(j - i)
		copy(out, p.RawRow(a))
	default: // j < i: P(X_j=y | X_i=a) ∝ P(X_j=y)·P^{i−j}(y,a)
		p := pc.Pow(i - j)
		var tot float64
		for y := 0; y < k; y++ {
			out[y] = marg[j-1][y] * p.At(y, a)
			tot += out[y]
		}
		for y := range out {
			out[y] /= tot
		}
	}
	return out, nil
}
