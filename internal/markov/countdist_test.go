package markov

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"pufferfish/internal/dist"
	"pufferfish/internal/floats"
	"pufferfish/internal/matrix"
)

func TestCountDistTwoSteps(t *testing.T) {
	// T=2 binary chain: N = X1 + X2 (w = identity on {0,1}).
	c := theta1() // init [1,0], P = [[.9,.1],[.4,.6]]
	d, err := c.CountDist(2, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// X1=0 surely. N=0: X2=0 → 0.9; N=1: X2=1 → 0.1.
	if !floats.Eq(d.Prob(0), 0.9, 1e-12) || !floats.Eq(d.Prob(1), 0.1, 1e-12) {
		t.Errorf("dist = %v / %v", d.Support(), d.Masses())
	}
}

func TestCountDistMatchesMonteCarlo(t *testing.T) {
	c := theta2()
	T := 6
	d, err := c.CountDist(T, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(71, 72))
	n := 200000
	counts := map[int]int{}
	for i := 0; i < n; i++ {
		seq := c.Sample(T, rng)
		s := 0
		for _, x := range seq {
			s += x
		}
		counts[s]++
	}
	for s := 0; s <= T; s++ {
		emp := float64(counts[s]) / float64(n)
		if math.Abs(emp-d.Prob(float64(s))) > 0.01 {
			t.Errorf("P(N=%d): empirical %v vs exact %v", s, emp, d.Prob(float64(s)))
		}
	}
}

func TestCountDistGivenBayesConsistency(t *testing.T) {
	// P(N=n) = Σ_a P(N=n | X_i=a)·P(X_i=a).
	c := theta2()
	T, i := 7, 4
	w := []int{0, 1}
	uncond, err := c.CountDist(T, w)
	if err != nil {
		t.Fatal(err)
	}
	marg := c.Marginals(T)[i-1]
	for n := 0; n <= T; n++ {
		var mix float64
		for a := 0; a < 2; a++ {
			d, err := c.CountDistGiven(T, w, i, a)
			if err != nil {
				t.Fatal(err)
			}
			mix += d.Prob(float64(n)) * marg[a]
		}
		if !floats.Eq(mix, uncond.Prob(float64(n)), 1e-10) {
			t.Errorf("N=%d: mixture %v vs marginal %v", n, mix, uncond.Prob(float64(n)))
		}
	}
}

func TestCountDistGivenZeroProbEvent(t *testing.T) {
	c := theta1() // starts at state 0 surely
	if _, err := c.CountDistGiven(3, []int{0, 1}, 1, 1); err == nil {
		t.Error("conditioning on zero-probability event should error")
	}
}

func TestCountDistGivenValidation(t *testing.T) {
	c := theta1()
	if _, err := c.CountDistGiven(3, []int{0}, 0, 0); err == nil {
		t.Error("short weight vector accepted")
	}
	if _, err := c.CountDistGiven(0, []int{0, 1}, 0, 0); err == nil {
		t.Error("T=0 accepted")
	}
	if _, err := c.CountDistGiven(3, []int{0, 1}, 9, 0); err == nil {
		t.Error("out-of-range conditioning index accepted")
	}
	if _, err := c.CountDistGiven(3, []int{0, 1}, 1, 5); err == nil {
		t.Error("out-of-range conditioning state accepted")
	}
}

func TestCountDistNegativeWeights(t *testing.T) {
	// Weights may be negative: N = Σ ±1.
	c := theta2()
	d, err := c.CountDist(4, []int{-1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Support must lie in {-4, -2, 0, 2, 4}.
	for _, x := range d.Support() {
		if int(x)%2 != 0 || x < -4 || x > 4 {
			t.Errorf("unexpected support point %v", x)
		}
	}
	if !floats.Eq(floats.Sum(d.Masses()), 1, 1e-9) {
		t.Error("masses do not sum to one")
	}
}

// Property: the conditional count distribution has mean equal to the
// Monte-Carlo conditional mean on random chains.
func TestCountDistGivenProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 73))
		c := randomIrreducibleChain(r, 2)
		T := 3 + r.IntN(5)
		i := 1 + r.IntN(T)
		a := r.IntN(2)
		if c.Marginals(T)[i-1][a] < 0.05 {
			return true // too rare for a quick Monte-Carlo check
		}
		d, err := c.CountDistGiven(T, []int{0, 1}, i, a)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewPCG(seed, 99))
		var sum, n float64
		for trial := 0; trial < 60000; trial++ {
			seq := c.Sample(T, rng)
			if seq[i-1] != a {
				continue
			}
			s := 0
			for _, x := range seq {
				s += x
			}
			sum += float64(s)
			n++
		}
		if n < 500 {
			return true
		}
		return math.Abs(sum/n-d.Mean()) < 0.08
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestNodeMarginalGiven(t *testing.T) {
	c := theta1()
	T := 5
	// Forward: P(X3 = · | X2 = 1) should be row 1 of P.
	fwd, err := c.NodeMarginalGiven(T, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !floats.EqSlices(fwd, []float64{0.4, 0.6}, 1e-12) {
		t.Errorf("forward = %v", fwd)
	}
	// Same node: point mass.
	same, err := c.NodeMarginalGiven(T, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !floats.EqSlices(same, []float64{1, 0}, 0) {
		t.Errorf("same node = %v", same)
	}
	// Backward via Bayes: P(X1 = y | X2 = 0) — compare with the
	// Section 4.3 worked values for q=[0.8,0.2]: 0.9 and 0.1.
	c2 := MustNew([]float64{0.8, 0.2}, c.P)
	back, err := c2.NodeMarginalGiven(3, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !floats.EqSlices(back, []float64{0.9, 0.1}, 1e-12) {
		t.Errorf("backward = %v, want [0.9 0.1]", back)
	}
	// Zero-probability conditioning.
	if _, err := c.NodeMarginalGiven(T, 1, 1, 1); err == nil {
		t.Error("zero-probability conditioning accepted")
	}
}

func TestBinaryIntervalClosedForms(t *testing.T) {
	b, err := NewBinaryInterval(0.2, 0.8, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Grid cross-check of the closed forms.
	gridPiMin := math.Inf(1)
	gridGap := math.Inf(1)
	for _, p0 := range floats.Linspace(0.2, 0.8, 25) {
		for _, p1 := range floats.Linspace(0.2, 0.8, 25) {
			c := BinaryChain(0.5, p0, p1)
			pm, err := c.PiMin()
			if err != nil {
				t.Fatal(err)
			}
			if pm < gridPiMin {
				gridPiMin = pm
			}
			g, err := c.EigengapReversible()
			if err != nil {
				t.Fatal(err)
			}
			if g < gridGap {
				gridGap = g
			}
		}
	}
	pm, _ := b.PiMin()
	if !floats.Eq(pm, gridPiMin, 1e-9) {
		t.Errorf("PiMin closed form %v vs grid %v", pm, gridPiMin)
	}
	gap, _ := b.Gap()
	if !floats.Eq(gap, gridGap, 1e-9) {
		t.Errorf("Gap closed form %v vs grid %v", gap, gridGap)
	}
	if rev, _ := b.Reversible(); !rev {
		t.Error("binary class must be reversible")
	}
	if !b.AllInitialDistributions() {
		t.Error("binary class should carry all initial distributions")
	}
	if got := len(b.Chains()); got != 16*16 {
		t.Errorf("default grid size = %d", got)
	}
}

func TestBinaryIntervalSymmetricAlpha(t *testing.T) {
	// For Θ = [α, 1−α]: π^min = α and g = 4α (used in EXPERIMENTS.md).
	alpha := 0.3
	b, err := NewBinaryInterval(alpha, 1-alpha, 100)
	if err != nil {
		t.Fatal(err)
	}
	pm, _ := b.PiMin()
	if !floats.Eq(pm, alpha, 1e-12) {
		t.Errorf("PiMin = %v, want α = %v", pm, alpha)
	}
	g, _ := b.Gap()
	if !floats.Eq(g, 4*alpha, 1e-12) {
		t.Errorf("Gap = %v, want 4α = %v", g, 4*alpha)
	}
}

func TestNewBinaryIntervalValidation(t *testing.T) {
	if _, err := NewBinaryInterval(0, 0.5, 10); err == nil {
		t.Error("α=0 accepted")
	}
	if _, err := NewBinaryInterval(0.5, 1, 10); err == nil {
		t.Error("β=1 accepted")
	}
	if _, err := NewBinaryInterval(0.6, 0.4, 10); err == nil {
		t.Error("α>β accepted")
	}
	if _, err := NewBinaryInterval(0.2, 0.4, 0); err == nil {
		t.Error("T=0 accepted")
	}
}

func TestFiniteClass(t *testing.T) {
	f, err := NewFinite([]Chain{theta1(), theta2()}, 100)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := f.PiMin()
	if err != nil {
		t.Fatal(err)
	}
	if !floats.Eq(pm, 0.2, 1e-9) {
		t.Errorf("class PiMin = %v, want 0.2", pm)
	}
	// Both chains reversible; reversible gaps are 2(1−0.5)=1 and
	// 2(1−0.5)=1, so class gap = 1 under eq 14's reversible branch.
	g, err := f.Gap()
	if err != nil {
		t.Fatal(err)
	}
	if !floats.Eq(g, 1.0, 1e-9) {
		t.Errorf("class Gap = %v, want 1", g)
	}
	if _, err := NewFinite(nil, 10); err == nil {
		t.Error("empty class accepted")
	}
}

// oracleCountDistGiven is the conditional count dynamic program as it
// stood before the shared step kernel and the per-position sweep: a
// fresh forward pass from t = 1 per (cond, condState), sparse x → n → y
// loops over the full table. It is kept verbatim as the bit-identity
// oracle for CountDist, CountDistGiven and CountDistSweep. Its table
// range assumes wMin ≤ 0 ≤ wMax.
func oracleCountDistGiven(c Chain, T int, w []int, cond, condState int) (dist.Discrete, error) {
	k := c.K()
	if T < 1 {
		return dist.Discrete{}, fmt.Errorf("markov: chain length %d < 1", T)
	}
	if len(w) != k {
		return dist.Discrete{}, fmt.Errorf("markov: weight vector has length %d, want %d", len(w), k)
	}
	if cond < 0 || cond > T {
		return dist.Discrete{}, fmt.Errorf("markov: conditioning index %d outside [0,%d]", cond, T)
	}
	if cond > 0 && (condState < 0 || condState >= k) {
		return dist.Discrete{}, fmt.Errorf("markov: conditioning state %d outside [0,%d)", condState, k)
	}
	wMin, wMax := w[0], w[0]
	for _, v := range w[1:] {
		if v < wMin {
			wMin = v
		}
		if v > wMax {
			wMax = v
		}
	}
	offset := -T * wMin
	size := T*(wMax-wMin) + 1

	// cur[x*size+n] = P(X_1..X_t consistent with conditioning so far,
	// X_t = x, Σ_{s≤t} w[X_s] = n−offset). The two k×size tables are
	// pooled slabs swapped each step, so the whole dynamic program
	// allocates nothing once the pool is warm — this is the dominant
	// allocation site of the Wasserstein chain instantiation
	// (previously 2·T·k fresh rows per conditional distribution).
	cur := floats.GetBuffer(k * size)
	next := floats.GetBuffer(k * size)
	floats.ZeroBuffer(cur)
	for x := 0; x < k; x++ {
		if cond == 1 && x != condState {
			continue
		}
		cur[x*size+w[x]+offset] += c.Init[x]
	}
	// Note: index for partial sum n is n+offset.
	for t := 2; t <= T; t++ {
		floats.ZeroBuffer(next)
		for x := 0; x < k; x++ {
			row := c.P.RawRow(x)
			for n, mass := range cur[x*size : (x+1)*size] {
				//privlint:allow floatcompare structural-zero sparsity skip
				if mass == 0 {
					continue
				}
				for y := 0; y < k; y++ {
					//privlint:allow floatcompare structural-zero sparsity skip
					if row[y] == 0 {
						continue
					}
					if cond == t && y != condState {
						continue
					}
					next[y*size+n+w[y]] += mass * row[y]
				}
			}
		}
		cur, next = next, cur
	}

	// Collapse over the final state.
	mass := floats.GetBuffer(size)
	floats.ZeroBuffer(mass)
	for x := 0; x < k; x++ {
		for n, p := range cur[x*size : (x+1)*size] {
			mass[n] += p
		}
	}
	floats.PutBuffer(cur)
	floats.PutBuffer(next)
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
		xs[i] = float64(n - offset)
		ps[i] = p / total
		i++
	}
	floats.PutBuffer(mass)
	// The support is built in increasing order, so the sort-free
	// constructor applies; it renormalizes exactly like dist.New.
	return dist.FromSorted(xs, ps)
}

// randomSparseChain draws a k-state chain with structural zeros in
// both the initial distribution and the transition matrix (every row
// keeps at least one positive entry).
func randomSparseChain(r *rand.Rand, k int) Chain {
	draw := func() []float64 {
		v := make([]float64, k)
		var tot float64
		for j := range v {
			if r.IntN(3) > 0 {
				v[j] = r.Float64() + 0.01
			}
		}
		if floats.Sum(v) <= 0 {
			v[r.IntN(k)] = 1
		}
		for _, x := range v {
			tot += x
		}
		for j := range v {
			v[j] /= tot
		}
		return v
	}
	rows := make([][]float64, k)
	for i := range rows {
		rows[i] = draw()
	}
	return Chain{Init: draw(), P: matrix.FromRows(rows)}
}

// randomWeights draws integer weights in [−2, 3] spanning 0, the range
// the oracle's table supports.
func randomWeights(r *rand.Rand, k int) []int {
	w := make([]int, k)
	for j := range w {
		w[j] = r.IntN(6) - 2
	}
	w[r.IntN(k)] = 0
	return w
}

func sameBits(a, b dist.Discrete) error {
	if a.Len() != b.Len() {
		return fmt.Errorf("%d atoms vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		xa, pa := a.Atom(i)
		xb, pb := b.Atom(i)
		if math.Float64bits(xa) != math.Float64bits(xb) || math.Float64bits(pa) != math.Float64bits(pb) {
			return fmt.Errorf("atom %d: (%v, %v) vs (%v, %v)", i, xa, pa, xb, pb)
		}
	}
	return nil
}

// TestCountDistSweepMatchesOracle: on random sparse chains with
// negative and non-unit weights, every (pos, val) the sweep serves —
// over the whole range, over a split range, and one position at a
// time through CountDistGiven — equals the oracle bit for bit, the
// unconditioned CountDist does too, and exactly the oracle's
// zero-probability events error.
func TestCountDistSweepMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(2017, 15))
	for _, k := range []int{2, 3, 4} {
		for _, T := range []int{1, 2, 3, 17, 64} {
			for trial := 0; trial < 3; trial++ {
				c := randomSparseChain(r, k)
				w := randomWeights(r, k)
				if trial == 0 {
					w = make([]int, k)
					w[r.IntN(k)] = 1
				}
				name := fmt.Sprintf("k=%d T=%d w=%v", k, T, w)
				want, err := oracleCountDistGiven(c, T, w, 0, 0)
				if err != nil {
					t.Fatalf("%s: oracle: %v", name, err)
				}
				got, err := c.CountDist(T, w)
				if err != nil {
					t.Fatalf("%s: CountDist: %v", name, err)
				}
				if err := sameBits(got, want); err != nil {
					t.Fatalf("%s: CountDist: %v", name, err)
				}
				oracle := make([]dist.Discrete, T*k)
				need := make([]bool, T*k)
				for pos := 1; pos <= T; pos++ {
					for val := 0; val < k; val++ {
						j := (pos-1)*k + val
						d, oerr := oracleCountDistGiven(c, T, w, pos, val)
						g, gerr := c.CountDistGiven(T, w, pos, val)
						if (oerr == nil) != (gerr == nil) {
							t.Fatalf("%s X_%d=%d: oracle err %v, CountDistGiven err %v", name, pos, val, oerr, gerr)
						}
						if oerr != nil {
							continue
						}
						if err := sameBits(g, d); err != nil {
							t.Fatalf("%s X_%d=%d: CountDistGiven: %v", name, pos, val, err)
						}
						oracle[j], need[j] = d, true
					}
				}
				split := 1 + r.IntN(T)
				for _, rg := range [][2]int{{1, T}, {1, split}, {split, T}} {
					from, to := rg[0], rg[1]
					out := make([]dist.Discrete, (to-from+1)*k)
					if err := c.CountDistSweep(T, w, from, to, need[(from-1)*k:to*k], out); err != nil {
						t.Fatalf("%s sweep [%d,%d]: %v", name, from, to, err)
					}
					for j, d := range out {
						if !need[(from-1)*k+j] {
							if d.Len() != 0 {
								t.Fatalf("%s sweep [%d,%d]: slot %d written without need", name, from, to, j)
							}
							continue
						}
						if err := sameBits(d, oracle[(from-1)*k+j]); err != nil {
							t.Fatalf("%s sweep [%d,%d] slot %d: %v", name, from, to, j, err)
						}
					}
				}
			}
		}
	}
}

// TestCountDistSweepValidation covers the sweep's refusal paths,
// including a zero-probability event it is asked for.
func TestCountDistSweepValidation(t *testing.T) {
	c := theta1() // starts at state 0 surely
	w := []int{0, 1}
	out := make([]dist.Discrete, 4)
	for _, rg := range [][2]int{{0, 2}, {2, 4}, {2, 1}} {
		if err := c.CountDistSweep(3, w, rg[0], rg[1], make([]bool, 4), out); err == nil {
			t.Errorf("range %v accepted", rg)
		}
	}
	if err := c.CountDistSweep(3, w, 1, 2, make([]bool, 3), out); err == nil {
		t.Error("short need mask accepted")
	}
	if err := c.CountDistSweep(3, []int{0}, 1, 2, make([]bool, 4), out); err == nil {
		t.Error("short weight vector accepted")
	}
	need := []bool{true, true, false, false}
	if err := c.CountDistSweep(3, w, 1, 2, need, out); err == nil {
		t.Error("zero-probability event X_1=1 swept without error")
	}
}

// TestCountDistPositiveWeights: weights that exclude 0 shift the count
// without changing a single mass bit (the table range covers every
// prefix's partial sums, not only the full-length ones).
func TestCountDistPositiveWeights(t *testing.T) {
	c := theta2()
	T := 9
	base, err := c.CountDistGiven(T, []int{0, 1}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, shift := range []int{1, 3, -2} {
		d, err := c.CountDistGiven(T, []int{shift, 1 + shift}, 4, 1)
		if err != nil {
			t.Fatalf("shift %d: %v", shift, err)
		}
		if d.Len() != base.Len() {
			t.Fatalf("shift %d: %d atoms, want %d", shift, d.Len(), base.Len())
		}
		for i := 0; i < d.Len(); i++ {
			x, p := d.Atom(i)
			bx, bp := base.Atom(i)
			if x != bx+float64(T*shift) || math.Float64bits(p) != math.Float64bits(bp) {
				t.Errorf("shift %d atom %d: (%v, %v), want (%v, %v)", shift, i, x, p, bx+float64(T*shift), bp)
			}
		}
	}
}
