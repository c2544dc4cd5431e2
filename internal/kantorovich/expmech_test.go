package kantorovich

import (
	"math"
	"math/rand/v2"
	"testing"

	"pufferfish/internal/core"
	"pufferfish/internal/dist"
)

// TestExpMechPMF: the output distribution is a proper pmf, peaks at
// the grid point nearest the query value, and consecutive weights obey
// the exponential decay exactly.
func TestExpMechPMF(t *testing.T) {
	grid := []float64{0, 1, 2, 3, 4}
	m, err := NewExpMech(grid, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	pmf := m.PMF(2)
	var total float64
	for _, p := range pmf {
		total += p
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("pmf sums to %v", total)
	}
	if pmf[2] <= pmf[1] || pmf[2] <= pmf[3] {
		t.Errorf("pmf does not peak at the query value: %v", pmf)
	}
	// w(y) ∝ exp(−ε|y−2|/(2W)) with ε=1, W=2 → ratio e^{1/4} per unit.
	if r := pmf[2] / pmf[3]; math.Abs(r-math.Exp(0.25)) > 1e-12 {
		t.Errorf("decay ratio %v, want e^0.25", r)
	}
	if math.Abs(pmf[1]-pmf[3]) > 1e-15 {
		t.Errorf("pmf not symmetric around the value: %v vs %v", pmf[1], pmf[3])
	}
}

// TestExpMechPufferfishPrivacy: the end-to-end analytic check for the
// exponential mechanism — for a small chain class, every secret pair's
// output pmf ratio stays within exp(ε) on every grid point, with the
// scale taken from the subsystem's own profile.
func TestExpMechPufferfishPrivacy(t *testing.T) {
	class := fig4Class(t, 4, 3)
	eps := 0.9
	cell := 1
	profile, err := CellProfile(nil, class, cell, Options{})
	if err != nil {
		t.Fatal(err)
	}
	grid := []float64{0, 1, 2, 3, 4} // feasible counts for T = 4
	m, err := NewExpMech(grid, profile.WInf, eps)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]int, class.K())
	w[cell] = 1
	inst := core.ChainCountInstance{Class: class, W: w}
	pairs, err := inst.ConditionalPairs()
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range pairs {
		pa := mixturePMF(m, pair.Mu)
		pb := mixturePMF(m, pair.Nu)
		for i := range grid {
			if r := math.Abs(math.Log(pa[i] / pb[i])); r > eps+1e-9 {
				t.Fatalf("pair %q, output %v: |log ratio| = %v > ε = %v", pair.Label, grid[i], r, eps)
			}
		}
	}
}

// mixturePMF returns the output pmf of the exponential mechanism when
// the query value is distributed as d.
func mixturePMF(m *ExpMech, d dist.Discrete) []float64 {
	out := make([]float64, len(m.Grid()))
	for i := 0; i < d.Len(); i++ {
		x, mass := d.Atom(i)
		for j, p := range m.PMF(x) {
			out[j] += mass * p
		}
	}
	return out
}

func TestExpMechSample(t *testing.T) {
	m, err := NewExpMech([]float64{0, 1, 2}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Same seed, same draws; outputs always land on the grid.
	r1 := rand.New(rand.NewPCG(5, 6))
	r2 := rand.New(rand.NewPCG(5, 6))
	counts := map[float64]int{}
	for i := 0; i < 2000; i++ {
		a := m.Sample(1, r1)
		if b := m.Sample(1, r2); a != b {
			t.Fatal("sampling is not deterministic under a fixed seed")
		}
		counts[a]++
	}
	if len(counts) != 3 {
		t.Errorf("2000 draws hit %d of 3 grid points", len(counts))
	}
	if counts[1] <= counts[0] || counts[1] <= counts[2] {
		t.Errorf("mode not at the query value: %v", counts)
	}
}

func TestExpMechValidation(t *testing.T) {
	good := []float64{0, 1}
	cases := []struct {
		grid      []float64
		wInf, eps float64
	}{
		{nil, 1, 1},
		{[]float64{1, 0}, 1, 1},
		{[]float64{0, 0}, 1, 1},
		{[]float64{0, math.NaN()}, 1, 1},
		{good, 0, 1},
		{good, math.Inf(1), 1},
		{good, 1, 0},
		{good, 1, math.NaN()},
	}
	for i, c := range cases {
		if _, err := NewExpMech(c.grid, c.wInf, c.eps); err == nil {
			t.Errorf("case %d: invalid mechanism accepted", i)
		}
	}
	m, err := NewExpMech(good, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := m.Grid()
	g[0] = 99 // mutating the copy must not corrupt the mechanism
	if m.Grid()[0] != 0 {
		t.Error("Grid returned the internal slice")
	}
}

// TestScoreMultiLengthMax: σ over a multi-length database is the max
// of the per-length scores (and not just the longest session's).
func TestScoreMultiLengthMax(t *testing.T) {
	class := threeStateClass(t, 9)
	lengths := []int{9, 2, 5}
	multi, err := ScoreBatch(nil, [][]core.Substrate{chainMember(t, class, lengths)}, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := perLengthMax(t, class, 1, []int{2, 5, 9}); multi[0] != want {
		t.Errorf("ScoreBatch %+v != max of per-length scores %+v", multi[0], want)
	}
}
