package bayes

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"pufferfish/internal/dist"
)

// The oracle below is the sum-augmented message passing as it stood
// before CountDistSweep: an engine that restricts the evidence node's
// own atom to the conditioned value, and one full pass per
// (node, value), re-running the polytree check, the component split
// and every component's messages each time. It is kept verbatim as the
// bit-identity oracle for CountDistGiven and CountDistSweep.

type oracleEngine struct {
	nw         *Network
	w          []int // nil for marginal queries
	wMin, span int   // weight range (span = wMax − wMin; 0 when w == nil)
	cond       int   // conditioning node, −1 for none
	condState  int
	varFactors [][]int // variable → factors whose scope contains it
}

func newOracleEngine(nw *Network, w []int, cond, condState int) *oracleEngine {
	e := &oracleEngine{nw: nw, w: w, cond: cond, condState: condState}
	if w != nil {
		e.wMin = w[0]
		wMax := w[0]
		for _, v := range w[1:] {
			if v < e.wMin {
				e.wMin = v
			}
			if v > wMax {
				wMax = v
			}
		}
		e.span = wMax - e.wMin
	}
	n := nw.N()
	e.varFactors = make([][]int, n)
	for f, nd := range nw.nodes {
		e.varFactors[f] = append(e.varFactors[f], f)
		for _, p := range nd.Parents {
			e.varFactors[p] = append(e.varFactors[p], f)
		}
	}
	return e
}

// width is the s-axis length of a message covering count weighted
// variables.
func (e *oracleEngine) width(count int) int { return count*e.span + 1 }

// varMsg returns µ_{v→from}: v's own weight atom combined (by
// convolution over the sum axis) with the messages of every adjacent
// factor except from. from = −1 reads the root message.
func (e *oracleEngine) varMsg(v, from int) mpMsg {
	card := e.nw.nodes[v].Card
	count := 0
	if e.w != nil {
		count = 1
	}
	m := mpMsg{count: count, width: e.width(count)}
	m.vals = make([]float64, card*m.width)
	for x := 0; x < card; x++ {
		if v == e.cond && x != e.condState {
			continue
		}
		s := 0
		if e.w != nil {
			s = e.w[x] - e.wMin
		}
		m.vals[x*m.width+s] = 1
	}
	for _, g := range e.varFactors[v] {
		if g == from {
			continue
		}
		m = oracleMulConv(m, e.factorMsg(g, v), card)
	}
	return m
}

// oracleMulConv multiplies two messages over the same variable:
// pointwise in x, convolution along the sum axis.
func oracleMulConv(a, b mpMsg, card int) mpMsg {
	out := mpMsg{count: a.count + b.count, width: a.width + b.width - 1}
	out.vals = make([]float64, card*out.width)
	for x := 0; x < card; x++ {
		ar := a.vals[x*a.width : (x+1)*a.width]
		br := b.vals[x*b.width : (x+1)*b.width]
		or := out.vals[x*out.width : (x+1)*out.width]
		for i, av := range ar {
			//privlint:allow floatcompare structural-zero sparsity skip; only exact zeros carry no mass
			if av == 0 {
				continue
			}
			for j, bv := range br {
				or[i+j] += av * bv
			}
		}
	}
	return out
}

// factorMsg returns µ_{f→to}: the factor's CPT folded with the
// messages of its other scope variables, enumerated jointly (scope
// sizes are 1 + parent count — small on the tree-structured networks
// this targets).
func (e *oracleEngine) factorMsg(f, to int) mpMsg {
	nd := e.nw.nodes[f]
	scope := make([]int, 0, 1+len(nd.Parents))
	scope = append(scope, f)
	scope = append(scope, nd.Parents...)
	others := make([]int, 0, len(scope))
	for _, u := range scope {
		if u != to {
			others = append(others, u)
		}
	}
	msgs := make([]mpMsg, len(others))
	count := 0
	for i, u := range others {
		msgs[i] = e.varMsg(u, f)
		count += msgs[i].count
	}
	cardTo := e.nw.nodes[to].Card
	out := mpMsg{count: count, width: e.width(count)}
	out.vals = make([]float64, cardTo*out.width)
	assign := make([]int, e.nw.N())
	for {
		// Convolve the selected rows of the other variables' messages.
		conv := []float64{1}
		for i, u := range others {
			m := msgs[i]
			row := m.vals[assign[u]*m.width : (assign[u]+1)*m.width]
			next := make([]float64, len(conv)+m.width-1)
			for i2, cv := range conv {
				//privlint:allow floatcompare structural-zero sparsity skip
				if cv == 0 {
					continue
				}
				for j, rv := range row {
					next[i2+j] += cv * rv
				}
			}
			conv = next
		}
		for xt := 0; xt < cardTo; xt++ {
			assign[to] = xt
			p := e.nw.CondProb(f, assign[f], assign)
			//privlint:allow floatcompare exact-zero conditional probability contributes nothing
			if p == 0 {
				continue
			}
			row := out.vals[xt*out.width : (xt+1)*out.width]
			for s, v := range conv {
				row[s] += p * v
			}
		}
		// Mixed-radix increment over the other variables.
		i := len(others) - 1
		for ; i >= 0; i-- {
			u := others[i]
			assign[u]++
			if assign[u] < e.nw.nodes[u].Card {
				break
			}
			assign[u] = 0
		}
		if i < 0 {
			return out
		}
	}
}

func oracleCountDistGiven(nw *Network, w []int, cond, condState int) (dist.Discrete, error) {
	n := nw.N()
	card := nw.nodes[0].Card
	for i, nd := range nw.nodes {
		if nd.Card != card {
			return dist.Discrete{}, fmt.Errorf("bayes: count query needs uniform cardinality; node %d has %d states, want %d", i, nd.Card, card)
		}
	}
	if len(w) != card {
		return dist.Discrete{}, fmt.Errorf("bayes: weight vector has length %d, want %d", len(w), card)
	}
	if cond < -1 || cond >= n {
		return dist.Discrete{}, fmt.Errorf("bayes: conditioning index %d outside [-1,%d)", cond, n)
	}
	if cond >= 0 && (condState < 0 || condState >= card) {
		return dist.Discrete{}, fmt.Errorf("bayes: conditioning state %d outside [0,%d)", condState, card)
	}
	if err := nw.Polytree(); err != nil {
		return dist.Discrete{}, err
	}
	e := newOracleEngine(nw, w, cond, condState)
	// Each skeleton component contributes an independent sum; the full
	// distribution is their convolution. The conditioned component is
	// read at the evidence value, the rest summed over their root.
	total := []float64{1}
	for _, comp := range nw.components() {
		rootVar := comp[0]
		inComp := false
		for _, v := range comp {
			if v == cond {
				inComp = true
				break
			}
		}
		if inComp {
			rootVar = cond
		}
		m := e.varMsg(rootVar, -1)
		vec := make([]float64, m.width)
		if inComp {
			copy(vec, m.vals[condState*m.width:(condState+1)*m.width])
		} else {
			cardRoot := nw.nodes[rootVar].Card
			for x := 0; x < cardRoot; x++ {
				for s, v := range m.vals[x*m.width : (x+1)*m.width] {
					vec[s] += v
				}
			}
		}
		next := make([]float64, len(total)+len(vec)-1)
		for i, tv := range total {
			//privlint:allow floatcompare structural-zero sparsity skip
			if tv == 0 {
				continue
			}
			for j, vv := range vec {
				next[i+j] += tv * vv
			}
		}
		total = next
	}
	var mass float64
	for _, v := range total {
		mass += v
	}
	if mass <= 1e-300 {
		return dist.Discrete{}, fmt.Errorf("bayes: conditioning event X_%d=%d has probability zero", cond, condState)
	}
	atoms := 0
	for _, p := range total {
		if p > 0 {
			atoms++
		}
	}
	buf := make([]float64, 2*atoms)
	xs, ps := buf[:atoms:atoms], buf[atoms:]
	i := 0
	for s, p := range total {
		if p <= 0 {
			continue
		}
		xs[i] = float64(s + n*e.wMin)
		ps[i] = p / mass
		i++
	}
	return dist.FromSorted(xs, ps)
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

// TestCountDistSweepMatchesOracle: on random polytrees and forests with
// cardinality 2–4 and weights that are negative, non-unit or an
// indicator, every (node, value) the sweep serves — over all nodes,
// over a split range, and one node at a time through CountDistGiven —
// equals the oracle bit for bit, and so does the unconditioned
// CountDist.
func TestCountDistSweepMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(2017, 15))
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.IntN(9)
		card := 2 + r.IntN(3)
		nw := randomPolytree(r, n, card)
		w := make([]int, card)
		if trial%3 == 0 {
			w[r.IntN(card)] = 1
		} else {
			for v := range w {
				w[v] = r.IntN(6) - 2
			}
		}
		name := fmt.Sprintf("trial %d (n=%d card=%d w=%v)", trial, n, card, w)
		want, err := oracleCountDistGiven(nw, w, -1, 0)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		got, err := nw.CountDist(w)
		if err != nil {
			t.Fatalf("%s: CountDist: %v", name, err)
		}
		if err := sameBits(got, want); err != nil {
			t.Fatalf("%s: CountDist: %v", name, err)
		}
		oracle := make([]dist.Discrete, n*card)
		need := make([]bool, n*card)
		for v := 0; v < n; v++ {
			for val := 0; val < card; val++ {
				d, err := oracleCountDistGiven(nw, w, v, val)
				if err != nil {
					t.Fatalf("%s X_%d=%d: oracle: %v", name, v, val, err)
				}
				g, err := nw.CountDistGiven(w, v, val)
				if err != nil {
					t.Fatalf("%s X_%d=%d: CountDistGiven: %v", name, v, val, err)
				}
				if err := sameBits(g, d); err != nil {
					t.Fatalf("%s X_%d=%d: CountDistGiven: %v", name, v, val, err)
				}
				j := v*card + val
				oracle[j], need[j] = d, r.IntN(4) > 0
			}
		}
		split := r.IntN(n)
		for _, rg := range [][2]int{{0, n - 1}, {0, split}, {split, n - 1}} {
			from, to := rg[0], rg[1]
			out := make([]dist.Discrete, (to-from+1)*card)
			if err := nw.CountDistSweep(w, from, to, need[from*card:(to+1)*card], out); err != nil {
				t.Fatalf("%s sweep [%d,%d]: %v", name, from, to, err)
			}
			for j, d := range out {
				if !need[from*card+j] {
					if d.Len() != 0 {
						t.Fatalf("%s sweep [%d,%d]: slot %d written without need", name, from, to, j)
					}
					continue
				}
				if err := sameBits(d, oracle[from*card+j]); err != nil {
					t.Fatalf("%s sweep [%d,%d] slot %d: %v", name, from, to, j, err)
				}
			}
		}
	}
}

// TestCountDistSweepValidation covers the sweep's refusal paths.
func TestCountDistSweepValidation(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	nw := randomPolytree(r, 3, 2)
	w := []int{0, 1}
	out := make([]dist.Discrete, 4)
	for _, rg := range [][2]int{{-1, 0}, {2, 3}, {1, 0}} {
		if err := nw.CountDistSweep(w, rg[0], rg[1], make([]bool, 4), out); err == nil {
			t.Errorf("range %v accepted", rg)
		}
	}
	if err := nw.CountDistSweep(w, 0, 1, make([]bool, 3), out); err == nil {
		t.Error("short need mask accepted")
	}
	if err := nw.CountDistSweep([]int{0, 1, 2}, 0, 1, make([]bool, 4), out); err == nil {
		t.Error("long weight vector accepted")
	}
}
