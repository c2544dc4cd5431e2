package bayes

import (
	"errors"
	"fmt"
	"slices"

	"pufferfish/internal/dist"
)

// ErrNotPolytree marks networks whose undirected skeleton contains a
// cycle: the exact message-passing routines below are only correct on
// polytrees (directed graphs whose skeleton is a forest), so they
// refuse such inputs instead of returning silently wrong numbers.
// Loopy networks remain serviceable through the enumeration routines
// (Marginal, MaxInfluence), which are exact on any DAG.
var ErrNotPolytree = errors.New("bayes: network is not a polytree")

// Polytree reports whether the network is a polytree — its undirected
// skeleton (one edge per parent-child arc) is a forest. It returns nil
// for polytrees and an ErrNotPolytree-wrapped error naming the arc
// that closes a cycle otherwise.
func (nw *Network) Polytree() error {
	n := len(nw.nodes)
	root := make([]int, n)
	for i := range root {
		root[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for root[x] != x {
			root[x] = root[root[x]]
			x = root[x]
		}
		return x
	}
	for i, nd := range nw.nodes {
		for _, p := range nd.Parents {
			ri, rp := find(i), find(p)
			if ri == rp {
				return fmt.Errorf("%w: arc %d→%d closes an undirected cycle", ErrNotPolytree, p, i)
			}
			root[ri] = rp
		}
	}
	return nil
}

// components groups the nodes into skeleton-connected components,
// each sorted ascending, ordered by smallest member.
func (nw *Network) components() [][]int {
	n := len(nw.nodes)
	adj := make([][]int, n)
	for i, nd := range nw.nodes {
		for _, p := range nd.Parents {
			adj[i] = append(adj[i], p)
			adj[p] = append(adj[p], i)
		}
	}
	seen := make([]bool, n)
	var comps [][]int
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for _, u := range adj[v] {
				if !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// mpMsg is one sum-augmented message of the factor-graph belief
// propagation: vals[x*width + s] is the joint probability mass of the
// message's subtree taking an assignment consistent with the message
// variable at value x whose weight sum over the subtree's count
// variables is s + count·wMin. Marginal queries (no weights) use
// width 1 and count 0 throughout, so one engine serves both.
type mpMsg struct {
	vals  []float64
	width int
	count int
}

// mpEngine runs exact belief propagation on the factor graph of a
// polytree (one factor per node, scope {node} ∪ parents; the factor
// graph of a polytree is a tree, so a single inward pass per query is
// exact). Message order is deterministic — factors ascending, scope in
// (node, parents...) order — so results are bit-identical run to run.
//
// The engine carries no evidence: a conditional query reads the row of
// the conditioned value off the message rooted at the conditioned
// node (see CountDistSweep). A directed message depends only on its
// edge, so the engine memoizes each one: rooted passes at every node
// of the network cost O(edges) messages in total, and every message is
// the one a fresh pass would compute, bit for bit.
type mpEngine struct {
	nw         *Network
	w          []int   // nil for marginal queries
	wMin, span int     // weight range (span = wMax − wMin; 0 when w == nil)
	varFactors [][]int // variable → factors whose scope contains it
	// varMsgs[{v, f}] = µ_{v→f} and facMsgs[{f, v}] = µ_{f→v}; cached
	// messages are never modified.
	varMsgs, facMsgs map[[2]int]mpMsg
}

func newMPEngine(nw *Network, w []int) *mpEngine {
	e := &mpEngine{nw: nw, w: w, varMsgs: map[[2]int]mpMsg{}, facMsgs: map[[2]int]mpMsg{}}
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
func (e *mpEngine) width(count int) int { return count*e.span + 1 }

// varMsg returns µ_{v→from}: v's own weight atom combined (by
// convolution over the sum axis) with the messages of every adjacent
// factor except from. from = −1 reads the root message.
func (e *mpEngine) varMsg(v, from int) mpMsg {
	if m, ok := e.varMsgs[[2]int{v, from}]; ok {
		return m
	}
	card := e.nw.nodes[v].Card
	count := 0
	if e.w != nil {
		count = 1
	}
	m := mpMsg{count: count, width: e.width(count)}
	m.vals = make([]float64, card*m.width)
	for x := 0; x < card; x++ {
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
		m = mulConv(m, e.factorMsg(g, v), card)
	}
	if from >= 0 {
		e.varMsgs[[2]int{v, from}] = m
	}
	return m
}

// mulConv multiplies two messages over the same variable: pointwise in
// x, convolution along the sum axis.
func mulConv(a, b mpMsg, card int) mpMsg {
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
func (e *mpEngine) factorMsg(f, to int) mpMsg {
	if m, ok := e.facMsgs[[2]int{f, to}]; ok {
		return m
	}
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
			e.facMsgs[[2]int{f, to}] = out
			return out
		}
	}
}

// MarginalsMP returns every node's marginal distribution, computed
// exactly by message passing — O(n) messages for all nodes together
// instead of the exponential joint enumeration of NodeMarginal, so it
// scales to polytrees far past maxJointSize. Non-polytree networks
// return ErrNotPolytree.
func (nw *Network) MarginalsMP() ([][]float64, error) {
	if err := nw.Polytree(); err != nil {
		return nil, err
	}
	out := make([][]float64, nw.N())
	e := newMPEngine(nw, nil)
	for j := range nw.nodes {
		m := e.varMsg(j, -1)
		row := make([]float64, nw.nodes[j].Card)
		var total float64
		for x := range row {
			row[x] = m.vals[x]
			total += row[x]
		}
		for x := range row {
			row[x] /= total
		}
		out[j] = row
	}
	return out, nil
}

// CountDist returns the exact distribution of N = Σ_i w[X_i] over the
// network's nodes, by sum-augmented message passing (polytrees only).
func (nw *Network) CountDist(w []int) (dist.Discrete, error) {
	return nw.CountDistGiven(w, -1, 0)
}

// CountDistGiven returns the exact distribution of N = Σ_i w[X_i]
// conditioned on X_cond = condState, where cond is a 0-based node
// index; cond == −1 means no conditioning. All nodes must share one
// cardinality (the count query's weight vector indexes values), the
// network must be a polytree (ErrNotPolytree otherwise), and a
// zero-probability conditioning event is an error. It is
// CountDistSweep over the single node cond.
//
// This is the distribution oracle the network Substrate feeds to the
// count-distribution → W∞ → noise pipeline: the polytree analogue of
// markov.Chain.CountDistGiven, running in O(n · card^(maxParents+1) ·
// range²) instead of joint enumeration.
func (nw *Network) CountDistGiven(w []int, cond, condState int) (dist.Discrete, error) {
	n := nw.N()
	if err := nw.checkCountQuery(w); err != nil {
		return dist.Discrete{}, err
	}
	card := len(w)
	if cond < -1 || cond >= n {
		return dist.Discrete{}, fmt.Errorf("bayes: conditioning index %d outside [-1,%d)", cond, n)
	}
	if cond >= 0 && (condState < 0 || condState >= card) {
		return dist.Discrete{}, fmt.Errorf("bayes: conditioning state %d outside [0,%d)", condState, card)
	}
	if err := nw.Polytree(); err != nil {
		return dist.Discrete{}, err
	}
	s := nw.newCountSweep(w)
	if cond < 0 {
		return s.dist(-1, condState, nil)
	}
	need := make([]bool, card)
	need[condState] = true
	out := make([]dist.Discrete, card)
	if err := s.run(cond, cond, need, out); err != nil {
		return dist.Discrete{}, err
	}
	return out[condState], nil
}

// CountDistSweep computes P(N | X_v = val) for every node v in
// [from, to] (0-based) and every value val with need[(v−from)·card +
// val], writing it to out at the same index; the other slots of out
// are left untouched. It errors on the first needed conditioning event
// (in ascending (v, val) order) of probability zero.
//
// One rooted pass at v, with no evidence row restricted, serves every
// value of v: mulConv works row by row and no incoming factor message
// touches v, so row val of the unrestricted root message is bit for bit
// the message the pass conditioned on X_v = val computes. The polytree
// check, the component split and the sums of the components not
// holding v run once per sweep, and the engine computes each directed
// message once. Every distribution is therefore bit-identical to
// CountDistGiven(w, v, val).
func (nw *Network) CountDistSweep(w []int, from, to int, need []bool, out []dist.Discrete) error {
	if err := nw.checkCountQuery(w); err != nil {
		return err
	}
	if from < 0 || to >= nw.N() || from > to {
		return fmt.Errorf("bayes: sweep range [%d,%d] outside [0,%d)", from, to, nw.N())
	}
	if n := (to - from + 1) * len(w); len(need) != n || len(out) != n {
		return fmt.Errorf("bayes: sweep over [%d,%d] needs %d need/out slots, got %d/%d", from, to, n, len(need), len(out))
	}
	if err := nw.Polytree(); err != nil {
		return err
	}
	return nw.newCountSweep(w).run(from, to, need, out)
}

// checkCountQuery validates a count query's weight vector against the
// network: one cardinality shared by every node, and one weight per
// value.
func (nw *Network) checkCountQuery(w []int) error {
	card := nw.nodes[0].Card
	for i, nd := range nw.nodes {
		if nd.Card != card {
			return fmt.Errorf("bayes: count query needs uniform cardinality; node %d has %d states, want %d", i, nd.Card, card)
		}
	}
	if len(w) != card {
		return fmt.Errorf("bayes: weight vector has length %d, want %d", len(w), card)
	}
	return nil
}

// countSweep holds the per-sweep state of the conditional count
// queries on one polytree: an evidence-free engine, the skeleton
// components, and each component's unconditioned sum vector, computed
// the first time another component's node is conditioned.
type countSweep struct {
	nw     *Network
	e      *mpEngine
	comps  [][]int
	compOf []int
	free   [][]float64 // component → Σ_x of its root message, lazily
}

func (nw *Network) newCountSweep(w []int) *countSweep {
	s := &countSweep{nw: nw, e: newMPEngine(nw, w), comps: nw.components()}
	s.compOf = make([]int, nw.N())
	for ci, comp := range s.comps {
		for _, v := range comp {
			s.compOf[v] = ci
		}
	}
	s.free = make([][]float64, len(s.comps))
	return s
}

// run is CountDistSweep after validation.
func (s *countSweep) run(from, to int, need []bool, out []dist.Discrete) error {
	card := s.nw.nodes[0].Card
	for v := from; v <= to; v++ {
		row := need[(v-from)*card : (v-from+1)*card]
		if !slices.Contains(row, true) {
			continue
		}
		m := s.e.varMsg(v, -1)
		for val, ok := range row {
			if !ok {
				continue
			}
			d, err := s.dist(v, val, m.vals[val*m.width:(val+1)*m.width])
			if err != nil {
				return err
			}
			out[(v-from)*card+val] = d
		}
	}
	return nil
}

// unconditioned returns component ci's sum vector: its root message,
// summed over the root's value.
func (s *countSweep) unconditioned(ci int) []float64 {
	if s.free[ci] != nil {
		return s.free[ci]
	}
	rootVar := s.comps[ci][0]
	m := s.e.varMsg(rootVar, -1)
	vec := make([]float64, m.width)
	for x := 0; x < s.nw.nodes[rootVar].Card; x++ {
		for i, v := range m.vals[x*m.width : (x+1)*m.width] {
			vec[i] += v
		}
	}
	s.free[ci] = vec
	return vec
}

// dist convolves the components' sum vectors in component order —
// condVec, the root message row of X_v = val, standing in for v's
// component (v = −1: none) — and normalises the result.
func (s *countSweep) dist(v, val int, condVec []float64) (dist.Discrete, error) {
	// Each skeleton component contributes an independent sum; the full
	// distribution is their convolution.
	total := []float64{1}
	for ci := range s.comps {
		vec := condVec
		if v < 0 || ci != s.compOf[v] {
			vec = s.unconditioned(ci)
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
		return dist.Discrete{}, fmt.Errorf("bayes: conditioning event X_%d=%d has probability zero", v, val)
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
	for j, p := range total {
		if p <= 0 {
			continue
		}
		xs[i] = float64(j + s.nw.N()*s.e.wMin)
		ps[i] = p / mass
		i++
	}
	return dist.FromSorted(xs, ps)
}
