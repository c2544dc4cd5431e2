// Package accounting is an RDP/zCDP privacy ledger for sequences of
// Pufferfish releases, following Pierquin, Bellet, Tommasi, Boussard,
// "Rényi Pufferfish Privacy" (arXiv:2312.13985).
//
// # Why a ledger
//
// Theorem 4.4 of Song–Wang–Chaudhuri only gives linear composition: K
// releases at ε_1 … ε_K (same active quilts) satisfy K·max_k ε_k
// Pufferfish privacy. Pierquin et al. show the same W∞ shift-reduction
// bound that calibrates the Gaussian backend of internal/noise also
// yields a Rényi guarantee
//
//	ε_α = α·W∞² / (2σ²)                       (Gaussian, every α > 1)
//
// that composes *additively in the α-divergence*: the accumulated
// curve of K releases is the pointwise sum of the per-release curves,
// and converts back to an (ε, δ) statement via
//
//	ε(δ) = min_α [ ε_α + log(1/δ)/(α − 1) ].
//
// For K homogeneous Gaussian releases this grows like K·ρ + 2√(K·ρ·
// log(1/δ)) — √K-ish, quadratically tighter than the linear K·ε of
// Theorem 4.4 once K is large.
//
// Pure-ε releases (the Laplace quilt mechanisms) enter the same curve
// through the standard pure-ε → RDP conversion
//
//	ε_α = min(ε, α·ε²/2)
//
// (the α·ε²/2 branch is the ½ε²-zCDP bound of Bun–Steinke,
// Proposition 1.4; the ε branch is D_α ≤ D_∞, both per secret-pair
// direction, which the symmetric Pufferfish guarantee provides). On
// top of the curve the ledger always retains the linear Theorem 4.4
// statement (K·max ε at δ = Σδ_i), and Epsilon reports the smaller of
// the two applicable bounds — so linear accounting is the exact
// degenerate case: for a single pure release, Epsilon(δ) = ε.
//
// # Composition caveat
//
// Pufferfish in general does not compose (Section 4.3 of the source
// paper). Every composition statement here — linear and Rényi alike —
// inherits Theorem 4.4's shared-active-quilt hypothesis: all releases
// must use the same quilt sets (core.Composition enforces this) or be
// calibrated by a W∞ bound over the same instantiation (the
// Kantorovich releases). The ledger records what its caller feeds it;
// upholding the hypothesis is the caller's contract (core.Composition
// is one such caller: it charges each of its releases here).
//
// # Mechanics
//
// The accumulated curve is maintained on a fixed α-grid, updated in
// O(grid) per Add; Epsilon(δ) is an O(grid) scan whose result is
// memoized per δ and invalidated on Add, so the optimization runs once
// per (ledger state, δ). The Ledger is safe for concurrent use — it is
// the per-session object a long-lived server keeps across requests —
// and serializes losslessly through Snapshot/Restore (entries only;
// the grid vector is recomputed).
package accounting

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Entry kinds.
const (
	// KindPure is an ε-Pufferfish release (Laplace noise, exponential
	// mechanism, or any pure-ε quilt release).
	KindPure = "pure"
	// KindGaussian is an (ε, δ)-style Gaussian release whose Rényi
	// curve ε_α = α·ρ is exact (ρ = Σ_coords W∞²/(2σ²)).
	KindGaussian = "gaussian"
)

// DefaultDelta is the δ at which ledgers report their headline (ε, δ)
// statement when the caller does not configure one.
const DefaultDelta = 1e-5

// Entry is one recorded release: the validated inputs of Add, and the
// unit of Snapshot persistence.
type Entry struct {
	// Kind is KindPure or KindGaussian.
	Kind string `json:"kind"`
	// Mechanism optionally labels the release ("mqm-exact",
	// "kantorovich", …) for reports; it does not affect accounting.
	Mechanism string `json:"mechanism,omitempty"`
	// Eps is the release's configured privacy parameter ε.
	Eps float64 `json:"eps"`
	// Delta is the release's configured δ (0 for pure releases).
	Delta float64 `json:"delta,omitempty"`
	// Rho is the release's zCDP parameter (Gaussian only): the Rényi
	// curve is ε_α = α·Rho.
	Rho float64 `json:"rho,omitempty"`
}

// EpsAlpha evaluates the entry's Rényi curve at order α > 1.
func (e Entry) EpsAlpha(alpha float64) float64 {
	switch e.Kind {
	case KindGaussian:
		return alpha * e.Rho
	default: // KindPure — validate rejects anything else
		return math.Min(e.Eps, alpha*e.Eps*e.Eps/2)
	}
}

// Validate rejects entries that no release path could have produced —
// the guard Restore and the WAL replay share so corrupted or
// hand-edited persistence can never plant impossible accounting state.
func (e Entry) Validate() error { return e.validate() }

// validate rejects entries that no release path could have produced.
func (e Entry) validate() error {
	switch e.Kind {
	case KindPure:
		//privlint:allow floatcompare zero is the exact unset sentinel for a pure entry
		if e.Rho != 0 {
			return fmt.Errorf("accounting: pure entry carries ρ = %v", e.Rho)
		}
		//privlint:allow floatcompare zero is the exact unset sentinel for a pure entry
		if e.Delta != 0 {
			return fmt.Errorf("accounting: pure entry carries δ = %v", e.Delta)
		}
	case KindGaussian:
		if !(e.Rho > 0) || math.IsInf(e.Rho, 1) {
			return fmt.Errorf("accounting: gaussian entry has invalid ρ = %v", e.Rho)
		}
		if !(e.Delta > 0 && e.Delta < 1) {
			return fmt.Errorf("accounting: gaussian entry has invalid δ = %v", e.Delta)
		}
	default:
		return fmt.Errorf("accounting: unknown entry kind %q", e.Kind)
	}
	if !(e.Eps > 0) || math.IsInf(e.Eps, 1) {
		return fmt.Errorf("accounting: entry has invalid ε = %v", e.Eps)
	}
	return nil
}

// CurvePoint is one sample of a Rényi curve, for reports.
type CurvePoint struct {
	Alpha float64 `json:"alpha"`
	Eps   float64 `json:"eps"`
}

// ReportAlphas is the small α sample reports attach per release; the
// conversion itself runs on the much finer internal grid.
var ReportAlphas = []float64{2, 4, 8, 16, 32, 64}

// EntryCurve samples an entry's Rényi curve at the given orders.
func EntryCurve(e Entry, alphas []float64) []CurvePoint {
	pts := make([]CurvePoint, len(alphas))
	for i, a := range alphas {
		pts[i] = CurvePoint{Alpha: a, Eps: e.EpsAlpha(a)}
	}
	return pts
}

// defaultAlphas is the conversion grid: dense where the Gaussian
// optimum usually lands (small α), geometric beyond so pure-dominated
// curves (capped at Σε) can ride log(1/δ)/(α−1) down to nothing.
var defaultAlphas = func() []float64 {
	var as []float64
	for a := 1.25; a <= 10; a += 0.25 {
		as = append(as, a)
	}
	for a := 10.5; a <= 64; a += 0.5 {
		as = append(as, a)
	}
	for a := 96.0; a <= 1<<20; a *= 1.5 {
		as = append(as, a)
	}
	return as
}()

// ErrCeilingExceeded marks a charge refused by a budget ceiling: the
// release, had it been recorded, would have pushed the ledger's
// cumulative ε past the configured maximum. Callers match it with
// errors.Is to map the refusal onto a distinct status (the serving
// layer returns 403, never 500: the request was understood and is
// permanently refused — retrying cannot help).
var ErrCeilingExceeded = errors.New("accounting: budget ceiling exceeded")

// ErrJournal marks a charge refused because the write-ahead journal
// could not make it durable. The safe direction: a charge that cannot
// be journaled is not applied and the release must not go out.
var ErrJournal = errors.New("accounting: journal append failed")

// Journal is the write-ahead hook a Ledger charges through. Append
// must make (session, entry) durable — fsync'd — before returning;
// the ledger mutates its state only after Append succeeds, so a crash
// at any point can over-count spend but never under-count it (the
// charge-ahead invariant). Applied(seq) acknowledges that the
// in-memory state now reflects the appended record; journals use it
// to track the low-water sequence a snapshot may safely truncate to.
type Journal interface {
	Append(session string, e Entry) (seq uint64, err error)
	Applied(seq uint64)
}

// Ledger accumulates per-release Rényi curves and answers (ε, δ)
// queries against the running total. The zero value is not usable;
// construct with NewLedger.
//
// The ledger retains one Entry per release so snapshots are a faithful
// audit trail (Restore re-validates and replays them). Memory and
// snapshot size therefore grow by a few words per release; a session
// expected to account millions of releases should be rotated (snapshot
// + fresh ledger) rather than grown forever.
type Ledger struct {
	mu       sync.Mutex
	delta    float64             // headline δ for State().Epsilon; fixed at construction
	entries  []entry             // guarded by mu
	labels   []string            // guarded by mu; the entries' Kind and Mechanism strings
	labelIdx map[string]uint32   // guarded by mu; label → index into labels
	epsAlpha []float64           // guarded by mu; accumulated curve on defaultAlphas
	maxEps   float64             // guarded by mu
	deltaSum float64             // guarded by mu
	memo     map[float64]float64 // guarded by mu; δ → optimized ε, cleared on Add

	// ceilEps/ceilDelta, when ceilEps > 0, are the hard budget
	// ceiling: Add refuses (ErrCeilingExceeded) any entry that would
	// push Epsilon(ceilDelta) past ceilEps. The check runs before the
	// journal append and before any mutation, so a refused release is
	// never charged anywhere.
	ceilEps   float64 // guarded by mu
	ceilDelta float64 // guarded by mu

	// journal, when set, receives every entry before it is applied
	// (charge-ahead; see Journal). session labels the records.
	journal Journal // guarded by mu
	session string  // guarded by mu
}

// NewLedger returns an empty ledger whose headline State().Epsilon
// reports ε at the given δ (δ <= 0 selects DefaultDelta).
func NewLedger(delta float64) *Ledger {
	if !(delta > 0 && delta < 1) {
		delta = DefaultDelta
	}
	return &Ledger{
		delta:    delta,
		labelIdx: map[string]uint32{},
		epsAlpha: make([]float64, len(defaultAlphas)),
		memo:     map[float64]float64{},
	}
}

// entry is an Entry as a ledger retains it: Kind and Mechanism are
// indices into the ledger's label table, so each recorded release
// holds four words instead of seven.
type entry struct {
	eps, delta, rho float64
	kind, mech      uint32
}

// packLocked converts e to its retained form; the caller holds mu.
func (l *Ledger) packLocked(e Entry) entry {
	return entry{eps: e.Eps, delta: e.Delta, rho: e.Rho, kind: l.labelLocked(e.Kind), mech: l.labelLocked(e.Mechanism)}
}

// unpackLocked is the inverse of packLocked; the caller holds mu.
func (l *Ledger) unpackLocked(e entry) Entry {
	return Entry{Kind: l.labels[e.kind], Mechanism: l.labels[e.mech], Eps: e.eps, Delta: e.delta, Rho: e.rho}
}

// unpackAllLocked returns every entry in its public form; the caller holds
// mu.
func (l *Ledger) unpackAllLocked() []Entry {
	out := make([]Entry, len(l.entries))
	for i, e := range l.entries {
		out[i] = l.unpackLocked(e)
	}
	return out
}

func (l *Ledger) labelLocked(s string) uint32 {
	i, ok := l.labelIdx[s]
	if !ok {
		i = uint32(len(l.labels))
		l.labels = append(l.labels, s)
		l.labelIdx[s] = i
	}
	return i
}

// SetCeiling installs a hard budget ceiling: every later Add (and
// CheckCharge) refuses entries that would push the cumulative
// Epsilon(delta) past eps. eps = 0 clears the ceiling; delta <= 0
// selects the ledger's headline δ. Installing a ceiling the ledger
// already exceeds is not an error — it simply refuses all further
// charges, which is exactly what a restored-after-crash session that
// overshot its budget must do.
func (l *Ledger) SetCeiling(eps, delta float64) error {
	//privlint:allow floatcompare eps = 0 is the exact clear-the-ceiling sentinel
	if eps == 0 {
		l.mu.Lock()
		defer l.mu.Unlock()
		l.ceilEps, l.ceilDelta = 0, 0
		return nil
	}
	if !(eps > 0) || math.IsInf(eps, 1) {
		return fmt.Errorf("accounting: invalid ceiling ε = %v", eps)
	}
	if delta <= 0 {
		delta = l.delta
	}
	if !(delta > 0 && delta < 1) {
		return fmt.Errorf("accounting: invalid ceiling δ = %v", delta)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ceilEps, l.ceilDelta = eps, delta
	return nil
}

// Ceiling returns the configured ceiling (0, 0 when none).
func (l *Ledger) Ceiling() (eps, delta float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ceilEps, l.ceilDelta
}

// SetJournal routes every subsequent charge through the write-ahead
// journal under the given session label (see Journal). It must be
// installed before the ledger starts taking live traffic — typically
// right after construction or Restore.
func (l *Ledger) SetJournal(j Journal, session string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.journal = j
	l.session = session
}

// CheckCharge simulates recording the given entries on top of the
// current state and reports ErrCeilingExceeded if the result would
// breach the ceiling (nil when no ceiling is set). It never mutates
// the ledger — the serving layer runs it before any scoring work so a
// doomed release is refused before it costs anything. Concurrent
// charges can still win the race between CheckCharge and Add; Add
// re-checks authoritatively.
func (l *Ledger) CheckCharge(entries ...Entry) error {
	for _, e := range entries {
		if err := e.validate(); err != nil {
			return err
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.checkCeilingLocked(entries...)
}

// checkCeilingLocked simulates entries against the ceiling without
// mutating state.
func (l *Ledger) checkCeilingLocked(entries ...Entry) error {
	if !(l.ceilEps > 0) {
		return nil
	}
	cand := make([]float64, len(defaultAlphas))
	copy(cand, l.epsAlpha)
	n, maxEps, deltaSum := len(l.entries), l.maxEps, l.deltaSum
	for _, e := range entries {
		for i, a := range defaultAlphas {
			cand[i] += e.EpsAlpha(a)
		}
		if e.Eps > maxEps {
			maxEps = e.Eps
		}
		deltaSum += e.Delta
		n++
	}
	if eps := epsilonOf(cand, n, maxEps, deltaSum, l.ceilDelta); eps > l.ceilEps {
		return fmt.Errorf("%w: charge would raise ε(δ=%g) to %g over ceiling %g (%d releases recorded)",
			ErrCeilingExceeded, l.ceilDelta, eps, l.ceilEps, len(l.entries))
	}
	return nil
}

// Add records one release. Invalid entries and entries over the
// configured ceiling are rejected before any state changes — and
// before the journal append — so a ledger never holds (or journals) a
// partially applied or refused release. When a journal is installed,
// the entry is made durable first and the in-memory state mutates
// only after the append succeeds: a crash between the two over-counts
// the spend on replay, never under-counts it.
func (l *Ledger) Add(e Entry) error {
	if err := e.validate(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.addLocked(e)
}

// Charge is Add returning the ledger's State right after this entry,
// read in the same critical section as the charge: a concurrent charge
// to the same ledger can never show through, so the state counts this
// entry and exactly the entries recorded before it.
func (l *Ledger) Charge(e Entry) (State, error) {
	if err := e.validate(); err != nil {
		return State{}, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.addLocked(e); err != nil {
		return State{}, err
	}
	return l.stateLocked(), nil
}

func (l *Ledger) addLocked(e Entry) error {
	if err := l.checkCeilingLocked(e); err != nil {
		return err
	}
	var seq uint64
	if l.journal != nil {
		var err error
		seq, err = l.journal.Append(l.session, e)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrJournal, err)
		}
	}
	l.entries = append(l.entries, l.packLocked(e))
	for i, a := range defaultAlphas {
		l.epsAlpha[i] += e.EpsAlpha(a)
	}
	if e.Eps > l.maxEps {
		l.maxEps = e.Eps
	}
	l.deltaSum += e.Delta
	clear(l.memo)
	if l.journal != nil {
		l.journal.Applied(seq)
	}
	return nil
}

// State is one consistent reading of a ledger's cumulative budget.
type State struct {
	// Releases is the number of recorded releases.
	Releases int
	// LinearEpsilon is the Theorem 4.4 linear bound (see LinearEpsilon).
	LinearEpsilon float64
	// DeltaSum is Σ per-release δ, the linear bound's δ.
	DeltaSum float64
	// Delta is the ledger's headline δ.
	Delta float64
	// Epsilon is the RDP-optimized ε at Delta (see Epsilon).
	Epsilon float64
}

// State reads every cumulative figure under one lock acquisition, so
// all of them describe the same set of recorded releases.
func (l *Ledger) State() State {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stateLocked()
}

func (l *Ledger) stateLocked() State {
	return State{
		Releases:      len(l.entries),
		LinearEpsilon: l.linearLocked(),
		DeltaSum:      l.deltaSum,
		Delta:         l.delta,
		Epsilon:       l.epsilonLocked(l.delta),
	}
}

// AddPure records an ε-Pufferfish release.
func (l *Ledger) AddPure(mechanism string, eps float64) error {
	return l.Add(Entry{Kind: KindPure, Mechanism: mechanism, Eps: eps})
}

// AddGaussian records a Gaussian release with zCDP parameter rho
// (noise.GaussianRho per coordinate, summed over coordinates) that was
// calibrated to the per-release target (eps, delta).
func (l *Ledger) AddGaussian(mechanism string, rho, eps, delta float64) error {
	return l.Add(Entry{Kind: KindGaussian, Mechanism: mechanism, Eps: eps, Delta: delta, Rho: rho})
}

// Count returns the number of recorded releases.
func (l *Ledger) Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Delta returns the ledger's headline δ.
func (l *Ledger) Delta() float64 { return l.delta }

// LinearEpsilon returns the Theorem 4.4 linear bound K·max_k ε_k over
// the recorded releases (0 before any). For ledgers holding Gaussian
// entries the bound's δ side is DeltaSum.
func (l *Ledger) LinearEpsilon() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.linearLocked()
}

func (l *Ledger) linearLocked() float64 {
	return float64(len(l.entries)) * l.maxEps
}

// DeltaSum returns Σ_k δ_k over the recorded releases — the δ at which
// the linear bound holds.
func (l *Ledger) DeltaSum() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.deltaSum
}

// Rho returns the accumulated zCDP parameter of the Gaussian entries
// (the slope of their joint curve).
func (l *Ledger) Rho() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var rho float64
	for _, e := range l.entries {
		rho += e.rho
	}
	return rho
}

// Entries returns a copy of the recorded releases in order.
func (l *Ledger) Entries() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.unpackAllLocked()
}

// Curve samples the accumulated Rényi curve at the given orders (the
// pointwise sum of the per-release curves).
func (l *Ledger) Curve(alphas []float64) []CurvePoint {
	l.mu.Lock()
	defer l.mu.Unlock()
	pts := make([]CurvePoint, len(alphas))
	for i, a := range alphas {
		var sum float64
		for _, e := range l.entries {
			sum += l.unpackLocked(e).EpsAlpha(a)
		}
		pts[i] = CurvePoint{Alpha: a, Eps: sum}
	}
	return pts
}

// Epsilon converts the accumulated curve to an ε valid at the given δ:
// the α-grid minimum of ε_α + log(1/δ)/(α−1), further capped by the
// linear Theorem 4.4 bound whenever that bound's δ budget (DeltaSum)
// fits under δ — which makes a single pure release report exactly its
// ε, the linear degenerate case. Results are memoized per δ until the
// next Add. An empty ledger reports 0; an invalid δ reports an error.
func (l *Ledger) Epsilon(delta float64) (float64, error) {
	if !(delta > 0 && delta < 1) {
		return 0, fmt.Errorf("accounting: δ = %v outside (0, 1)", delta)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epsilonLocked(delta), nil
}

// epsilonLocked is Epsilon at a validated δ.
func (l *Ledger) epsilonLocked(delta float64) float64 {
	if len(l.entries) == 0 {
		return 0
	}
	if eps, ok := l.memo[delta]; ok {
		return eps
	}
	eps := epsilonOf(l.epsAlpha, len(l.entries), l.maxEps, l.deltaSum, delta)
	l.memo[delta] = eps
	return eps
}

// epsilonOf is the (ε, δ) conversion over an explicit curve state: the
// α-grid minimum of ε_α + log(1/δ)/(α−1), capped by the linear bound
// n·maxEps whenever its δ budget (deltaSum) fits under delta. Shared
// by Epsilon and the ceiling simulation so both answer identically.
func epsilonOf(epsAlpha []float64, n int, maxEps, deltaSum, delta float64) float64 {
	if n == 0 {
		return 0
	}
	logInvDelta := math.Log(1 / delta)
	eps := math.Inf(1)
	for i, a := range defaultAlphas {
		if v := epsAlpha[i] + logInvDelta/(a-1); v < eps {
			eps = v
		}
	}
	if deltaSum <= delta {
		eps = math.Min(eps, float64(n)*maxEps)
	}
	return eps
}

// Snapshot is the JSON image of a ledger: the headline δ and the
// entries, from which the curve state is reconstructed on Restore.
type Snapshot struct {
	Delta   float64 `json:"delta"`
	Entries []Entry `json:"entries,omitempty"`
}

// Snapshot captures the ledger's state.
func (l *Ledger) Snapshot() Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Snapshot{Delta: l.delta, Entries: l.unpackAllLocked()}
}

// Restore rebuilds a ledger from a snapshot, re-validating every entry
// so a corrupted or hand-edited file cannot plant accounting state no
// release path could have produced.
func Restore(s Snapshot) (*Ledger, error) {
	l := NewLedger(s.Delta)
	for i, e := range s.Entries {
		if err := l.Add(e); err != nil {
			return nil, fmt.Errorf("accounting: snapshot entry %d: %w", i, err)
		}
	}
	return l, nil
}
