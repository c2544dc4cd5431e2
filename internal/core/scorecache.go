package core

import (
	"errors"
	"maps"
	"sync"
	"sync/atomic"

	"pufferfish/internal/markov"
	"pufferfish/internal/matrix"
	"pufferfish/internal/sched"
)

// scoreKey identifies one memoizable score computation: the class
// fingerprint plus everything else the result depends on. Parallelism
// is deliberately absent — the engine's scores are bit-for-bit
// identical at every worker count, so cached results are shared across
// parallelism settings.
type scoreKey struct {
	fp        Fingerprint
	eps       float64
	exact     bool
	maxWidth  int
	forceFull bool
}

// CacheStats reports a ScoreCache's traffic counters.
type CacheStats struct {
	Hits, Misses int64
}

// CellScore is the per-cell transport profile the Kantorovich
// subsystem memoizes: the two Wasserstein suprema of one histogram
// cell's conditional count distributions over every admissible secret
// pair and θ. It is ε-independent (distances depend only on the class
// and the cell), so one entry serves every privacy budget.
type CellScore struct {
	// WInf is sup W∞ over the cell's pairs — the quantity the
	// exponential/additive mechanism calibrates to (Theorem 3.2).
	WInf float64 `json:"w_inf"`
	// W1 is sup W₁ (the Kantorovich distance) over the same pairs: the
	// average-case transport cost, reported as the conservativeness
	// diagnostic W₁/W∞.
	W1 float64 `json:"w1"`
	// Label identifies the W∞-maximizing pair for diagnostics.
	Label string `json:"label,omitempty"`
	// Pairs counts the admissible secret pairs swept.
	Pairs int `json:"pairs"`
}

// cellKey identifies one memoizable Kantorovich cell profile: the
// class fingerprint (which covers T, K, inits and transitions) plus
// the cell (state) index whose indicator count is profiled.
type cellKey struct {
	fp   Fingerprint
	cell int
}

// ScoreCache memoizes ChainScore results by (class fingerprint, ε,
// options). Composition-heavy workloads — repeated releases over an
// unchanged class, the regime of Theorem 4.4 — pay the scoring sweep
// once and hit the cache thereafter. The cache is safe for concurrent
// use and bounded: past maxCacheEntries entries across both tables,
// each new key evicts the oldest one (FIFO), so a client streaming
// distinct ε values or models cannot grow it — or the snapshot that
// persists it — without limit. An evicted key simply scores again,
// bit-identically.
//
// A second side table memoizes the Kantorovich subsystem's per-cell
// transport profiles by (class fingerprint, cell); both tables share
// the hit/miss counters, so one cache object (and one Report.Cache
// block, one /v1/stats entry, one persistence snapshot) covers every
// mechanism family.
//
// A nil *ScoreCache is valid everywhere one is accepted and simply
// disables memoization, so callers thread an optional cache without
// branching.
type ScoreCache struct {
	mu    sync.RWMutex
	m     map[scoreKey]ChainScore // guarded by mu
	cells map[cellKey]CellScore   // guarded by mu
	// order is the FIFO admission ring over both tables' keys, oldest
	// at head once the ring is full; guarded by mu.
	order        []entryKey
	head         int
	hits, misses atomic.Int64
	// tables holds the per-transition-matrix derived tables (powers,
	// log-domain influence rows, marginal prefixes) that survive across
	// ScoreBatch calls, so repeated releases and multi-length
	// profiles over the same fitted model extend tables incrementally
	// instead of rebuilding them. Not persisted: the tables are derived
	// data, rebuilt (and re-verified against the matrices) on demand.
	tables *powerCacheSet
}

// maxCacheEntries bounds a ScoreCache across both tables: 16 entries
// for each of the maxTableMatrices models whose derived tables stay
// resident.
const maxCacheEntries = 16 * maxTableMatrices

// entryKey names one entry of either table in the admission ring,
// packed into half the size of the two keys side by side: a
// cellKey{fp, cell: n} when cell is set, else a
// scoreKey{fp, eps, exact, maxWidth: n, forceFull}.
type entryKey struct {
	fp                     Fingerprint
	eps                    float64
	n                      int
	cell, exact, forceFull bool
}

func (k scoreKey) entry() entryKey {
	return entryKey{fp: k.fp, eps: k.eps, n: k.maxWidth, exact: k.exact, forceFull: k.forceFull}
}

func (k cellKey) entry() entryKey { return entryKey{fp: k.fp, n: k.cell, cell: true} }

func (e entryKey) score() scoreKey {
	return scoreKey{fp: e.fp, eps: e.eps, exact: e.exact, maxWidth: e.n, forceFull: e.forceFull}
}

func (e entryKey) cellKey() cellKey { return cellKey{fp: e.fp, cell: e.n} }

// admitLocked records key as the newest entry, evicting the oldest one
// when the cache is full. The caller holds mu and has just inserted key
// into its table; re-storing a resident key does not admit it again.
func (sc *ScoreCache) admitLocked(key entryKey) {
	if len(sc.order) < maxCacheEntries {
		sc.order = append(sc.order, key)
		return
	}
	if old := sc.order[sc.head]; old.cell {
		delete(sc.cells, old.cellKey())
	} else {
		delete(sc.m, old.score())
	}
	sc.order[sc.head] = key
	sc.head = (sc.head + 1) % maxCacheEntries
	if sc.head == 0 {
		// Deletes leave tombstones that a map never gives back; one
		// rebuild per lap of the ring keeps both tables at the size
		// their live entries need.
		sc.m = maps.Clone(sc.m)
		sc.cells = maps.Clone(sc.cells)
	}
}

// storeScoreLocked and storeCellLocked insert or overwrite one entry;
// the caller holds mu.
func (sc *ScoreCache) storeScoreLocked(key scoreKey, s ChainScore) {
	if _, ok := sc.m[key]; !ok {
		sc.admitLocked(key.entry())
	}
	sc.m[key] = s
}

func (sc *ScoreCache) storeCellLocked(key cellKey, s CellScore) {
	if _, ok := sc.cells[key]; !ok {
		sc.admitLocked(key.entry())
	}
	sc.cells[key] = s
}

// NewScoreCache returns an empty cache.
func NewScoreCache() *ScoreCache {
	return &ScoreCache{
		m:      make(map[scoreKey]ChainScore),
		cells:  make(map[cellKey]CellScore),
		tables: newPowerCacheSet(),
	}
}

// TableStats returns the influence-table cache's counters (zero for a
// nil cache).
func (sc *ScoreCache) TableStats() TableCacheStats {
	if sc == nil {
		return TableCacheStats{}
	}
	return sc.tables.stats()
}

// tableSet returns the cache's persistent table set, or a fresh
// call-scoped set when the cache is nil (so batch callers still share
// tables within the call).
func (sc *ScoreCache) tableSet() *powerCacheSet {
	if sc == nil || sc.tables == nil {
		return newPowerCacheSet()
	}
	return sc.tables
}

// Stats returns the hit/miss counters (zero for a nil cache).
//
// Consistency under concurrent traffic: the two counters are
// independent atomics read without a common lock, so a snapshot taken
// mid-lookup can be stale by the lookups that landed between the two
// loads. Both counters are monotone and every lookup increments
// exactly one of them, so the ratio Hits/(Hits+Misses) computed from
// one snapshot is always in [0, 1] and converges to the true hit rate
// as soon as traffic quiesces — good enough for the ratio math the
// stats endpoints do, without a lock on the scoring hot path.
func (sc *ScoreCache) Stats() CacheStats {
	if sc == nil {
		return CacheStats{}
	}
	return CacheStats{Hits: sc.hits.Load(), Misses: sc.misses.Load()}
}

// Len returns the number of memoized entries across both tables.
func (sc *ScoreCache) Len() int {
	if sc == nil {
		return 0
	}
	sc.mu.RLock()
	defer sc.mu.RUnlock()
	return len(sc.m) + len(sc.cells)
}

// LookupCell returns the memoized Kantorovich profile for (fp, cell),
// counting a hit or miss. Nil caches always miss without counting.
func (sc *ScoreCache) LookupCell(fp Fingerprint, cell int) (CellScore, bool) {
	if sc == nil {
		return CellScore{}, false
	}
	sc.mu.RLock()
	s, ok := sc.cells[cellKey{fp: fp, cell: cell}]
	sc.mu.RUnlock()
	if ok {
		sc.hits.Add(1)
	} else {
		sc.misses.Add(1)
	}
	return s, ok
}

// StoreCell memoizes a Kantorovich cell profile. Nil caches drop it.
func (sc *ScoreCache) StoreCell(fp Fingerprint, cell int, s CellScore) {
	if sc == nil {
		return
	}
	sc.mu.Lock()
	sc.storeCellLocked(cellKey{fp: fp, cell: cell}, s)
	sc.mu.Unlock()
}

// lookup returns the cached score for key, counting a hit or miss.
// Nil caches always miss (without counting).
func (sc *ScoreCache) lookup(key scoreKey) (ChainScore, bool) {
	if sc == nil {
		return ChainScore{}, false
	}
	sc.mu.RLock()
	s, ok := sc.m[key]
	sc.mu.RUnlock()
	if ok {
		sc.hits.Add(1)
	} else {
		sc.misses.Add(1)
	}
	return s, ok
}

// store memoizes a successful score. Nil caches drop it.
func (sc *ScoreCache) store(key scoreKey, s ChainScore) {
	if sc == nil {
		return
	}
	sc.mu.Lock()
	sc.storeScoreLocked(key, s)
	sc.mu.Unlock()
}

func exactKey(fp Fingerprint, eps float64, opt ExactOptions) scoreKey {
	return scoreKey{fp: fp, eps: eps, exact: true, maxWidth: opt.MaxWidth, forceFull: opt.ForceFullSweep}
}

func approxKey(fp Fingerprint, eps float64, opt ApproxOptions) scoreKey {
	return scoreKey{fp: fp, eps: eps, exact: false, maxWidth: opt.MaxWidth, forceFull: opt.ForceFullSweep}
}

// powerCacheSet shares the per-transition-matrix derived tables across
// θ (and across batch classes, and — when owned by a ScoreCache —
// across releases) with equal transition matrices: per-user empirical
// chains and init-gridded classes repeat the same P, and those tables
// are the dominant per-θ setup cost. Buckets are keyed by a 64-bit
// matrix hash but verified with full equality, so a hash collision
// costs one comparison, never a wrong table. A nil set degrades to
// private caches.
type powerCacheSet struct {
	mu      sync.Mutex
	m       map[uint64][]*matrixTables
	entries int
	// hits/misses count matrix-level lookups, ScoreCache-style: a hit
	// means the scorer found resident tables to extend or reuse instead
	// of building from scratch. Surfaced via ScoreCache.TableStats and
	// pufferd /v1/stats.
	hits, misses atomic.Int64
}

// matrixTables bundles every derived table the exact scorer keeps per
// transition matrix: the raw power cache, the log-domain influence
// tables over those powers, and per-initial-distribution marginal
// prefixes. All three grow monotonically and in place, so a persistent
// set makes repeated or length-incremented scoring (T then T+1) pay
// only for the new rows.
type matrixTables struct {
	p  *matrix.Dense
	pc *matrix.PowerCache
	ic *matrix.InfluenceCache

	mu    sync.Mutex
	margs []*margTable
}

// margTable is one cached marginal prefix: the node marginals of a
// chain (P, init) up to the longest length scored so far. Rows are
// produced by exactly the recurrence markov.Chain.Marginals runs, one
// VecMulInto per new node, so an extended table is bit-for-bit the
// table a fresh computation would build regardless of how growth was
// batched.
type margTable struct {
	init []float64
	mu   sync.Mutex
	rows [][]float64
}

const (
	// margCacheMaxFloats bounds one resident marginal prefix (T·k
	// floats ≈ 8·T·k bytes); longer chains compute marginals per call
	// instead of pinning tens of MB per initial distribution.
	margCacheMaxFloats = 1 << 22
	// maxMargInits bounds the cached initial distributions per matrix
	// (initial-distribution grids can be wide).
	maxMargInits = 64
	// maxTableMatrices bounds the number of matrices with resident
	// derived tables in one set; past it, new matrices get private
	// tables that die with the call, so a server streaming unboundedly
	// many distinct models cannot grow the cache without limit.
	maxTableMatrices = 256
)

func newMatrixTables(p *matrix.Dense) *matrixTables {
	pc := matrix.NewPowerCache(p)
	return &matrixTables{p: p, pc: pc, ic: matrix.NewInfluenceCache(pc)}
}

func newPowerCacheSet() *powerCacheSet {
	return &powerCacheSet{m: make(map[uint64][]*matrixTables)}
}

// tables returns the shared derived tables for p, creating them on
// first sight.
func (s *powerCacheSet) tables(p *matrix.Dense) *matrixTables {
	if s == nil {
		return newMatrixTables(p)
	}
	key := matrixKey(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.m[key] {
		if e.p == p || e.p.Equal(p) {
			s.hits.Add(1)
			return e
		}
	}
	s.misses.Add(1)
	e := newMatrixTables(p)
	if s.entries < maxTableMatrices {
		s.entries++
		s.m[key] = append(s.m[key], e)
	}
	return e
}

// marginals returns the node marginals of theta up to T, serving them
// from (and extending) the per-init cached prefix when the table is
// small enough to keep resident.
func (t *matrixTables) marginals(theta markov.Chain, T int) [][]float64 {
	if T*len(theta.Init) > margCacheMaxFloats {
		return theta.Marginals(T)
	}
	t.mu.Lock()
	var mt *margTable
	for _, c := range t.margs {
		if equalExactly(c.init, theta.Init) {
			mt = c
			break
		}
	}
	if mt == nil {
		if len(t.margs) >= maxMargInits {
			t.mu.Unlock()
			return theta.Marginals(T)
		}
		init := make([]float64, len(theta.Init))
		copy(init, theta.Init)
		mt = &margTable{init: init}
		t.margs = append(t.margs, mt)
	}
	t.mu.Unlock()
	return mt.grow(theta, T)
}

// grow extends the prefix to T rows and returns the first T (stable
// row views; rows are immutable once built).
func (mt *margTable) grow(theta markov.Chain, T int) [][]float64 {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	have := len(mt.rows)
	if have >= T {
		return mt.rows[:T:T]
	}
	k := len(mt.init)
	slab := make([]float64, (T-have)*k)
	for t := have; t < T; t++ {
		row := slab[(t-have)*k : (t-have+1)*k : (t-have+1)*k]
		if t == 0 {
			copy(row, mt.init)
		} else {
			theta.P.VecMulInto(row, mt.rows[t-1])
		}
		mt.rows = append(mt.rows, row)
	}
	return mt.rows[:T:T]
}

// equalExactly reports element-wise == equality (no tolerance — the
// cached marginal rows must be bit-identical to a fresh computation,
// so only exactly equal initial distributions may share a prefix).
func equalExactly(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		//privlint:allow floatcompare cache keys must match bit-exactly; tolerance would alias entries
		if v != b[i] {
			return false
		}
	}
	return true
}

// TableCacheStats reports the influence-table cache's traffic.
// Hits/Misses count matrix-level lookups (a hit reuses or extends
// resident tables); Matrices is the resident matrix count and Powers
// the total influence-table rows cached across them.
type TableCacheStats struct {
	Hits, Misses int64
	Matrices     int
	Powers       int
}

// stats snapshots the set's counters.
func (s *powerCacheSet) stats() TableCacheStats {
	if s == nil {
		return TableCacheStats{}
	}
	st := TableCacheStats{Hits: s.hits.Load(), Misses: s.misses.Load()}
	s.mu.Lock()
	defer s.mu.Unlock()
	st.Matrices = s.entries
	for _, bucket := range s.m {
		for _, e := range bucket {
			st.Powers += e.ic.Len()
		}
	}
	return st
}

// ScoreBatch computes ExactScore for every class through one worker-
// pool invocation. Classes with identical fingerprints are scored once
// (O(unique) scoring work), all scheduled misses share one power-cache
// set across θ with equal transition matrices, and cache (which may be
// nil) is consulted first and updated after. The returned scores align
// with classes and are bit-for-bit identical to per-class ExactScore
// calls at any parallelism.
func ScoreBatch(cache *ScoreCache, classes []markov.Class, eps float64, opt ExactOptions) ([]ChainScore, error) {
	return scoreBatch(cache, classes, opt.Parallelism,
		func(fp Fingerprint) scoreKey { return exactKey(fp, eps, opt) },
		func(class markov.Class, pool sched.Pool, pcs *powerCacheSet) (ChainScore, error) {
			return exactScoreWith(class, eps, opt, pool, pcs)
		})
}

// ApproxScoreBatch is ScoreBatch for MQMApprox. The closed-form scorer
// needs no power tables, so batching buys fingerprint deduplication
// and one pool spin-up.
func ApproxScoreBatch(cache *ScoreCache, classes []markov.Class, eps float64, opt ApproxOptions) ([]ChainScore, error) {
	return scoreBatch(cache, classes, opt.Parallelism,
		func(fp Fingerprint) scoreKey { return approxKey(fp, eps, opt) },
		func(class markov.Class, pool sched.Pool, _ *powerCacheSet) (ChainScore, error) {
			o := opt
			o.Parallelism = pool.Workers()
			return ApproxScore(class, eps, o)
		})
}

func scoreBatch(cache *ScoreCache, classes []markov.Class, parallelism int,
	key func(Fingerprint) scoreKey,
	score func(markov.Class, sched.Pool, *powerCacheSet) (ChainScore, error),
) ([]ChainScore, error) {
	if len(classes) == 0 {
		return nil, nil
	}
	groupOf := make([]int, len(classes))
	fpToGroup := make(map[Fingerprint]int, len(classes))
	var reps []int      // group → first class index with that fingerprint
	var keys []scoreKey // group → cache key
	for i, class := range classes {
		if class == nil {
			return nil, errors.New("core: nil class in ScoreBatch")
		}
		fp := ClassFingerprint(class)
		g, ok := fpToGroup[fp]
		if !ok {
			g = len(reps)
			fpToGroup[fp] = g
			reps = append(reps, i)
			keys = append(keys, key(fp))
		}
		groupOf[i] = g
	}
	res := make([]ChainScore, len(reps))
	var need []int
	for g := range reps {
		if s, ok := cache.lookup(keys[g]); ok {
			res[g] = s
			continue
		}
		need = append(need, g)
	}
	if len(need) > 0 {
		errs := make([]error, len(need))
		pcs := cache.tableSet()
		outer, inner := sched.New(parallelism).Split(len(need))
		outer.ForEach(len(need), func(i int) {
			g := need[i]
			res[g], errs[i] = score(classes[reps[g]], inner, pcs)
		})
		for i, g := range need {
			if errs[i] != nil {
				return nil, errs[i]
			}
			cache.store(keys[g], res[g])
		}
	}
	out := make([]ChainScore, len(classes))
	for i, g := range groupOf {
		out[i] = res[g]
	}
	return out, nil
}
