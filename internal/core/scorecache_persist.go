package core

import (
	"errors"
	"fmt"
	"math"
)

// CacheSnapshot is the JSON-serializable image of a ScoreCache's
// memoized entries (not its traffic counters): the quilt-score table
// and the Kantorovich cell-profile table. A long-lived server writes
// one on graceful shutdown and restores it at startup, so a restart
// skips the cold start (ROADMAP: cache persistence across restarts).
//
// Keys are persisted losslessly: ε and the score floats round-trip
// through JSON as exact decimal renderings of float64 (Go marshals
// float64 with the shortest representation that parses back to the
// same bits), and fingerprints as two uint64 words.
type CacheSnapshot struct {
	Version int              `json:"version"`
	Scores  []ScoreEntry     `json:"scores,omitempty"`
	Cells   []CellScoreEntry `json:"cells,omitempty"`
}

// snapshotVersion guards the format; Restore rejects snapshots written
// by an incompatible layout instead of silently mis-keying. Version 2
// introduced substrate kind tags into the fingerprint domain: every
// fingerprint changed value, so version-1 entries would never be hit
// (and a stale hit would be unsound); they are rejected as legacy.
const snapshotVersion = 2

// ErrLegacySnapshot marks a snapshot written by an older format
// version. Entries under an old fingerprint domain cannot be merged,
// but the condition is expected across upgrades, so callers holding a
// snapshot file that also carries non-cache state (the server's
// accountant ledgers) match on it with errors.Is and degrade to a cold
// score cache instead of failing the load.
var ErrLegacySnapshot = errors.New("core: cache snapshot from a previous format version")

// ScoreEntry is one (key, ChainScore) pair of the quilt-score table.
type ScoreEntry struct {
	FpHi      uint64  `json:"fp_hi"`
	FpLo      uint64  `json:"fp_lo"`
	Eps       float64 `json:"eps"`
	Exact     bool    `json:"exact"`
	MaxWidth  int     `json:"max_width,omitempty"`
	ForceFull bool    `json:"force_full,omitempty"`

	Sigma     float64 `json:"sigma"`
	Node      int     `json:"node"`
	QuiltA    int     `json:"quilt_a"`
	QuiltB    int     `json:"quilt_b"`
	Influence float64 `json:"influence"`
	Ell       int     `json:"ell"`
}

// CellScoreEntry is one (key, CellScore) pair of the Kantorovich
// cell-profile table.
type CellScoreEntry struct {
	FpHi uint64 `json:"fp_hi"`
	FpLo uint64 `json:"fp_lo"`
	Cell int    `json:"cell"`

	Profile CellScore `json:"profile"`
}

// Snapshot captures every memoized entry, each table oldest first, so
// a Restore re-admits them in the order they were stored. Safe for
// concurrent use; entries stored while the snapshot runs may or may not
// be included. A nil cache snapshots empty.
func (sc *ScoreCache) Snapshot() CacheSnapshot {
	snap := CacheSnapshot{Version: snapshotVersion}
	if sc == nil {
		return snap
	}
	sc.mu.RLock()
	defer sc.mu.RUnlock()
	for i := range sc.order {
		key := sc.order[(sc.head+i)%len(sc.order)]
		if key.cell {
			snap.Cells = append(snap.Cells, CellScoreEntry{
				FpHi: key.fp.Hi, FpLo: key.fp.Lo, Cell: key.n, Profile: sc.cells[key.cellKey()],
			})
			continue
		}
		k, s := key.score(), sc.m[key.score()]
		snap.Scores = append(snap.Scores, ScoreEntry{
			FpHi: k.fp.Hi, FpLo: k.fp.Lo, Eps: k.eps, Exact: k.exact,
			MaxWidth: k.maxWidth, ForceFull: k.forceFull,
			Sigma: s.Sigma, Node: s.Node, QuiltA: s.Quilt.A, QuiltB: s.Quilt.B,
			Influence: s.Influence, Ell: s.Ell,
		})
	}
	return snap
}

// Restore merges a snapshot's entries into the cache (existing entries
// with equal keys are overwritten; counters are untouched), scores
// then cells, through the same bounded admission as a store — so of a
// snapshot larger than the bound, the last maxCacheEntries entries
// stay. It rejects snapshots from an unknown format version and
// entries that could never have been stored — non-finite or
// non-positive σ / W∞, NaN or negative influence, influence at or above
// the entry's ε (the engine only stores finite σ = card/(ε − infl)),
// negative ℓ, and out-of-range node/quilt indices — so a corrupted or
// hand-edited file cannot plant scores the engine would not compute
// (and a later composition rescale cannot run Quilt.CardN on garbage
// indices).
func (sc *ScoreCache) Restore(snap CacheSnapshot) error {
	if sc == nil {
		return fmt.Errorf("core: cannot restore into a nil ScoreCache")
	}
	if snap.Version < snapshotVersion {
		return fmt.Errorf("%w (version %d, want %d)", ErrLegacySnapshot, snap.Version, snapshotVersion)
	}
	if snap.Version > snapshotVersion {
		return fmt.Errorf("core: cache snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	for i, e := range snap.Scores {
		if !(e.Sigma > 0) || math.IsInf(e.Sigma, 1) || math.IsNaN(e.Eps) || !(e.Eps > 0) {
			return fmt.Errorf("core: cache snapshot score %d has invalid σ = %v at ε = %v", i, e.Sigma, e.Eps)
		}
		// Influence is a max-influence: finite, ≥ 0, and < ε for every
		// stored score (σ = card/(ε − e) is only finite below ε). NaN
		// fails both comparisons, so it is caught here too.
		if !(e.Influence >= 0) || !(e.Influence < e.Eps) {
			return fmt.Errorf("core: cache snapshot score %d has invalid influence %v at ε = %v", i, e.Influence, e.Eps)
		}
		// Node is 1-based and the quilt offsets / width limit are
		// non-negative by construction (ChainQuilt's Lemma 4.6 family).
		if e.Node < 1 || e.QuiltA < 0 || e.QuiltB < 0 || e.Ell < 0 {
			return fmt.Errorf("core: cache snapshot score %d has invalid quilt indices node=%d A=%d B=%d ℓ=%d",
				i, e.Node, e.QuiltA, e.QuiltB, e.Ell)
		}
	}
	for i, e := range snap.Cells {
		p := e.Profile
		if !(p.WInf >= 0) || math.IsInf(p.WInf, 1) || !(p.W1 >= 0) || p.W1 > p.WInf+1e-9 {
			return fmt.Errorf("core: cache snapshot cell %d has invalid profile W∞ = %v, W₁ = %v", i, p.WInf, p.W1)
		}
		if e.Cell < 0 || p.Pairs < 0 {
			return fmt.Errorf("core: cache snapshot cell %d has invalid cell index %d (pairs %d)", i, e.Cell, p.Pairs)
		}
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for _, e := range snap.Scores {
		key := scoreKey{
			fp: Fingerprint{Hi: e.FpHi, Lo: e.FpLo}, eps: e.Eps, exact: e.Exact,
			maxWidth: e.MaxWidth, forceFull: e.ForceFull,
		}
		sc.storeScoreLocked(key, ChainScore{
			Sigma: e.Sigma, Node: e.Node, Quilt: ChainQuilt{A: e.QuiltA, B: e.QuiltB},
			Influence: e.Influence, Ell: e.Ell,
		})
	}
	for _, e := range snap.Cells {
		sc.storeCellLocked(cellKey{fp: Fingerprint{Hi: e.FpHi, Lo: e.FpLo}, cell: e.Cell}, e.Profile)
	}
	return nil
}
