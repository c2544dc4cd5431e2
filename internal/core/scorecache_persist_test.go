package core

import (
	"encoding/json"
	"errors"
	"math"
	"testing"

	"pufferfish/internal/markov"
)

// TestCacheSnapshotRoundTrip: a populated cache must survive
// Snapshot → JSON → Restore with every entry bit-identical, covering
// both the quilt-score table and the Kantorovich cell-profile table.
func TestCacheSnapshotRoundTrip(t *testing.T) {
	chain, err := markov.BinaryChain(0.5, 0.9, 0.85).StationaryChain()
	if err != nil {
		t.Fatal(err)
	}
	class, err := markov.NewFinite([]markov.Chain{chain}, 20)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewScoreCache()
	eps := []float64{0.5, 1, 2.25}
	want := make([]ChainScore, len(eps))
	for i, e := range eps {
		s, err := cachedExact(cache, class, e, ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = s
	}
	fp := ClassFingerprint(class)
	cellProfiles := []CellScore{
		{WInf: 3, W1: 1.25, Label: "X3: 0 vs 1 @ θ1", Pairs: 40},
		{WInf: 1.5, W1: 1.5, Pairs: 7},
	}
	for cell, p := range cellProfiles {
		cache.StoreCell(fp, cell, p)
	}

	blob, err := json.Marshal(cache.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	restored := NewScoreCache()
	var snap CacheSnapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != cache.Len() {
		t.Fatalf("restored %d entries, want %d", restored.Len(), cache.Len())
	}

	// Every quilt score must be a pure hit with bit-identical values.
	for i, e := range eps {
		s, err := cachedExact(restored, class, e, ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if s != want[i] {
			t.Errorf("ε = %v: restored score %+v != original %+v", e, s, want[i])
		}
	}
	if stats := restored.Stats(); stats.Misses != 0 || stats.Hits != int64(len(eps)) {
		t.Errorf("restored cache was not warm: %+v", stats)
	}
	for cell, p := range cellProfiles {
		got, ok := restored.LookupCell(fp, cell)
		if !ok || got != p {
			t.Errorf("cell %d: restored profile (%+v, %v) != original %+v", cell, got, ok, p)
		}
	}
}

// TestCacheSnapshotRestoreRejectsBadInput: version mismatches and
// entries the engine could never have produced must not be merged.
func TestCacheSnapshotRestoreRejectsBadInput(t *testing.T) {
	good := CacheSnapshot{Version: snapshotVersion}
	if err := NewScoreCache().Restore(good); err != nil {
		t.Fatalf("empty snapshot rejected: %v", err)
	}
	cases := map[string]CacheSnapshot{
		"version": {Version: snapshotVersion + 1},
		"sigma": {Version: snapshotVersion, Scores: []ScoreEntry{
			{Eps: 1, Sigma: 0},
		}},
		"inf sigma": {Version: snapshotVersion, Scores: []ScoreEntry{
			{Eps: 1, Sigma: math.Inf(1)},
		}},
		"eps": {Version: snapshotVersion, Scores: []ScoreEntry{
			{Eps: -1, Sigma: 2},
		}},
		"nan influence": {Version: snapshotVersion, Scores: []ScoreEntry{
			{Eps: 1, Sigma: 2, Node: 1, Influence: math.NaN()},
		}},
		"negative influence": {Version: snapshotVersion, Scores: []ScoreEntry{
			{Eps: 1, Sigma: 2, Node: 1, Influence: -0.25},
		}},
		"influence at eps": {Version: snapshotVersion, Scores: []ScoreEntry{
			{Eps: 1, Sigma: 2, Node: 1, Influence: 1},
		}},
		"zero node": {Version: snapshotVersion, Scores: []ScoreEntry{
			{Eps: 1, Sigma: 2, Node: 0, Influence: 0.5},
		}},
		"negative node": {Version: snapshotVersion, Scores: []ScoreEntry{
			{Eps: 1, Sigma: 2, Node: -3, Influence: 0.5},
		}},
		"negative quilt A": {Version: snapshotVersion, Scores: []ScoreEntry{
			{Eps: 1, Sigma: 2, Node: 1, QuiltA: -1, Influence: 0.5},
		}},
		"negative quilt B": {Version: snapshotVersion, Scores: []ScoreEntry{
			{Eps: 1, Sigma: 2, Node: 1, QuiltB: -2, Influence: 0.5},
		}},
		"negative ell": {Version: snapshotVersion, Scores: []ScoreEntry{
			{Eps: 1, Sigma: 2, Node: 1, Influence: 0.5, Ell: -1},
		}},
		"cell winf": {Version: snapshotVersion, Cells: []CellScoreEntry{
			{Profile: CellScore{WInf: math.Inf(1)}},
		}},
		"cell order": {Version: snapshotVersion, Cells: []CellScoreEntry{
			{Profile: CellScore{WInf: 1, W1: 2}},
		}},
		"negative cell index": {Version: snapshotVersion, Cells: []CellScoreEntry{
			{Cell: -1, Profile: CellScore{WInf: 1, W1: 0.5}},
		}},
		"negative pairs": {Version: snapshotVersion, Cells: []CellScoreEntry{
			{Cell: 0, Profile: CellScore{WInf: 1, W1: 0.5, Pairs: -4}},
		}},
	}
	for name, snap := range cases {
		if err := NewScoreCache().Restore(snap); err == nil {
			t.Errorf("%s: bad snapshot accepted", name)
		}
	}
	var nilCache *ScoreCache
	if err := nilCache.Restore(good); err == nil {
		t.Error("restore into nil cache accepted")
	}
	if snap := nilCache.Snapshot(); len(snap.Scores) != 0 || len(snap.Cells) != 0 {
		t.Error("nil cache snapshot not empty")
	}
}

// TestCacheSnapshotLegacyVersion: a version-1 snapshot (pre kind-tag
// fingerprint domain) is refused with ErrLegacySnapshot — even when
// its entries are individually well-formed — so loaders can detect the
// expected across-upgrade case and restart cold, while a snapshot from
// a future version fails with a non-legacy error.
func TestCacheSnapshotLegacyVersion(t *testing.T) {
	legacy := CacheSnapshot{
		Version: 1,
		Scores: []ScoreEntry{
			{FpHi: 7, FpLo: 9, Eps: 1, Sigma: 2, Node: 1, Influence: 0.5},
		},
		Cells: []CellScoreEntry{
			{FpHi: 7, FpLo: 9, Cell: 0, Profile: CellScore{WInf: 1, W1: 0.5, Pairs: 3}},
		},
	}
	cache := NewScoreCache()
	err := cache.Restore(legacy)
	if !errors.Is(err, ErrLegacySnapshot) {
		t.Fatalf("legacy restore error = %v, want ErrLegacySnapshot", err)
	}
	if cache.Len() != 0 {
		t.Errorf("legacy entries merged: %d resident", cache.Len())
	}
	future := CacheSnapshot{Version: snapshotVersion + 1}
	if err := NewScoreCache().Restore(future); err == nil || errors.Is(err, ErrLegacySnapshot) {
		t.Errorf("future version error = %v, want a non-legacy rejection", err)
	}
}
