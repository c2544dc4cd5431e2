package core

import (
	"math/rand/v2"
	"testing"

	"pufferfish/internal/markov"
	"pufferfish/internal/query"
)

func cacheTestClass(t testing.TB, p0 float64, T int) markov.Class {
	t.Helper()
	chain, err := markov.BinaryChain(0.5, p0, 0.85).StationaryChain()
	if err != nil {
		t.Fatal(err)
	}
	class, err := markov.NewFinite([]markov.Chain{chain}, T)
	if err != nil {
		t.Fatal(err)
	}
	return class
}

// TestScoreCacheHitMissCounters runs a composition loop — fresh
// Composition per release, shared cache — and asserts the cache does
// exactly one scoring pass and the counters record it.
func TestScoreCacheHitMissCounters(t *testing.T) {
	class := cacheTestClass(t, 0.9, 120)
	cache := NewScoreCache()
	rng := rand.New(rand.NewPCG(5, 6))
	data := make([]int, 120)
	q := query.RelFreqHistogram{K: 2, N: len(data)}

	const releases = 10
	for i := 0; i < releases; i++ {
		comp := NewExactComposition(class, ExactOptions{}).WithCache(cache)
		if _, err := comp.Release(data, q, 1, rng); err != nil {
			t.Fatal(err)
		}
	}
	stats := cache.Stats()
	if stats.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (one scoring pass for %d releases)", stats.Misses, releases)
	}
	if stats.Hits != releases-1 {
		t.Fatalf("hits = %d, want %d", stats.Hits, releases-1)
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", cache.Len())
	}

	// A different ε is a different key.
	comp := NewExactComposition(class, ExactOptions{}).WithCache(cache)
	if _, err := comp.Release(data, q, 2, rng); err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats().Misses; got != 2 {
		t.Fatalf("misses after new ε = %d, want 2", got)
	}
	// Different options are a different key too.
	if _, err := cachedExact(cache, class, 1, ExactOptions{MaxWidth: 7}); err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats().Misses; got != 3 {
		t.Fatalf("misses after new MaxWidth = %d, want 3", got)
	}
	// Parallelism is NOT part of the key: the engine is bit-identical
	// across worker counts, so this must hit.
	if _, err := cachedExact(cache, class, 1, ExactOptions{Parallelism: 4}); err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats().Misses; got != 3 {
		t.Fatalf("parallelism changed the cache key: misses = %d, want 3", got)
	}
}

// TestScoreCacheBitIdentical pins that cached results equal direct
// scoring exactly, for both mechanisms.
func TestScoreCacheBitIdentical(t *testing.T) {
	class := cacheTestClass(t, 0.85, 150)
	cache := NewScoreCache()
	for _, eps := range []float64{0.5, 1, 2} {
		direct, err := ExactScore(class, eps, ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ { // miss then hit
			cached, err := cachedExact(cache, class, eps, ExactOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if cached != direct {
				t.Fatalf("eps=%v pass %d: cached %+v != direct %+v", eps, i, cached, direct)
			}
		}
		directA, err := ApproxScore(class, eps, ApproxOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cachedA, err := cachedApprox(cache, class, eps, ApproxOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if cachedA != directA {
			t.Fatalf("eps=%v: cached approx %+v != direct %+v", eps, cachedA, directA)
		}
	}
}

// TestScoreBatchDedup feeds N classes with only two distinct
// fingerprints and asserts O(unique) scoring work plus per-class
// results bit-identical to individual scoring.
func TestScoreBatchDedup(t *testing.T) {
	const n = 8
	classes := make([]markov.Class, n)
	for i := range classes {
		// Alternate two parameterizations, each built independently so
		// deduplication must go through the fingerprint, not pointer
		// identity.
		if i%2 == 0 {
			classes[i] = cacheTestClass(t, 0.9, 130)
		} else {
			classes[i] = cacheTestClass(t, 0.8, 130)
		}
	}
	cache := NewScoreCache()
	scores, err := ScoreBatch(cache, classes, 1, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != n {
		t.Fatalf("got %d scores, want %d", len(scores), n)
	}
	stats := cache.Stats()
	if stats.Misses != 2 {
		t.Fatalf("batch of %d classes with 2 unique fingerprints did %d scoring passes", n, stats.Misses)
	}
	for i, class := range classes {
		direct, err := ExactScore(class, 1, ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if scores[i] != direct {
			t.Fatalf("class %d: batch %+v != direct %+v", i, scores[i], direct)
		}
	}
	// A second batch over the same classes is all hits.
	if _, err := ScoreBatch(cache, classes, 1, ExactOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats().Misses; got != 2 {
		t.Fatalf("re-batch re-scored: misses = %d, want 2", got)
	}

	// Approx batch: same dedup contract.
	acache := NewScoreCache()
	ascores, err := ApproxScoreBatch(acache, classes, 1, ApproxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := acache.Stats().Misses; got != 2 {
		t.Fatalf("approx batch misses = %d, want 2", got)
	}
	for i, class := range classes {
		direct, err := ApproxScore(class, 1, ApproxOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ascores[i] != direct {
			t.Fatalf("class %d: approx batch %+v != direct %+v", i, ascores[i], direct)
		}
	}
}

// TestScoreBatchParallelGolden checks batch results are bit-identical
// at every parallelism level, with and without a cache.
func TestScoreBatchParallelGolden(t *testing.T) {
	classes := []markov.Class{
		cacheTestClass(t, 0.9, 90),
		cacheTestClass(t, 0.8, 110),
		cacheTestClass(t, 0.9, 90), // duplicate fingerprint
		cacheTestClass(t, 0.7, 70),
	}
	serial, err := ScoreBatch(nil, classes, 1, ExactOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{0, 2, 3} {
		got, err := ScoreBatch(NewScoreCache(), classes, 1, ExactOptions{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("parallelism %d class %d: %+v != serial %+v", par, i, got[i], serial[i])
			}
		}
	}
}

// TestScoreBatchSharedMatrix checks batching classes whose chains
// share a transition matrix (the per-user empirical chain regime with
// differing initial distributions) still matches individual scoring —
// the shared power-cache path must not change results.
func TestScoreBatchSharedMatrix(t *testing.T) {
	base := markov.BinaryChain(0.5, 0.85, 0.75)
	inits := [][]float64{{0.5, 0.5}, {0.2, 0.8}, {0.9, 0.1}}
	var classes []markov.Class
	for _, init := range inits {
		chain, err := base.WithInit(init)
		if err != nil {
			t.Fatal(err)
		}
		class, err := markov.NewFinite([]markov.Chain{chain}, 80)
		if err != nil {
			t.Fatal(err)
		}
		classes = append(classes, class)
	}
	got, err := ScoreBatch(nil, classes, 1, ExactOptions{ForceFullSweep: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, class := range classes {
		direct, err := ExactScore(class, 1, ExactOptions{ForceFullSweep: true})
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != direct {
			t.Fatalf("class %d: batch %+v != direct %+v", i, got[i], direct)
		}
	}
}

// TestScoreBatchEmptyAndNil covers the degenerate inputs.
func TestScoreBatchEmptyAndNil(t *testing.T) {
	if out, err := ScoreBatch(nil, nil, 1, ExactOptions{}); err != nil || out != nil {
		t.Fatalf("empty batch: %v, %v", out, err)
	}
	if _, err := ScoreBatch(nil, []markov.Class{nil}, 1, ExactOptions{}); err == nil {
		t.Fatal("nil class accepted")
	}
}

// TestScoreCacheBounded: past maxCacheEntries distinct stores the cache
// holds exactly the newest maxCacheEntries entries; the oldest key
// misses and rescoring it gives the identical score.
func TestScoreCacheBounded(t *testing.T) {
	class := cacheTestClass(t, 0.9, 30)
	cache := NewScoreCache()
	want, err := cachedExact(cache, class, 1, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const extra = 37
	for i := 0; i < maxCacheEntries+extra; i++ {
		cache.StoreCell(Fingerprint{Hi: uint64(i), Lo: 1}, i%3, CellScore{WInf: 1, W1: 1, Pairs: 1})
	}
	if got := cache.Len(); got != maxCacheEntries {
		t.Fatalf("Len() = %d after %d distinct stores, want %d", got, maxCacheEntries+extra+1, maxCacheEntries)
	}
	// Re-storing a resident key admits nothing.
	cache.StoreCell(Fingerprint{Hi: maxCacheEntries + extra - 1, Lo: 1}, (maxCacheEntries+extra-1)%3, CellScore{WInf: 2, W1: 1, Pairs: 1})
	if got := cache.Len(); got != maxCacheEntries {
		t.Fatalf("Len() = %d after an overwrite, want %d", got, maxCacheEntries)
	}
	for i := 0; i <= extra; i++ {
		if _, ok := cache.LookupCell(Fingerprint{Hi: uint64(i), Lo: 1}, i%3); ok == (i < extra) {
			t.Fatalf("cell %d: resident = %v, want %v", i, ok, i >= extra)
		}
	}
	misses := cache.Stats().Misses
	got, err := cachedExact(cache, class, 1, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Misses != misses+1 {
		t.Fatal("evicted score was served from the cache")
	}
	if got != want {
		t.Fatalf("rescored %+v, want %+v", got, want)
	}
	if got := cache.Len(); got != maxCacheEntries {
		t.Fatalf("Len() = %d after rescoring, want %d", got, maxCacheEntries)
	}
}

// TestScoreCacheRestoreBounded: restoring a snapshot larger than the
// bound keeps its last maxCacheEntries entries, and a snapshot lists
// them oldest first.
func TestScoreCacheRestoreBounded(t *testing.T) {
	const extra = 11
	snap := CacheSnapshot{Version: snapshotVersion}
	for i := 0; i < 5; i++ {
		snap.Scores = append(snap.Scores, ScoreEntry{FpHi: uint64(i), Eps: 1, Exact: true, Sigma: 2, Node: 1})
	}
	for i := 0; i < maxCacheEntries+extra-5; i++ {
		snap.Cells = append(snap.Cells, CellScoreEntry{FpHi: uint64(i), Cell: 1, Profile: CellScore{WInf: 1, W1: 1}})
	}
	cache := NewScoreCache()
	if err := cache.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := cache.Len(); got != maxCacheEntries {
		t.Fatalf("Len() = %d, want %d", got, maxCacheEntries)
	}
	back := cache.Snapshot()
	if len(back.Scores) != 0 {
		t.Fatalf("%d scores survived, want 0 (all older than the newest %d cells)", len(back.Scores), maxCacheEntries)
	}
	if len(back.Cells) != maxCacheEntries || back.Cells[0].FpHi != extra-5 || back.Cells[maxCacheEntries-1].FpHi != maxCacheEntries+extra-6 {
		t.Fatalf("kept cells %d…%d (%d), want %d…%d", back.Cells[0].FpHi, back.Cells[len(back.Cells)-1].FpHi,
			len(back.Cells), extra-5, maxCacheEntries+extra-6)
	}
}
