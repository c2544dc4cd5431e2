package kantorovich

import (
	"testing"

	"pufferfish/internal/bayes"
	"pufferfish/internal/core"
	"pufferfish/internal/markov"
)

// householdTree is a 5-person household infection tree: one index case
// whose state drives two contacts, one of whom drives two more.
func householdTree(t *testing.T) *bayes.Network {
	t.Helper()
	spread := []float64{0.9, 0.1, 0.35, 0.65} // P(child | parent)
	nw, err := bayes.New([]bayes.Node{
		{Name: "P1", Card: 2, CPT: []float64{0.8, 0.2}},
		{Name: "P2", Card: 2, Parents: []int{0}, CPT: spread},
		{Name: "P3", Card: 2, Parents: []int{0}, CPT: spread},
		{Name: "P4", Card: 2, Parents: []int{1}, CPT: spread},
		{Name: "P5", Card: 2, Parents: []int{1}, CPT: spread},
	})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestScoreSubstrateNetwork: a tree-network release scores end to end
// as a one-substrate member, the profiles land in the shared cache
// under the network fingerprint (k misses cold, k hits warm, identical
// score), σ follows the k·W∞/ε calibration, and a batch repeating the
// network profiles it once.
func TestScoreSubstrateNetwork(t *testing.T) {
	sub, err := core.NewNetworkSubstrate([]*bayes.Network{householdTree(t)})
	if err != nil {
		t.Fatal(err)
	}
	cache := core.NewScoreCache()
	const eps = 0.8
	member := [][]core.Substrate{{sub}}
	cold, err := ScoreBatch(cache, member, eps, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 0 || st.Misses != int64(sub.K()) {
		t.Errorf("cold stats = %+v, want 0 hits / %d misses", st, sub.K())
	}
	warm, err := ScoreBatch(cache, member, eps, Options{Parallelism: 0})
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != int64(sub.K()) {
		t.Errorf("warm stats = %+v, want %d hits", st, sub.K())
	}
	if cold[0] != warm[0] {
		t.Errorf("warm score %+v != cold %+v", warm[0], cold[0])
	}
	score := cold[0]
	if !(score.Sigma > 0) {
		t.Errorf("σ = %v, want > 0", score.Sigma)
	}
	p, err := CellProfileSubstrate(cache, sub, score.Node, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(sub.K()) * p.WInf / eps; score.Sigma != want {
		t.Errorf("σ = %v, want k·W∞/ε = %v", score.Sigma, want)
	}
	if score.Influence != p.W1 {
		t.Errorf("Influence = %v, want worst cell's W₁ %v", score.Influence, p.W1)
	}

	// Two members carrying the same network dedupe by fingerprint: one
	// sweep, k misses, no hits.
	fresh := core.NewScoreCache()
	twice, err := ScoreBatch(fresh, [][]core.Substrate{{sub}, {sub}}, eps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if twice[0] != score || twice[1] != score {
		t.Errorf("batched network scores %+v, want %+v twice", twice, score)
	}
	if st := fresh.Stats(); st.Hits != 0 || st.Misses != int64(sub.K()) {
		t.Errorf("duplicate-network batch stats = %+v, want 0 hits / %d misses", st, sub.K())
	}
}

// TestSubstrateCacheIsolation: the same chain scored as a chain class
// and as its FromChain network must never serve each other's cache
// entries — the kind tag separates the fingerprints even though the
// scores agree.
func TestSubstrateCacheIsolation(t *testing.T) {
	const T = 8
	chain := markov.BinaryChain(0.3, 0.8, 0.6)
	class, err := markov.NewSingleton(chain, T)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := bayes.FromChain(chain, T)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := core.NewNetworkSubstrate([]*bayes.Network{nw})
	if err != nil {
		t.Fatal(err)
	}
	cache := core.NewScoreCache()
	sChain, err := Score(cache, class, 0.7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	net, err := ScoreBatch(cache, [][]core.Substrate{{sub}}, 0.7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 4 {
		t.Errorf("stats = %+v, want 0 hits / 4 misses (no cross-kind sharing)", st)
	}
	if sChain != net[0] {
		t.Errorf("network score %+v != chain score %+v for the same model", net[0], sChain)
	}

	// Within one batch, where members dedupe by fingerprint, the two
	// kinds still never merge.
	fresh := core.NewScoreCache()
	both, err := ScoreBatch(fresh, [][]core.Substrate{{core.NewClassSubstrate(class)}, {sub}}, 0.7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := fresh.Stats(); st.Hits != 0 || st.Misses != 4 {
		t.Errorf("mixed batch stats = %+v, want 0 hits / 4 misses", st)
	}
	if both[0] != sChain || both[1] != sChain {
		t.Errorf("mixed batch scores %+v, want %+v twice", both, sChain)
	}
}
