package release

import (
	"sync"
	"testing"

	"pufferfish/internal/accounting"
	"pufferfish/internal/kantorovich"
)

// gaussSessions is a small two-session substrate the Gaussian release
// tests share; kept short so the per-cell transport sweeps stay fast.
func gaussSessions() [][]int {
	return [][]int{
		{0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 0},
		{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1},
	}
}

// TestRunKantorovichGaussian: the Gaussian backend releases with the
// per-cell (ε/k, δ/k) calibration, reports the backend and δ, and is
// seed-deterministic and distinct from the Laplace release.
func TestRunKantorovichGaussian(t *testing.T) {
	cfg := Config{
		Epsilon: 1, Delta: 1e-5, Mechanism: MechKantorovich,
		Noise: NoiseGaussian, Smoothing: 0.5, Seed: 7,
	}
	report, err := Run(gaussSessions(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Noise != NoiseGaussian || report.Delta != 1e-5 {
		t.Errorf("report backend (%q, δ=%v), want (gaussian, 1e-5)", report.Noise, report.Delta)
	}
	if report.Kantorovich == nil {
		t.Fatal("no kantorovich diagnostics block")
	}
	w, n := report.Kantorovich.WInf, float64(report.Observations)
	if !(w > 0) {
		t.Fatalf("W∞ = %v", w)
	}
	// σ must match the analytic per-cell (ε/k, δ/k) calibration.
	wantSigma, err := kantorovich.GaussianCountScale(w, report.Epsilon, report.Delta, report.K)
	if err != nil {
		t.Fatal(err)
	}
	if report.Sigma != wantSigma || report.NoiseScale != report.Sigma/n {
		t.Errorf("σ = %v (want %v), scale = %v (want σ/n)", report.Sigma, wantSigma, report.NoiseScale)
	}

	again, err := Run(gaussSessions(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range report.Histogram {
		if report.Histogram[i] != again.Histogram[i] {
			t.Fatal("gaussian release not seed-deterministic")
		}
	}
	lapCfg := cfg
	lapCfg.Noise, lapCfg.Delta = NoiseLaplace, 0
	lap, err := Run(gaussSessions(), lapCfg)
	if err != nil {
		t.Fatal(err)
	}
	if lap.Noise != NoiseLaplace {
		t.Errorf("laplace report backend %q", lap.Noise)
	}
	same := true
	for i := range report.Histogram {
		if report.Histogram[i] != lap.Histogram[i] {
			same = false
		}
	}
	if same {
		t.Error("gaussian and laplace releases identical")
	}
}

// TestAccountingIsObservational: attaching a ledger must not change a
// single released value, for both backends — the accountant only
// watches.
func TestAccountingIsObservational(t *testing.T) {
	for _, noiseKind := range []string{NoiseLaplace, NoiseGaussian} {
		cfg := Config{
			Epsilon: 1, Mechanism: MechKantorovich, Noise: noiseKind,
			Smoothing: 0.5, Seed: 11,
		}
		if noiseKind == NoiseGaussian {
			cfg.Delta = 1e-5
		}
		plain, err := Run(gaussSessions(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Accounting != nil {
			t.Fatalf("%s: Accounting block without an accountant", noiseKind)
		}
		cfg.Accountant = accounting.NewLedger(1e-5)
		cfg.AccountantName = "sess"
		accounted, err := Run(gaussSessions(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range plain.Histogram {
			if plain.Histogram[i] != accounted.Histogram[i] {
				t.Fatalf("%s: accounted release differs at cell %d", noiseKind, i)
			}
		}
		acc := accounted.Accounting
		if acc == nil {
			t.Fatalf("%s: no Accounting block", noiseKind)
		}
		if acc.Accountant != "sess" || acc.Releases != 1 {
			t.Errorf("%s: accounting block %+v", noiseKind, acc)
		}
		wantKind := accounting.KindPure
		if noiseKind == NoiseGaussian {
			wantKind = accounting.KindGaussian
			if !(acc.Rho > 0) {
				t.Errorf("gaussian entry ρ = %v", acc.Rho)
			}
		}
		if acc.Kind != wantKind {
			t.Errorf("%s: entry kind %q, want %q", noiseKind, acc.Kind, wantKind)
		}
		// K = 1: the ledger's (ε, δ) never exceeds the linear bound; a
		// pure release reports exactly ε (the Theorem 4.4 degenerate
		// case), while the Gaussian entry's Rényi curve may land below
		// ε — the per-cell (ε/k, δ/k) calibration is conservative
		// relative to its own curve.
		if acc.RDPEpsilon > acc.LinearEpsilon {
			t.Errorf("%s: K=1 RDP ε %v above linear %v", noiseKind, acc.RDPEpsilon, acc.LinearEpsilon)
		}
		if acc.LinearEpsilon != 1 {
			t.Errorf("%s: K=1 linear ε = %v", noiseKind, acc.LinearEpsilon)
		}
		if noiseKind == NoiseLaplace && acc.RDPEpsilon != 1 {
			t.Errorf("%s: K=1 RDP ε = %v, want exactly ε", noiseKind, acc.RDPEpsilon)
		}
		if !(acc.RDPEpsilon > 0) {
			t.Errorf("%s: K=1 RDP ε = %v", noiseKind, acc.RDPEpsilon)
		}
		if len(acc.Curve) != len(accounting.ReportAlphas) {
			t.Errorf("%s: curve has %d points", noiseKind, len(acc.Curve))
		}
	}
}

// TestRepeatedGaussianReleasesBeatLinear is the acceptance-criteria
// workload: ≥ 10 Gaussian releases over one class must give the RDP
// accountant a strictly smaller ε at δ = 1e-5 than the linear K·max ε
// bound, while every release stays bit-identical to the unaccounted
// path.
func TestRepeatedGaussianReleasesBeatLinear(t *testing.T) {
	const releases = 12
	led := accounting.NewLedger(1e-5)
	cache := NewScoreCache()
	for i := 0; i < releases; i++ {
		cfg := Config{
			Epsilon: 1, Delta: 1e-5, Mechanism: MechKantorovich,
			Noise: NoiseGaussian, Smoothing: 0.5, Seed: uint64(i),
			Cache: cache, Accountant: led,
		}
		accounted, err := Run(gaussSessions(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		plain := cfg
		plain.Accountant = nil
		unaccounted, err := Run(gaussSessions(), plain)
		if err != nil {
			t.Fatal(err)
		}
		for j := range accounted.Histogram {
			if accounted.Histogram[j] != unaccounted.Histogram[j] {
				t.Fatalf("release %d: accounted path differs", i)
			}
		}
		if accounted.Accounting.Releases != i+1 {
			t.Fatalf("release %d: ledger count %d", i, accounted.Accounting.Releases)
		}
	}
	rdp, err := led.Epsilon(1e-5)
	if err != nil {
		t.Fatal(err)
	}
	linear := led.LinearEpsilon()
	if linear != releases {
		t.Fatalf("linear = %v, want %d", linear, releases)
	}
	if !(rdp < linear) {
		t.Fatalf("RDP ε %v not strictly below linear %v after %d gaussian releases", rdp, linear, releases)
	}
	t.Logf("K=%d gaussian releases: RDP ε(1e-5) = %.3f vs linear %.0f", releases, rdp, linear)
}

// TestGaussianValidation: the Gaussian backend is rejected everywhere
// it is unsound — non-kantorovich mechanisms, missing or out-of-range
// δ, δ on the pure backend, unknown backend names.
func TestGaussianValidation(t *testing.T) {
	sessions := gaussSessions()
	cases := map[string]Config{
		"gaussian quilt":   {Epsilon: 1, Delta: 1e-5, Mechanism: MechMQMExact, Noise: NoiseGaussian},
		"gaussian dp":      {Epsilon: 1, Delta: 1e-5, Mechanism: MechDP, Noise: NoiseGaussian},
		"missing delta":    {Epsilon: 1, Mechanism: MechKantorovich, Noise: NoiseGaussian},
		"delta too big":    {Epsilon: 1, Delta: 1, Mechanism: MechKantorovich, Noise: NoiseGaussian},
		"negative delta":   {Epsilon: 1, Delta: -0.5, Mechanism: MechKantorovich, Noise: NoiseGaussian},
		"delta on laplace": {Epsilon: 1, Delta: 1e-5, Mechanism: MechKantorovich, Noise: NoiseLaplace},
		"delta default":    {Epsilon: 1, Delta: 1e-5, Mechanism: MechMQMExact},
		"unknown noise":    {Epsilon: 1, Mechanism: MechKantorovich, Noise: "cauchy"},
	}
	for name, cfg := range cases {
		cfg.Smoothing = 0.5
		if _, err := Run(sessions, cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestAccountantLedgerAcrossMechanisms: one ledger shared across
// mechanisms accumulates pure and gaussian entries together, and its
// (ε, δ) never exceeds the linear bound on any prefix.
func TestAccountantLedgerAcrossMechanisms(t *testing.T) {
	led := accounting.NewLedger(1e-5)
	sessions := gaussSessions()
	runs := []Config{
		{Epsilon: 0.5, Mechanism: MechMQMExact, Smoothing: 0.5, Seed: 1},
		{Epsilon: 1, Mechanism: MechDP, Seed: 2},
		{Epsilon: 1, Delta: 1e-5, Mechanism: MechKantorovich, Noise: NoiseGaussian, Smoothing: 0.5, Seed: 3},
		{Epsilon: 0.25, Mechanism: MechKantorovich, Smoothing: 0.5, Seed: 4},
	}
	for i, cfg := range runs {
		cfg.Accountant = led
		report, err := Run(sessions, cfg)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		acc := report.Accounting
		if acc == nil || acc.Releases != i+1 {
			t.Fatalf("run %d: accounting block %+v", i, acc)
		}
		if acc.RDPEpsilon > acc.LinearEpsilon && acc.DeltaSum <= acc.Delta {
			t.Errorf("run %d: RDP ε %v above applicable linear %v", i, acc.RDPEpsilon, acc.LinearEpsilon)
		}
	}
	entries := led.Entries()
	if len(entries) != 4 || entries[0].Mechanism != MechMQMExact || entries[2].Kind != accounting.KindGaussian {
		t.Errorf("entries = %+v", entries)
	}
}

// TestConcurrentAccountingBlocksConsistent: concurrent accounted
// releases charging one ledger each report a block read in the same
// critical section as their own charge — every block is exactly the
// state of a fresh ledger after that many identical charges, and the
// release counts are the distinct values 1..N.
func TestConcurrentAccountingBlocksConsistent(t *testing.T) {
	const workers, perWorker = 8, 50
	cfg := Config{
		Epsilon: 0.5, Delta: 1e-6, Mechanism: MechKantorovich,
		Noise: NoiseGaussian, Smoothing: 0.5, Cache: NewScoreCache(),
	}
	entry, err := func() (accounting.Entry, error) {
		p, err := Prepare(gaussSessions(), cfg)
		if err != nil {
			return accounting.Entry{}, err
		}
		return p.PlannedEntry()
	}()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(gaussSessions(), cfg); err != nil { // warm the cache
		t.Fatal(err)
	}

	cfg.Accountant = accounting.NewLedger(accounting.DefaultDelta)
	blocks := make([]*AccountingReport, workers*perWorker)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := cfg
			for i := range perWorker {
				c.Seed = uint64(w*perWorker + i)
				report, err := Run(gaussSessions(), c)
				if err != nil {
					errs[w] = err
					return
				}
				blocks[w*perWorker+i] = report.Accounting
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// want[n] is a fresh ledger's state after n charges of the entry.
	replay := accounting.NewLedger(accounting.DefaultDelta)
	want := make([]accounting.State, len(blocks)+1)
	for n := 1; n <= len(blocks); n++ {
		if err := replay.Add(entry); err != nil {
			t.Fatal(err)
		}
		want[n] = replay.State()
	}
	seen := make([]bool, len(blocks)+1)
	for i, b := range blocks {
		n := b.Releases
		if n < 1 || n > len(blocks) || seen[n] {
			t.Fatalf("release %d reports count %d (out of range or repeated)", i, n)
		}
		seen[n] = true
		w := want[n]
		if b.LinearEpsilon != w.LinearEpsilon || b.DeltaSum != w.DeltaSum || b.RDPEpsilon != w.Epsilon || b.Delta != w.Delta {
			t.Errorf("release %d: block (n=%d, linear %v, Σδ %v, rdp %v) != replay of %d charges (linear %v, Σδ %v, rdp %v)",
				i, n, b.LinearEpsilon, b.DeltaSum, b.RDPEpsilon, n, w.LinearEpsilon, w.DeltaSum, w.Epsilon)
		}
	}
}
