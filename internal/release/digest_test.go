package release

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"pufferfish/internal/accounting"
)

// digestSessions is a three-state database of three sessions of
// different lengths, so the quilt and transport scorers take their
// multi-length paths and the histogram has more than two cells.
func digestSessions() [][]int {
	return [][]int{
		{0, 1, 1, 2, 0, 0, 1, 2, 2, 1, 0, 1, 1, 0},
		{2, 2, 1, 0, 0, 1, 1, 1, 2, 0, 1, 2, 0, 0, 1, 2, 1, 1},
		{1, 0, 0, 2, 1, 1, 0, 2, 2, 1, 0},
	}
}

// reportDigests are the SHA-256 digests of json.Marshal(Report) for
// each TestReportDigests case.
var reportDigests = map[string]string{
	"mqm-exact/eps=0.5":    "0ff1c1f202f18a205aecdba16d3e7c2506acbf9a941b16ab05e5202649d7bd85",
	"mqm-exact/eps=0.9":    "e3560e22115ab341c93aaa975aea1fa48e1f8d98b61dffb85a761572bd348848",
	"mqm-exact/eps=1":      "a644698a1fc72ee895b44bd7ecaa5032a2f8fe7fc6bc01616582b5824af88e57",
	"mqm-exact/eps=2":      "666af09a20eca3d1e6b46a57015ad43bbafa5fe6567a4343703d74fff8d08c98",
	"mqm-approx/eps=0.5":   "f9b43e05205af82a3cdd9710f6c2eeaaea17fd68cfa71b0b963d26533b4f9ce4",
	"mqm-approx/eps=0.9":   "182f2cb147dbccbbb6a530fcc8d1ada848f80c750206e765e7833869c431a7ff",
	"mqm-approx/eps=1":     "7987a5583921e9c9a92d5eb582fed8ddbddb7bcc54290af377f66b9e49f62b50",
	"mqm-approx/eps=2":     "7b2e1bcf8e393fee5d2bc238853221f842d16542fb3204673111916c7b8c4ec2",
	"kantorovich/eps=0.5":  "5b3b46e5bd9453df7ca488dd0254841e51b133f853d82cd0e1d9baa15cd98e38",
	"kantorovich/eps=0.9":  "2bf6e6114404e9424bc99316e010b5ab05849200f097170bd4c13e3d4b643dc2",
	"kantorovich/eps=1":    "8475715574eca1f706c928a88e28281559e602cb4fe539ac7494c783614de1d4",
	"kantorovich/eps=2":    "84a7b82baca7384ae9abfe7a8a59beded05661f062eab72003fc6afe663c7c2a",
	"group-dp/eps=0.5":     "f85af023e8ab7b58e15dec503f06e0dde3a24e144cba5972599c83d529e5276b",
	"group-dp/eps=0.9":     "7ddddaeab38424fbf4d649f8e2845fe1e6e516920ca196c1288798ff2cf7929a",
	"group-dp/eps=1":       "b3bf9302f4fa0524e64996386533e121d730bc1ebb9cc32a0fa136b4af00d448",
	"group-dp/eps=2":       "5471bf754601f7d165b76b586fea279136b760b40bbdd97c609ae9960bfbc212",
	"dp/eps=0.5":           "fabef5381662166ddc170fc77cba34e1e01491c5d8441c51d988606adc806c81",
	"dp/eps=0.9":           "057505b9112b0bd84fce60f70ef878daf9b6deeaad3a1060853d6f81e3fa0f5b",
	"dp/eps=1":             "cc487cc97377a5ef3ad76f4a78355f2d2a5bf20417fb5532605a99fb15125d8b",
	"dp/eps=2":             "114e90bfeee25abf4ecd97d2b6454f39c370f7b9fef4305a915ab4333e0f9664",
	"kantorovich-gaussian": "11f3b7479fa1123f0e3e9a4d8120c975817abd887fc218ba9426c13ecbd63233",
	"network-laplace":      "2768ad31d149dddeab8438ed649226c7b80317e3250739a80f589d7368ca6e46",
	"network-gaussian":     "fe97caf806ac37f304c8d197b7c788fa5974cdb706a2223266417394a5c6eac7",
}

// TestReportDigests pins the SHA-256 of the JSON-encoded Report of a
// fixed set of releases: every mechanism at four ε, the Gaussian
// Kantorovich backend, and a polytree network under both backends.
// Division by a power of two is exact, so ε = 0.9 is the case that
// tells apart two orders of a scale's multiplication and division.
// Every case but the unaccounted network release charges a fresh
// ledger, so the accounting block is pinned too. A change to a noise
// scale, to the order of the draws, or to which report fields a
// mechanism sets changes a digest.
func TestReportDigests(t *testing.T) {
	type tc struct {
		name     string
		sessions [][]int
		cfg      Config
		want     string
	}
	var cases []tc
	for _, mech := range Mechanisms() {
		for _, eps := range []float64{0.5, 0.9, 1, 2} {
			cases = append(cases, tc{
				name:     fmt.Sprintf("%s/eps=%v", mech, eps),
				sessions: digestSessions(),
				cfg:      Config{Epsilon: eps, Mechanism: mech, Smoothing: 0.5, Seed: 11},
			})
		}
	}
	cases = append(cases, tc{
		name:     "kantorovich-gaussian",
		sessions: digestSessions(),
		cfg: Config{
			Epsilon: 1, Delta: 1e-6, Mechanism: MechKantorovich, Noise: NoiseGaussian,
			Smoothing: 0.5, Seed: 11,
		},
	})
	network := func(noise string, delta float64) Config {
		return Config{
			Epsilon: 1, Delta: delta, Mechanism: MechKantorovich, Noise: noise,
			Substrate: SubstrateNetwork, Network: epidemicTree(t), Seed: 11,
		}
	}
	cases = append(cases,
		tc{name: "network-laplace", sessions: [][]int{{0, 1, 0, 1, 1}}, cfg: network(NoiseLaplace, 0)},
		tc{name: "network-gaussian", sessions: [][]int{{0, 1, 0, 1, 1}}, cfg: network(NoiseGaussian, 1e-6)},
	)
	for i := range cases {
		cases[i].want = reportDigests[cases[i].name]
		if cases[i].name != "network-laplace" {
			cases[i].cfg.Accountant = accounting.NewLedger(accounting.DefaultDelta)
			cases[i].cfg.AccountantName = "digest"
		}
	}
	if len(cases) != len(reportDigests) {
		t.Fatalf("%d cases, %d pinned digests", len(cases), len(reportDigests))
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep, err := Run(c.sessions, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob)
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("report digest %s, want %s\n%s", got, c.want, blob)
			}
		})
	}
}
