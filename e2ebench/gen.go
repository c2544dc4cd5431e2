package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strconv"

	"pufferfish/internal/bayes"
	"pufferfish/internal/markov"
	"pufferfish/internal/release"
	"pufferfish/internal/server"
)

// Request generation. Request i of a workload is a pure function of
// (seed, i): it is drawn from its own PCG stream, so the sequence is the
// same whichever client sends which request, and the correctness gate
// regenerates request i instead of storing it. The server sees only the
// encoded bodies.

// member is one release of a request, with the JSON encoding of its
// sessions kept beside it so pooled models are encoded once.
type member struct {
	req  server.ReleaseRequest
	sess []byte
}

// request is one HTTP request: a single release, or a batch.
type request struct {
	members []member
	batch   bool
}

func (r request) path() string {
	if r.batch {
		return "/v1/release/batch"
	}
	return "/v1/release"
}

// body encodes the request as the server's JSON wire form. It is a
// template over the pre-encoded sessions, so generating a body costs the
// client microseconds even when the sessions hold thousands of states.
func (r request) body() []byte {
	if !r.batch {
		return appendRelease(nil, &r.members[0])
	}
	b := []byte(`{"requests":[`)
	for j := range r.members {
		if j > 0 {
			b = append(b, ',')
		}
		b = appendRelease(b, &r.members[j])
	}
	return append(b, "]}"...)
}

func appendRelease(b []byte, m *member) []byte {
	r := &m.req
	b = append(b, `{"sessions":`...)
	b = append(b, m.sess...)
	b = append(b, `,"epsilon":`...)
	b = strconv.AppendFloat(b, r.Epsilon, 'g', -1, 64)
	if r.Delta > 0 {
		b = append(b, `,"delta":`...)
		b = strconv.AppendFloat(b, r.Delta, 'g', -1, 64)
	}
	b = appendString(b, "mechanism", r.Mechanism)
	b = appendString(b, "noise", r.Noise)
	b = appendString(b, "substrate", r.Substrate)
	if len(r.Network) > 0 {
		b = append(b, `,"network":`...)
		b = append(b, r.Network...)
	}
	if r.Smoothing > 0 {
		b = append(b, `,"smoothing":`...)
		b = strconv.AppendFloat(b, r.Smoothing, 'g', -1, 64)
	}
	b = append(b, `,"seed":`...)
	b = strconv.AppendUint(b, r.Seed, 10)
	if r.Parallelism > 0 {
		b = append(b, `,"parallelism":`...)
		b = strconv.AppendInt(b, int64(r.Parallelism), 10)
	}
	b = appendString(b, "accountant", r.Accountant)
	return append(b, '}')
}

// appendString appends `,"key":"value"` when value is set. Values are
// mechanism, substrate and session names: plain ASCII needing no escape.
func appendString(b []byte, key, value string) []byte {
	if value == "" {
		return b
	}
	b = append(b, `,"`...)
	b = append(b, key...)
	b = append(b, `":"`...)
	b = append(b, value...)
	return append(b, '"')
}

func encodeSessions(sessions [][]int) []byte {
	b := []byte{'['}
	for i, s := range sessions {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for t, v := range s {
			if t > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, ']')
	}
	return append(b, ']')
}

// Stream tags keep the timed sequence, the set-up probes and the
// provisioned history on disjoint PCG streams.
const (
	streamTimed   = 1
	streamProbe   = 2
	streamHistory = 3
	streamPool    = 4
)

func stream(seed uint64, tag, i int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(i)<<4|uint64(tag)))
}

// sizes are the workload shapes. The self-tests shrink them; the
// benchmark always runs defaultSizes.
type sizes struct {
	warmModels, warmSessions, warmLen int
	coldSessions, coldLen, coldNodes  int
	batchSize, accountants            int
	snapEntries, walPending           int
}

var defaultSizes = sizes{
	warmModels: 8, warmSessions: 12, warmLen: 200,
	coldSessions: 3, coldLen: 120, coldNodes: 63,
	batchSize: 8, accountants: 16,
	snapEntries: 400, walPending: 64,
}

// Pool models use fixed stay probabilities, so the seed changes the
// sampled data but not the mixing of the models, and σ stays comparable
// across seeds. Cold requests draw fresh probabilities instead.
var poolStays = [][2]float64{
	{0.65, 0.7}, {0.7, 0.85}, {0.75, 0.8}, {0.8, 0.9},
	{0.85, 0.75}, {0.9, 0.8}, {0.6, 0.9}, {0.95, 0.85},
}

// epsilons is warm-mix's fixed ε set.
var epsilons = []float64{0.5, 1, 2}

// gaussianDelta is the δ of cold-score's Gaussian releases.
const gaussianDelta = 1e-6

func binaryChain(p0, p1 float64) markov.Chain {
	return markov.BinaryChain(0.5, p0, p1)
}

// sampleSessions draws n sessions of length T from c.
func sampleSessions(c markov.Chain, n, T int, rng *rand.Rand) [][]int {
	out := make([][]int, n)
	for i := range out {
		out[i] = c.Sample(T, rng)
	}
	return out
}

// pooledModel is one model of a warm pool: sessions plus their encoding.
type pooledModel struct {
	sessions [][]int
	sess     []byte
}

func newPool(seed uint64, n, sessions, T int) []pooledModel {
	pool := make([]pooledModel, n)
	for j := range pool {
		st := poolStays[j%len(poolStays)]
		s := sampleSessions(binaryChain(st[0], st[1]), sessions, T, stream(seed, streamPool, j))
		pool[j] = pooledModel{sessions: s, sess: encodeSessions(s)}
	}
	return pool
}

func (pm pooledModel) member(r server.ReleaseRequest) member {
	r.Sessions = pm.sessions
	return member{req: r, sess: pm.sess}
}

// treeNetwork draws a binary polytree of n nodes (node i's parent is
// (i−1)/2) with fresh CPTs, and one observation per node by ancestral
// sampling.
func treeNetwork(n int, rng *rand.Rand) (json.RawMessage, []int) {
	nodes := make([]bayes.NodeJSON, n)
	obs := make([]int, n)
	a := 0.3 + 0.4*rng.Float64()
	nodes[0] = bayes.NodeJSON{Name: "x0", Card: 2, CPT: []float64{a, 1 - a}}
	for i := 1; i < n; i++ {
		s0, s1 := 0.6+0.35*rng.Float64(), 0.6+0.35*rng.Float64()
		nodes[i] = bayes.NodeJSON{
			Name: "x" + strconv.Itoa(i), Card: 2, Parents: []int{(i - 1) / 2},
			CPT: []float64{s0, 1 - s0, 1 - s1, s1},
		}
	}
	for i := range nodes {
		row := nodes[i].CPT
		if i > 0 {
			row = row[2*obs[(i-1)/2]:]
		}
		if rng.Float64() >= row[0] {
			obs[i] = 1
		}
	}
	blob, err := json.Marshal(nodes)
	if err != nil {
		panic(err) // a slice of plain structs always marshals
	}
	return blob, obs
}

// warmMix: single unaccounted releases rotating over every mechanism on
// a pool of binary-chain models at a fixed ε set.
type warmMix struct {
	pool []pooledModel
}

func newWarmMix(seed uint64, sz sizes) *warmMix {
	return &warmMix{pool: newPool(seed, sz.warmModels, sz.warmSessions, sz.warmLen)}
}

// combos is the number of distinct (model, mechanism, ε) cells; request
// i < combos visits cell i, so warming those requests warms the pool.
func (w *warmMix) combos() int { return len(w.pool) * len(release.Mechanisms()) * len(epsilons) }

// warmups visits every (model, mechanism, ε) cell of the pool.
func (w *warmMix) warmups(seed uint64) []request {
	out := make([]request, w.combos())
	for i := range out {
		out[i] = w.request(seed, streamProbe, i)
	}
	return out
}

func (w *warmMix) request(seed uint64, tag, i int) request {
	mechs := release.Mechanisms()
	c := i % w.combos()
	model := c % len(w.pool)
	mech := mechs[(c/len(w.pool))%len(mechs)]
	eps := epsilons[c/(len(w.pool)*len(mechs))]
	rng := stream(seed, tag, i)
	return request{members: []member{w.pool[model].member(server.ReleaseRequest{
		Epsilon: eps, Mechanism: mech, Smoothing: 0.5, Seed: rng.Uint64(), Parallelism: 1,
	})}}
}

// coldScore: every request carries a model the server has never seen,
// and every release charges a named accountant session.
type coldScore struct {
	sz sizes
}

// coldPattern fixes the class mix over each run of 20 requests: 14
// Kantorovich chain releases (K), alternately with Laplace and Gaussian
// noise; 3 Kantorovich network releases (N); and 3 batches (B) of cold
// mqm-exact releases with one dp and one network release.
const coldPattern = "KKNKKBKKNKKBKKNKKBKK"

// warmups sends one unaccounted request of each class, so connections
// and code paths are live. Indices 0, 2 and 5 of coldPattern are K, N
// and B.
func (w *coldScore) warmups(seed uint64) []request {
	out := []request{w.request(seed, streamProbe, 0), w.request(seed, streamProbe, 2), w.request(seed, streamProbe, 5)}
	for _, r := range out {
		for j := range r.members {
			r.members[j].req.Accountant = ""
		}
	}
	return out
}

func (w *coldScore) request(seed uint64, tag, i int) request {
	rng := stream(seed, tag, i)
	var r request
	switch coldPattern[i%len(coldPattern)] {
	case 'N':
		r.members = []member{w.networkMember(rng)}
	case 'B':
		r.batch = true
		r.members = make([]member, w.sz.batchSize)
		for j := range r.members {
			switch j {
			case 0:
				r.members[j] = w.networkMember(rng)
			case 1:
				r.members[j] = w.chainMember(rng, release.MechDP, false)
			default:
				r.members[j] = w.chainMember(rng, release.MechMQMExact, false)
			}
		}
	default:
		r.members = []member{w.chainMember(rng, release.MechKantorovich, i%2 == 1)}
	}
	// The members of one request charge distinct sessions; consecutive
	// requests, and so the two clients, share them.
	for j := range r.members {
		r.members[j].req.Accountant = sessionName((i + j) % w.sz.accountants)
	}
	return r
}

func (w *coldScore) chainMember(rng *rand.Rand, mech string, gaussian bool) member {
	c := binaryChain(0.6+0.35*rng.Float64(), 0.6+0.35*rng.Float64())
	s := sampleSessions(c, w.sz.coldSessions, w.sz.coldLen, rng)
	r := server.ReleaseRequest{Sessions: s, Epsilon: 1, Mechanism: mech, Smoothing: 0.5, Seed: rng.Uint64(), Parallelism: 1}
	if gaussian {
		r.Noise, r.Delta = release.NoiseGaussian, gaussianDelta
	}
	return member{req: r, sess: encodeSessions(s)}
}

func (w *coldScore) networkMember(rng *rand.Rand) member {
	nw, obs := treeNetwork(w.sz.coldNodes, rng)
	s := [][]int{obs}
	return member{
		req: server.ReleaseRequest{
			Sessions: s, Epsilon: 1, Mechanism: release.MechKantorovich,
			Substrate: release.SubstrateNetwork, Network: nw, Seed: rng.Uint64(), Parallelism: 1,
		},
		sess: encodeSessions(s),
	}
}

func sessionName(s int) string { return fmt.Sprintf("tenant-%02d", s) }
