package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"pufferfish/internal/accounting"
	"pufferfish/internal/accounting/wal"
	"pufferfish/internal/bayes"
	"pufferfish/internal/faultfs"
	"pufferfish/internal/release"
	"pufferfish/internal/server"
)

// workload generates the request streams of one benchmark workload.
type workload interface {
	// request returns request i of a stream.
	request(seed uint64, stream, i int) request
	// warmups are the requests set-up sends before the server counts
	// as warm.
	warmups(seed uint64) []request
}

// ceilingEps is cold-score's per-session budget ceiling: far above
// anything a run can spend, so it never trips, but every charge is
// still checked against it.
const ceilingEps = 1e6

// harness runs one workload: set-up, the closed-loop timed phase, the
// correctness gate and the traced replay.
type harness struct {
	seed    uint64
	w       workload
	reps    int // set-ups per run; setup_s is their median
	traced  int // requests in the traced replay
	clients int
	dir     string       // scratch directory for snapshots and WALs
	prov    *provisioned // cold-score's durable state
}

func newHarness(name string, seed uint64, sz sizes, dir string) (*harness, error) {
	h := &harness{seed: seed, dir: dir, clients: min(2, runtime.NumCPU())}
	switch name {
	case "warm-mix":
		h.w, h.reps, h.traced = newWarmMix(seed, sz), 3, 600
	case "cold-score":
		w := &coldScore{sz: sz}
		h.w, h.reps, h.traced = w, 15, 40
		prov, err := provision(w, filepath.Join(dir, "provision"))
		if err != nil {
			return nil, fmt.Errorf("provision: %w", err)
		}
		h.prov = prov
	default:
		return nil, fmt.Errorf("unknown workload %q (want warm-mix or cold-score)", name)
	}
	return h, nil
}

// state is what a server, or its traced twin, starts from.
type state struct {
	cache   *release.ScoreCache
	ledgers map[string]*accounting.Ledger
	wal     *wal.Writer
}

// restore builds a fresh serving state in dir: an empty cache, or for
// cold-score the provisioned snapshot and journal, opened through
// server.OpenDurable.
func (h *harness) restore(dir string) (state, error) {
	if h.prov == nil {
		return state{cache: release.NewScoreCache()}, nil
	}
	snap, walPath := filepath.Join(dir, "snapshot.json"), filepath.Join(dir, "accounting.wal")
	ds, err := server.OpenDurable(faultfs.OS, nil, snap, walPath)
	if err != nil {
		return state{}, err
	}
	return state{cache: ds.Cache, ledgers: ds.Accountants, wal: ds.WAL}, nil
}

// materialize writes the pristine provisioned files into a fresh dir,
// so every restore replays the same snapshot and journal. It then syncs
// the filesystems, so the timed journal fsyncs do not also flush these
// writes.
func (h *harness) materialize(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if h.prov == nil {
		return nil
	}
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), h.prov.snapshot, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "accounting.wal"), h.prov.wal, 0o644); err != nil {
		return err
	}
	syscall.Sync()
	return nil
}

// live is a server running on a loopback listener.
type live struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	wal    *wal.Writer
}

func startLive(st state) (*live, error) {
	cfg := server.Config{Cache: st.cache, Accountants: st.ledgers, WAL: st.wal}
	if st.wal != nil {
		cfg.CeilingEps = ceilingEps
	}
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &live{
		srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}},
		wal:    st.wal,
	}
	go func() { l.served <- l.hs.Serve(ln) }()
	return l, nil
}

// post sends one body and reads the whole response into buf.
func (l *live) post(path string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := l.client.Post(l.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// close shuts the server down, waits for its serve loop to return, and
// closes the journal.
func (l *live) close() error {
	err := l.hs.Shutdown(context.Background())
	if serr := <-l.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	l.client.CloseIdleConnections()
	if l.wal != nil {
		err = errors.Join(err, l.wal.Close())
	}
	return err
}

// setupTiming is one set-up: the whole of it and its warm or restore step.
type setupTiming struct {
	total, warm time.Duration
	requests    int
}

// setUp times everything from the restore, or server construction,
// over a materialized dir until the last warm-up request is served.
// Set-up leaves the dir's files as they were.
func (h *harness) setUp(dir string) (*live, setupTiming, error) {
	var t setupTiming
	runtime.GC() // so no earlier set-up's garbage is collected on this one's clock
	start := time.Now()
	st, err := h.restore(dir)
	if err != nil {
		return nil, t, err
	}
	restored := time.Now()
	l, err := startLive(st)
	if err != nil {
		if st.wal != nil {
			err = errors.Join(err, st.wal.Close())
		}
		return nil, t, err
	}
	warmStart := time.Now()
	var buf bytes.Buffer
	for _, r := range h.w.warmups(h.seed) {
		t.requests++
		status, err := l.post(r.path(), r.body(), &buf)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("warm-up request: status %d: %s", status, buf.Bytes())
		}
		if err != nil {
			return nil, t, errors.Join(err, l.close())
		}
	}
	end := time.Now()
	t.total = end.Sub(start)
	t.warm = end.Sub(warmStart)
	if h.prov != nil {
		t.warm = restored.Sub(start)
	}
	return l, t, nil
}

// served is one 200 response kept for the correctness gate.
type served struct {
	idx  int
	body []byte
}

// phase is the outcome of the closed-loop timed phase.
type phase struct {
	attempted, ok, failed int
	releases              int
	elapsed, cpu          time.Duration
	latMS                 []float64 // successful requests only
	responses             []served
	retained              int // heap bytes the clients held for the gate
	heapLiveMB            float64
	allocBytes            uint64 // heap bytes allocated during the phase
	statuses              map[int]int
	shed                  int64
	cacheHitRatio         float64
	tableHitRatio         float64
	cacheEntries          int
	ledgerEntries         int
}

// Response arena chunk sizes. The first chunk is large and allocated
// with the first response, so from then on the collector's heap target
// sits at the same height for the rest of the phase, in every run.
// Grown a chunk at a time, the retained responses would raise the target
// through the phase at a pace set by throughput, and the p99 moved with
// it. The server therefore collects less often than a standalone pufferd
// with the same live heap would; alloc_kb_per_release measures the
// allocation itself.
const (
	arenaFirst = 32 << 20
	arenaChunk = 1 << 20
)

// arena packs retained response bodies into large chunks, so the
// benchmark knows exactly how many heap bytes it holds and can leave
// them out of heap_live_mb.
type arena struct {
	chunks [][]byte
}

func (a *arena) keep(b []byte) []byte {
	n := len(a.chunks)
	if n == 0 || cap(a.chunks[n-1])-len(a.chunks[n-1]) < len(b) {
		size := arenaChunk
		if n == 0 {
			size = arenaFirst
		}
		a.chunks = append(a.chunks, make([]byte, 0, max(size, len(b))))
		n++
	}
	c := a.chunks[n-1]
	start := len(c)
	c = append(c, b...)
	a.chunks[n-1] = c
	return c[start:len(c):len(c)]
}

func (a *arena) size() int {
	s := 0
	for _, c := range a.chunks {
		s += cap(c)
	}
	return s
}

// clientLog is one closed-loop client's record.
type clientLog struct {
	arena     arena
	latMS     []float64
	responses []served
	statuses  map[int]int
	releases  int
	err       error
}

// retained is the heap the log holds, to within the map and headers.
func (c *clientLog) retained() int {
	return c.arena.size() + cap(c.latMS)*int(unsafe.Sizeof(float64(0))) + cap(c.responses)*int(unsafe.Sizeof(served{}))
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// closedLoop runs h.clients clients against l for d: each sends request
// next, waits for the whole response, and only then takes another
// index. Requests started before the deadline run to completion.
func (h *harness) closedLoop(l *live, d time.Duration) (*phase, error) {
	var next atomic.Int64
	logs := make([]clientLog, h.clients)
	cs0, ts0 := l.srv.Cache().Stats(), l.srv.Cache().TableStats()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range logs {
		wg.Add(1)
		go func(log *clientLog) {
			defer wg.Done()
			log.statuses = map[int]int{}
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				r := h.w.request(h.seed, streamTimed, i)
				body := r.body()
				t := time.Now()
				status, err := l.post(r.path(), body, &buf)
				lat := time.Since(t)
				if err != nil {
					log.err = err
					return
				}
				log.statuses[status]++
				if status == http.StatusOK {
					log.latMS = append(log.latMS, float64(lat.Nanoseconds())/1e6)
					log.releases += len(r.members)
					log.responses = append(log.responses, served{idx: i, body: log.arena.keep(buf.Bytes())})
				}
			}
		}(&logs[c])
	}
	wg.Wait()
	p := &phase{elapsed: time.Since(start), cpu: cpuTime() - cpu0, statuses: map[int]int{}}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.allocBytes = ms.TotalAlloc - ms0.TotalAlloc
	// Live heap at the end of the timed phase, less what the clients
	// hold for the gate. The second GC drops what sync.Pools kept
	// through the first.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	for i := range logs {
		p.retained += logs[i].retained()
	}
	p.heapLiveMB = float64(int64(ms.HeapAlloc)-int64(p.retained)) / (1 << 20)

	for i := range logs {
		log := &logs[i]
		if log.err != nil {
			return nil, fmt.Errorf("client %d: %w", i, log.err)
		}
		p.latMS = append(p.latMS, log.latMS...)
		p.responses = append(p.responses, log.responses...)
		p.releases += log.releases
		for s, n := range log.statuses {
			p.statuses[s] += n
			p.attempted += n
			if s == http.StatusOK {
				p.ok += n
			} else {
				p.failed += n
			}
		}
	}
	slices.SortFunc(p.responses, func(a, b served) int { return a.idx - b.idx })

	cs, ts := l.srv.Cache().Stats(), l.srv.Cache().TableStats()
	p.cacheHitRatio = ratio(cs.Hits-cs0.Hits, cs.Misses-cs0.Misses)
	p.tableHitRatio = ratio(ts.Hits-ts0.Hits, ts.Misses-ts0.Misses)
	p.cacheEntries = l.srv.Cache().Len()
	st := l.srv.Stats()
	p.shed = st.ShedTotal
	for _, a := range st.Accountants {
		p.ledgerEntries += a.Releases
	}
	return p, nil
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// provisioned is cold-score's durable starting state: a snapshot
// holding each session's earlier charges, and a journal of charges made
// after it. snapshotted lists each session's charges held in the
// snapshot, in order.
type provisioned struct {
	snapshot, wal []byte
	snapshotted   map[string][]accounting.Entry
}

// provision builds the snapshot and journal once, untimed. The earlier
// charges rotate over the entries cold-score's releases charge; each
// comes from PlannedEntry, so it is one the release path itself would
// charge.
func provision(w *coldScore, dir string) (*provisioned, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rng := stream(0, streamHistory, 0)
	var kinds []accounting.Entry
	for _, m := range []member{
		w.chainMember(rng, release.MechKantorovich, false),
		w.chainMember(rng, release.MechKantorovich, true),
		w.chainMember(rng, release.MechMQMExact, false),
		w.chainMember(rng, release.MechDP, false),
	} {
		e, err := plannedEntry(&m)
		if err != nil {
			return nil, err
		}
		kinds = append(kinds, e)
	}
	entry := func(k, s int) accounting.Entry { return kinds[(k+s)%len(kinds)] }

	prov := &provisioned{snapshotted: map[string][]accounting.Entry{}}
	snaps := map[string]accounting.Snapshot{}
	n := w.sz.accountants
	for s := range n {
		led := accounting.NewLedger(accounting.DefaultDelta)
		for k := range w.sz.snapEntries {
			if err := led.Add(entry(k, s)); err != nil {
				return nil, err
			}
		}
		snaps[sessionName(s)] = led.Snapshot()
		prov.snapshotted[sessionName(s)] = snaps[sessionName(s)].Entries
	}
	snapPath, walPath := filepath.Join(dir, "snapshot.json"), filepath.Join(dir, "accounting.wal")
	if err := server.SaveSnapshotFS(faultfs.OS, snapPath, release.NewScoreCache(), snaps, 0); err != nil {
		return nil, err
	}
	jw, _, err := wal.Recover(faultfs.OS, nil, walPath, 0)
	if err != nil {
		return nil, err
	}
	for k := range w.sz.walPending {
		for s := range n {
			if _, err := jw.Append(sessionName(s), entry(w.sz.snapEntries+k, s)); err != nil {
				return nil, errors.Join(err, jw.Close())
			}
		}
	}
	if err := jw.Close(); err != nil {
		return nil, err
	}
	if prov.snapshot, err = os.ReadFile(snapPath); err != nil {
		return nil, err
	}
	if prov.wal, err = os.ReadFile(walPath); err != nil {
		return nil, err
	}
	return prov, nil
}

// baseConfig maps a request onto release.Config the way the server
// does, over the given cache, leaving the network for the caller to
// parse.
func baseConfig(r *server.ReleaseRequest, cache *release.ScoreCache) release.Config {
	return release.Config{
		Epsilon: r.Epsilon, Delta: r.Delta, K: r.K, Mechanism: r.Mechanism, Noise: r.Noise,
		Substrate: r.Substrate, Smoothing: r.Smoothing, Seed: r.Seed, Parallelism: r.Parallelism,
		Cache: cache,
	}
}

// releaseConfig is baseConfig with the network parsed.
func releaseConfig(r *server.ReleaseRequest, cache *release.ScoreCache) (release.Config, error) {
	cfg := baseConfig(r, cache)
	if len(r.Network) > 0 {
		nw, err := bayes.ParseJSON(r.Network)
		if err != nil {
			return release.Config{}, err
		}
		cfg.Network = nw
	}
	return cfg, nil
}
