// Command e2ebench is pufferd's request-level benchmark. It serves an
// in-process server.New + Handler over loopback HTTP to closed-loop
// clients, reports the end-to-end metrics of one workload, checks every
// served report against release.Run, and with -trace 1 replays the
// workload through each layer's public calls for the per-layer table.
// See README.md in this directory.
//
//	bash e2ebench/run.sh --workload warm-mix --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one value of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "warm-mix or cold-score")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same request bodies")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 reports the per-layer table of a traced replay instead of the end-to-end metrics")
	dir := fs.String("dir", filepath.Join(".bench_build", "e2ebench"), "scratch directory for journals, snapshots and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "e2ebench: -trace must be 0 or 1")
		return 2
	}
	res, err := bench(stdout, *name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *dir)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		if res == nil {
			return 1
		}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(stderr, "e2ebench:", jerr)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// errGate marks a correctness mismatch: the run is reported with
// correct=false instead of aborted.
var errGate = errors.New("correctness gate")

func bench(out io.Writer, name string, seed uint64, d time.Duration, trace bool, dir string) (*result, error) {
	runDir := filepath.Join(dir, fmt.Sprintf("run-%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	h, err := newHarness(name, seed, defaultSizes, runDir)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "e2ebench workload=%s seed=%d seconds=%g trace=%t\n", name, seed, d.Seconds(), trace)
	fmt.Fprintf(out, "host nproc=%d GOMAXPROCS=%d go=%s clients=%d (closed loop) wal_fs=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), h.clients, fsType(runDir))

	// Set up h.reps times over the same files; the last server serves
	// the timed phase.
	setupDir := filepath.Join(runDir, "setup")
	if err := h.materialize(setupDir); err != nil {
		return nil, err
	}
	var setups, warms []float64
	var l *live
	setupRequests := 0
	for range h.reps {
		if l != nil {
			if err := l.close(); err != nil {
				return nil, err
			}
		}
		var t setupTiming
		l, t, err = h.setUp(setupDir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, t.total.Seconds())
		warms = append(warms, t.warm.Seconds())
		setupRequests += t.requests
	}
	fmt.Fprintf(out, "phase setup: %d set-ups, requests attempted=%d succeeded=%d failed=0\n", h.reps, setupRequests, setupRequests)

	p, err := h.closedLoop(l, d)
	err = errors.Join(err, l.close())
	if err != nil {
		return nil, fmt.Errorf("timed phase: %w", err)
	}
	fmt.Fprintf(out, "phase timed: requests attempted=%d succeeded=%d failed=%d releases=%d statuses=%v\n",
		p.attempted, p.ok, p.failed, p.releases, p.statuses)

	res := &result{Correct: true, Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metric{}}
	g, gerr := h.gate(p.responses, l)
	if gerr != nil {
		res.Correct = false
		fmt.Fprintf(out, "phase gate: FAILED: %v\n", gerr)
		return res, fmt.Errorf("%w: %w", errGate, gerr)
	}
	fmt.Fprintf(out, "phase gate: %d released reports equal release.Run bit for bit\n", g.checked)

	lat, tl := median(p.latMS), tail(p.latMS)
	e2e := []struct {
		name, unit, note string
		value            float64
	}{
		{"throughput_rps", "releases/s", fmt.Sprintf("%d releases in %.3fs", p.releases, p.elapsed.Seconds()), float64(p.releases) / p.elapsed.Seconds()},
		{"latency_p50_ms", "ms", fmt.Sprintf("exact median, n=%d", len(p.latMS)), lat},
		{"latency_tail_ms", "ms", fmt.Sprintf("p%.2f, n=%d, %d beyond", tl.Pct, tl.N, tl.Beyond), tl.Value},
		{"cpu_ms_per_release", "ms", fmt.Sprintf("user+sys %.3fs", p.cpu.Seconds()), float64(p.cpu.Nanoseconds()) / 1e6 / float64(max(p.releases, 1))},
		{"failed_frac", "ratio", fmt.Sprintf("%d of %d requests", p.failed, p.attempted), float64(p.failed) / float64(max(p.attempted, 1))},
		{"setup_s", "s", fmt.Sprintf("median of %d set-ups", len(setups)), median(setups)},
		{"alloc_kb_per_release", "KiB", fmt.Sprintf("%d bytes allocated by the process", p.allocBytes), float64(p.allocBytes) / 1024 / float64(max(p.releases, 1))},
		{"heap_live_mb", "MiB", fmt.Sprintf("after GC, less %d bytes the clients hold for the gate", p.retained), p.heapLiveMB},
		{"noise_scale_geomean", "1", fmt.Sprintf("over %d releases", len(g.noiseScales)), geomean(g.noiseScales)},
	}
	fmt.Fprintln(out, "end-to-end:")
	for _, m := range e2e {
		fmt.Fprintf(out, "  %-22s %14.6g %-11s %s\n", m.name, m.value, m.unit, m.note)
		// failed_frac is 0 on a healthy run, so the JSON line carries it
		// as the attempted/failed counts instead of as a metric.
		if !trace && m.name != "failed_frac" {
			res.Metrics[m.name] = metric{m.value, m.unit}
		}
	}
	if !trace {
		return res, nil
	}

	tr, err := h.runTraced(filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", name, seed)))
	if err != nil {
		if errors.Is(err, errGate) {
			res.Correct = false
			return res, err
		}
		return nil, fmt.Errorf("traced run: %w", err)
	}
	fmt.Fprintf(out, "phase traced: requests attempted=%d succeeded=%d failed=0, server and twin reports equal bit for bit; spans in %s\n",
		tr.requests, tr.requests, tr.spanFile)
	fmt.Fprintf(out, "per-layer (per traced request; median over the n requests where the row occurs, mean over all %d):\n", tr.requests)
	for _, r := range tr.rows {
		fmt.Fprintf(out, "  %-36s median %12.3f  mean %12.3f  n=%d\n", r.name, r.median, r.mean, r.n)
		// A cold score of a kind no workload sends is printed, but is
		// not one of the benchmark's declared metrics.
		if !strings.Contains(r.name, "score_cold") || slices.Contains(topRows, r.name) {
			res.Metrics[r.name] = metric{r.median, r.unit}
			res.Metrics[r.name+".mean"] = metric{r.mean, r.unit}
		}
	}
	sum, total := tr.attribution()
	fmt.Fprintf(out, "  check: Σ top-level rows + %s = %.3f us, %s mean = %.3f us\n", rowResidual, sum, rowHTTP, total)
	layer := []struct {
		name, unit string
		value      float64
	}{
		{"wal.fsync_us", "us", tr.fsyncUS},
		{"server.request_bytes", "bytes", tr.requestBytes},
		{"server.response_bytes", "bytes", tr.responseBytes},
		{"server.shed_frac", "ratio", float64(p.shed) / float64(max(p.attempted, 1))},
		{"accounting.entries", "count", float64(p.ledgerEntries)},
		{"core.cache_hit_ratio", "ratio", p.cacheHitRatio},
		{"core.table_hit_ratio", "ratio", p.tableHitRatio},
		{"core.cache_entries", "count", float64(p.cacheEntries)},
		{"setup.warm_s", "s", median(warms)},
	}
	for _, m := range layer {
		fmt.Fprintf(out, "  %-36s %12.6g %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = metric{m.value, m.unit}
	}
	return res, nil
}

// fsType names the filesystem holding dir, where the journals live.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
