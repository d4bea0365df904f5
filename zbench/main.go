// Command zbench is the repository benchmark. It runs one seeded workload
// for a fixed host-time budget, checks every simulated output, and prints
// one JSON result line:
//
//	bash zbench/run.sh --workload compute --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics: host time
// with tracing off, scaled to a reference host speed (probe.go). With
// --trace 1 it carries the per-layer metrics: warmed microbenchmarks of
// each layer's public functions, simulated-domain counts, span self
// times, the tracing overhead and the ledger of how much of the
// workload's host time those explain. The traced run also writes its
// spans as a Chrome trace_event file.
//
// BENCHMARK.json at the repository root lists the workloads and the
// metrics; BENCHMARK.md in this directory maps each metric to its layer.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workload is one seeded traffic mix. prepare derives the inputs and the
// expected outputs from the seed once per process; round then sets up a
// fresh stack, runs the inputs through it and checks the outputs.
type workload struct {
	name    string
	prepare func(seed uint64) (roundFunc, error)
	// sequential, when set, prepares the same rounds run without the
	// parallel engine: the traced run's reference for par_over_seq.
	sequential func(seed uint64) (roundFunc, error)
}

// roundFunc runs one round: set-up, then the measured phase. tr is nil in
// untraced rounds.
type roundFunc func(tr *tracer) (*roundStats, error)

var workloads = []workload{
	{name: "compute", prepare: prepareCompute},
	{name: "kv-exits", prepare: prepareKV},
	{name: "blk-serving", prepare: prepareBlk},
	{name: "smp", prepare: prepareSMP, sequential: prepareSMPSequential},
}

// roundStats is what one round measured and checked.
type roundStats struct {
	setup, run time.Duration
	// work is guest instructions retired (compute, smp) or requests
	// completed (kv-exits, blk-serving) in the measured phase.
	work              float64
	attempted, failed int
	// fp is the simulated-domain fingerprint: identical across every
	// round of a seed, whatever the host did.
	fp fingerprint
	// lat holds the host latency of each operation: a request (kv-exits),
	// a RunServing call (blk-serving) or a guest run call (compute, smp).
	lat []time.Duration
	// counts are the per-layer event counts of the round.
	counts counts
	// probe is the host-speed probe's time next to this round.
	probe time.Duration
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("zbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: compute, kv-exits, blk-serving or smp")
	seed := fl.Uint64("seed", 1, "input seed")
	seconds := fl.Float64("seconds", 10, "host seconds to measure")
	traceMode := fl.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(stderr, "zbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traceMode)
		return 2
	}
	out := bufio.NewWriter(stdout)
	defer out.Flush()

	host := describeHost()
	fmt.Fprintf(out, "# host %s\n", host)
	roundFn, err := w.prepare(*seed)
	if err != nil {
		fmt.Fprintf(stderr, "zbench: %s: %v\n", w.name, err)
		return 1
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	if *traceMode == 0 {
		res, err = measure(out, roundFn, budget)
	} else {
		res, err = traced(out, w, *seed, roundFn, budget, host)
	}
	if err != nil {
		fmt.Fprintf(stderr, "zbench: %s: %v\n", w.name, err)
		return 1
	}
	res.Failed += badMetricNames(res.Metrics, stderr)
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "zbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	return 0
}

// tally accumulates rounds: attempts, failures, the fingerprint check
// and the operation latencies.
type tally struct {
	rounds            []*roundStats
	attempted, failed int
	ref               fingerprint
	lat               latHist
}

func (t *tally) add(rs *roundStats, stderr io.Writer) {
	if len(t.rounds) == 0 {
		t.ref = rs.fp
	} else if diff := t.ref.diff(rs.fp); diff != "" {
		fmt.Fprintf(stderr, "zbench: fingerprint mismatch in round %d: %s\n", len(t.rounds), diff)
		rs.failed++
	}
	scale := rs.hostScale()
	for _, d := range rs.lat {
		t.lat.observe(time.Duration(float64(d) * scale))
	}
	rs.lat = nil
	t.rounds = append(t.rounds, rs)
	t.attempted += rs.attempted
	t.failed += rs.failed
}

// loop runs rounds until the budget is spent (at least min rounds).
func loop(t *tally, roundFn roundFunc, budget time.Duration, min int, tr func(i int) *tracer) error {
	start := time.Now()
	for i := 0; i < min || time.Since(start) < budget; i++ {
		// Every round starts from a collected heap, outside the timed
		// phases, so its garbage collections repeat from round to round.
		runtime.GC()
		before := hostProbe()
		rs, err := roundFn(tr(i))
		if err != nil {
			return err
		}
		rs.probe = (before + hostProbe()) / 2
		t.add(rs, os.Stderr)
	}
	return nil
}

// measure is the untraced run: the end-to-end metrics, in host time
// scaled to the reference host speed. Throughput and set-up time are
// medians over rounds; latencies are quantiles over every operation.
func measure(out io.Writer, roundFn roundFunc, budget time.Duration) (result, error) {
	var t tally
	if err := loop(&t, roundFn, budget, 3, func(int) *tracer { return nil }); err != nil {
		return result{}, err
	}
	n := len(t.rounds)
	setups, rates := make([]float64, n), make([]float64, n)
	rawSetups, rawRates, probes := make([]float64, n), make([]float64, n), make([]float64, n)
	for i, rs := range t.rounds {
		rawSetups[i] = rs.setup.Seconds()
		rawRates[i] = rs.work / rs.run.Seconds()
		probes[i] = rs.probe.Seconds()
		setups[i] = rawSetups[i] * rs.hostScale()
		rates[i] = rawRates[i] / rs.hostScale()
		fmt.Fprintf(out, "# round %d probe_ms=%.4f setup_s=%.6f work_per_s=%.6g (raw %.6f, %.6g)\n",
			i, probes[i]*1e3, setups[i], rates[i], rawSetups[i], rawRates[i])
	}
	fmt.Fprintf(out, "# raw medians: setup_s=%.6g work_per_s=%.6g; probe median %.4f ms, reference %.4f ms\n",
		median(rawSetups), median(rawRates), median(probes)*1e3, probeRef.Seconds()*1e3)
	fmt.Fprintf(out, "# latency samples %d (p90 has %d beyond it); p99 %.4g us\n", t.lat.n, t.lat.n/10, t.lat.quantileUS(0.99))
	fmt.Fprintf(out, "# rounds %d fingerprint %s\n", len(t.rounds), t.ref.digest())
	return result{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{
		"setup_s":     {median(setups), "s"},
		"work_per_s":  {median(rates), "1/s"},
		"lat_p50_us":  {t.lat.quantileUS(0.50), "us"},
		"lat_p90_us":  {t.lat.quantileUS(0.90), "us"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}}, nil
}

// peakRSSMB reads the process's peak resident set from /proc.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// latHist counts host latencies in logarithmic buckets 0.1% wide from
// 100 ns up: quantiles to within 0.1%, in memory that does not grow with
// the number of operations (it would show in peak_rss_mb).
type latHist struct {
	counts []uint64
	n      uint64
}

const latBaseNS, latStep = 100.0, 1.001

func (h *latHist) observe(d time.Duration) {
	i := 0
	if ns := float64(d); ns > latBaseNS {
		i = int(math.Log(ns/latBaseNS) / math.Log(latStep))
	}
	if i >= len(h.counts) {
		h.counts = append(h.counts, make([]uint64, i+1-len(h.counts))...)
	}
	h.counts[i]++
	h.n++
}

// quantileUS is the nearest-rank q-quantile in µs: the geometric middle
// of the bucket that holds it.
func (h *latHist) quantileUS(q float64) float64 {
	rank := uint64(math.Ceil(q * float64(h.n)))
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank && cum > 0 {
			return latBaseNS * math.Pow(latStep, float64(i)+0.5) / 1e3
		}
	}
	return 0
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// badMetricNames counts (as failures) metric names outside
// [A-Za-z0-9_.-]+, which the result format does not admit.
func badMetricNames(m map[string]metric, stderr io.Writer) int {
	bad := 0
	for name := range m {
		if !metricNameRE.MatchString(name) {
			fmt.Fprintf(stderr, "zbench: invalid metric name %q\n", name)
			bad++
		}
	}
	return bad
}

// describeHost records where a result came from: core count, GOMAXPROCS,
// Go version, CPU model and the source revision.
func describeHost() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	h, _ := json.Marshal(map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpu,
		"commit":     revision(),
	})
	return string(h)
}

// revision is the VCS revision stamped into the binary, or else a digest
// of the module sources the binary was built from (a checkout without
// git metadata still identifies its source tree).
func revision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+modified"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	// The benchmark runs from the repository root.
	root := "."
	hsh := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			fmt.Fprintf(hsh, "%s %d\n", filepath.ToSlash(p), len(b))
			hsh.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-sha256:" + hex.EncodeToString(hsh.Sum(nil))[:16]
}
