package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// spanNames are the call boundaries the traced run reports self time for
// (ms per traced round). A forked lane's spans are not subtracted from
// the span that forked them: they ran concurrently with it.
var spanNames = []string{
	"setup.assemble", "setup.new_system", "setup.create_cvm", "setup.create_vm",
	"setup.shared_window", "setup.attach_device", "setup.boot",
	"hv.run_cvm", "hv.run_normal", "virtio.inject", "virtio.tap", "kv.request",
	"workloads.run_serving", "platform.run_parallel", "check.blk_verify",
}

// microUnits are the units of the microbenchmark metrics.
var microUnits = map[string]string{
	"isa.decode_ns": "ns", "hart.dispatch_ns": "ns", "tlb.lookup_ns": "ns",
	"ptw.walk_ns": "ns", "pmp.check_ns": "ns", "sm.roundtrip_ns": "ns",
	"sm.create_cvm_ms": "ms", "virtio.inject_ns": "ns",
	"virtio.post_chain_ns": "ns", "virtio.pop_batch_ns_per_chain": "ns",
	"virtio.push_batch_ns_per_chain": "ns", "guest.bounce_ns": "ns",
	"mem.read_ns": "ns", "mem.copy_ns_per_kib": "ns/KiB",
	"telemetry.hist_observe_ns": "ns",
}

// ledgerTerm is one line of the ledger: an event count from the workload
// times a unit cost from a microbenchmark.
type ledgerTerm struct {
	name           string
	count, nsPerOp float64
}

// ledgerTerms pairs each round's counts with the microbenchmarked costs.
// The terms do not overlap: dispatch covers fetch, decode, TLB hits and
// PMP checks in steady state, so TLB lookups and PMP checks get no term
// of their own; a walk is the extra cost of a TLB miss.
func ledgerTerms(c counts, micro map[string]float64) []ledgerTerm {
	chains := c["virtio.chains"]
	return []ledgerTerm{
		{"hart.dispatch", c["sim.instret"], micro["hart.dispatch_ns"]},
		{"ptw.walk", c["ptw.walks"], micro["ptw.walk_ns"]},
		{"sm.roundtrip", c["sm.exits"], micro["sm.roundtrip_ns"]},
		{"virtio.inject", c["virtio.injects"], micro["virtio.inject_ns"]},
		{"virtio.post_chain", chains, micro["virtio.post_chain_ns"]},
		{"virtio.pop_batch", chains, micro["virtio.pop_batch_ns_per_chain"]},
		{"virtio.push_batch", chains, micro["virtio.push_batch_ns_per_chain"]},
		{"guest.bounce", chains, micro["guest.bounce_ns"]},
		{"telemetry.hist_observe", chains, micro["telemetry.hist_observe_ns"]},
		// Each request's payload is copied into or out of the shared
		// window once and between window and disk once.
		{"mem.copy", 2 * c["serving.bytes_moved"] / 1024, micro["mem.copy_ns_per_kib"]},
	}
}

// ledgerGap names what no term covers.
const ledgerGap = "run-loop glue in hv and the benchmark, normal-VM tick exits, " +
	"fast-path fills and trace compiles, serving completion polling and cost charging"

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traced is the traced run: microbenchmarks, then rounds alternating
// traced and untraced, then the per-layer metrics and the ledger.
func traced(out io.Writer, w *workload, seed uint64, roundFn roundFunc, budget time.Duration, host string) (result, error) {
	start := time.Now()
	tr := newTracer()
	micro, err := microbenchmarks(tr)
	if err != nil {
		return result{}, err
	}
	// Untraced rounds are the baseline for the tracing overhead and the
	// ledger's denominator.
	var t tally
	err = loop(&t, roundFn, budget-time.Since(start), 2, func(i int) *tracer {
		if i%2 == 0 {
			return tr
		}
		return nil
	})
	if err != nil {
		return result{}, err
	}
	// Host times are scaled to the reference host speed like the
	// end-to-end metrics: round times by their own probes, span totals by
	// the traced rounds' median scale.
	var tracedRun, plainRun, tracedScale []float64
	for i, rs := range t.rounds {
		if i%2 == 0 {
			tracedRun = append(tracedRun, rs.run.Seconds()*rs.hostScale())
			tracedScale = append(tracedScale, rs.hostScale())
		} else {
			plainRun = append(plainRun, rs.run.Seconds()*rs.hostScale())
		}
	}
	nTraced := float64(len(tracedRun))
	spanScale := median(tracedScale) / nTraced // per traced round, reference speed
	plain := median(plainRun)
	c := t.rounds[0].counts
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	for name, v := range micro {
		set(name, v, microUnits[name])
	}

	instret := c["sim.instret"]
	var runNS, runCalls float64 // per traced round
	for _, name := range []string{"hv.run_cvm", "hv.run_normal"} {
		if a := tr.agg[name]; a != nil {
			runNS += float64(a.Total.Nanoseconds()) * spanScale
			runCalls += float64(a.Calls) / nTraced
		}
	}
	set("hart.ns_per_instr", ratio(runNS, instret), "ns")
	set("hart.tc_coverage", ratio(c["hart.tc_ops"], instret), "ratio")
	set("hart.tc_bailouts", c["hart.tc_bailouts"], "count")
	set("hart.tc_compiles", c["hart.tc_compiles"], "count")
	set("hart.sb_horizon_cutoffs", c["hart.sb_horizon_cutoffs"], "count")
	set("hart.fetch_miss_rate", ratio(c["hart.fetch_misses"], c["hart.fetch_hits"]+c["hart.fetch_misses"]), "ratio")
	set("tlb.hit_rate", ratio(c["tlb.hits"], c["tlb.hits"]+c["tlb.misses"]), "ratio")
	for _, name := range []string{"tlb.misses", "tlb.flushes", "ptw.walks", "ptw.steps", "pmp.checks",
		"sm.entries", "sm.exits", "hv.run_calls", "virtio.doorbells", "virtio.irqs_fired",
		"virtio.irqs_suppressed", "platform.epochs", "platform.cross_ops", "sim.instret"} {
		set(name, c[name], "count")
	}
	set("guest.pool_hwm", c["guest.pool_hwm"], "slots")
	set("sm.ws_entry_p50_cycles", c["sm.ws_entry_p50_cycles"], "cycles")
	set("sm.ws_exit_p50_cycles", c["sm.ws_exit_p50_cycles"], "cycles")
	set("sim.cycles", c["sim.cycles"], "cycles")
	set("serving.lat_p50_cycles", c["serving.lat_p50_cycles"], "cycles")
	set("serving.lat_p99_cycles", c["serving.lat_p99_cycles"], "cycles")
	set("kv.sim_cycles_per_req", c["kv.sim_cycles_per_req"], "cycles")
	set("sim.model_err_pct", c["sim.model_err_pct"], "%")
	set("hv.run_ns", ratio(runNS, runCalls), "ns")
	set("hv.exits_mmio", c["hv.exits.mmio"], "count")
	set("hv.exits_timer", c["hv.exits.timer"], "count")
	set("hv.exits_s2fault", c["hv.exits.s2fault"]+c["hv.exits.sharedfault"], "count")
	set("trace.overhead_pct", ratio(median(tracedRun)-plain, plain)*100, "%")
	for _, name := range spanNames {
		set("self_ms."+name, float64(tr.selfTime(name).Nanoseconds())*spanScale/1e6, "ms")
	}

	parOverSeq := 0.0
	if w.sequential != nil {
		seqFn, err := w.sequential(seed)
		if err != nil {
			return result{}, err
		}
		before := hostProbe()
		seq, err := seqFn(nil)
		if err != nil {
			return result{}, err
		}
		seq.probe = (before + hostProbe()) / 2
		// The engine's contract: per-hart cycles and instructions do not
		// depend on whether the harts ran together.
		t.attempted += seq.attempted
		t.failed += seq.failed
		for key, v := range seq.fp {
			if t.ref[key] != v {
				fmt.Fprintf(os.Stderr, "zbench: sequential run differs: %s %d vs %d\n", key, v, t.ref[key])
				t.failed++
			}
		}
		parOverSeq = ratio(plain, seq.run.Seconds()*seq.hostScale())
	}
	set("platform.par_over_seq", parOverSeq, "ratio")

	// The ledger: how much of an untraced round's measured host time the
	// counted events explain at their microbenchmarked costs.
	hostNS := plain * 1e9
	var explained float64
	ledger := map[string]any{}
	for _, lt := range ledgerTerms(c, micro) {
		ns := lt.count * lt.nsPerOp
		explained += ns
		if lt.count == 0 {
			continue
		}
		fmt.Fprintf(out, "# ledger %-22s count=%.0f ns_per_op=%.1f ms=%.3f pct=%.1f\n",
			lt.name, lt.count, lt.nsPerOp, ns/1e6, 100*ratio(ns, hostNS))
		ledger[lt.name] = map[string]float64{"count": lt.count, "ns_per_op": lt.nsPerOp, "pct": 100 * ratio(ns, hostNS)}
	}
	pct := 100 * ratio(explained, hostNS)
	fmt.Fprintf(out, "# ledger explained pct=%.1f of %.3f ms; gap pct=%.1f: %s\n", pct, hostNS/1e6, 100-pct, ledgerGap)
	ledger["explained_pct"] = pct
	ledger["gap"] = ledgerGap
	set("ledger.explained_pct", pct, "%")

	for _, name := range tr.names() {
		a := tr.agg[name]
		fmt.Fprintf(out, "# span %-30s calls=%d raw self_ms=%.3f total_ms=%.3f\n", name, a.Calls,
			float64(a.Sum.Nanoseconds())/1e6, float64(a.Total.Nanoseconds())/1e6)
	}
	fmt.Fprintf(out, "# rounds %d (traced %d) fingerprint %s\n", len(t.rounds), len(tracedRun), t.ref.digest())

	dir := os.Getenv("ZBENCH_OUT")
	if dir == "" {
		dir = ".bench_build"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
	if err := tr.writeChrome(path, map[string]any{"host": host, "ledger": ledger, "workload": w.name, "seed": seed}); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "# trace %s\n", path)
	return result{Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}
