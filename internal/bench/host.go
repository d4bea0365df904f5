package bench

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"zion/internal/hart"
	"zion/internal/hv"
	"zion/internal/mem"
	"zion/internal/platform"
	"zion/internal/sm"
	"zion/internal/telemetry"
	"zion/internal/workloads"
)

// HostRow compares host-side throughput for one guest workload executed
// on each engine: "trace" (compiled-trace dispatch over superblocks with
// event-horizon batching) and the "slow" reference interpreter. Simulated
// cycles are included because they must match exactly across both — the
// host benchmark doubles as an end-to-end bit-identity check.
type HostRow struct {
	Name         string  `json:"name"`
	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"simulated_cycles"`
	TraceSeconds float64 `json:"trace_seconds,omitempty"`
	SlowSeconds  float64 `json:"slow_seconds"`
	TraceMIPS    float64 `json:"trace_mips,omitempty"`
	SlowMIPS     float64 `json:"slow_mips"`
	// TraceSpeedup is trace/slow MIPS, the ratio the 20% gate compares.
	TraceSpeedup float64 `json:"trace_speedup,omitempty"`
}

// HostResult is the payload of BENCH_host.json: the perf trajectory the
// repository tracks from this PR onward.
type HostResult struct {
	Rows []HostRow `json:"workloads"`
	// Allocations per operation on the scalar memory hot path; the
	// regression target is exactly 0.
	ScalarReadAllocs  float64 `json:"scalar_read_allocs_per_op"`
	ScalarWriteAllocs float64 `json:"scalar_write_allocs_per_op"`
	// MinTraceSpeedup is the worst trace speedup over slow across the
	// workloads.
	MinTraceSpeedup float64 `json:"min_trace_speedup,omitempty"`
	// TraceAmort is the trace-compilation amortization record (absent in
	// files predating the trace tier).
	TraceAmort *TraceAmortResult `json:"trace_amortization,omitempty"`
	// Parallel is the multi-hart quantum-barrier throughput section
	// (absent in files written before the parallel engine existed).
	Parallel *ParallelHostResult `json:"parallel,omitempty"`
	// Observability is the armed-vs-off overhead of the observability
	// plane (absent in files predating it).
	Observability *ObsOverheadResult `json:"observability,omitempty"`
	// Serving is the sustained-serving virtio data-plane section (absent
	// in files written before the batched data plane existed).
	Serving *ServingBenchResult `json:"serving,omitempty"`
}

// ObsOverheadResult measures what arming the observability plane — the
// cycle-domain sampling profiler at its default period, attribution, the
// dispatch-length histogram, and the always-on flight recorder — costs in
// host throughput, and re-proves that an armed run is bit-identical to an
// unarmed one.
type ObsOverheadResult struct {
	Workload      string `json:"workload"`
	Engine        string `json:"engine"`
	ProfilePeriod uint64 `json:"profile_period"`
	// Pairs is the number of interleaved off/armed scheduler-slice pairs.
	// OffMIPS and ArmedMIPS are each side's median over its slices; the
	// min/max fields its spread.
	Pairs        int     `json:"pairs"`
	OffMIPS      float64 `json:"off_mips"`
	OffMinMIPS   float64 `json:"off_min_mips"`
	OffMaxMIPS   float64 `json:"off_max_mips"`
	ArmedMIPS    float64 `json:"armed_mips"`
	ArmedMinMIPS float64 `json:"armed_min_mips"`
	ArmedMaxMIPS float64 `json:"armed_max_mips"`
	// OverheadPct is the median over the pairs of (off-armed)/off*100
	// (positive = armed is slower): a pair's two slices are the same
	// simulated work run back to back, so host drift cancels within a
	// pair. The min/max fields are the spread across pairs.
	OverheadPct    float64 `json:"overhead_pct"`
	OverheadMinPct float64 `json:"overhead_min_pct"`
	OverheadMaxPct float64 `json:"overhead_max_pct"`
	BitIdentical   bool    `json:"bit_identical"`
}

// TraceAmortResult records whether trace compilation pays for itself on
// the measured workloads: the one-time host cost of compiling a page's
// pre-bound table versus the per-instruction saving of dispatching
// through it instead of the slow reference interpreter. The gate rejects
// compile-heavy pathology — workloads that compile pages they never
// amortize.
type TraceAmortResult struct {
	// CompiledPages / Demotions / Recompiles across the trace-engine runs.
	CompiledPages uint64 `json:"compiled_pages"`
	Demotions     uint64 `json:"demotions"`
	Recompiles    uint64 `json:"recompiles"`
	// DispatchEntries and TraceOps: trace entries and instructions retired
	// by pre-bound handlers across the trace-engine runs.
	DispatchEntries uint64 `json:"dispatch_entries"`
	TraceOps        uint64 `json:"trace_ops"`
	// CompileNsPerPage is the microbenchmarked host cost of compiling one
	// page table; SavedNsPerOp is the measured per-instruction host-time
	// saving of the trace engine over the slow engine.
	CompileNsPerPage float64 `json:"compile_ns_per_page"`
	SavedNsPerOp     float64 `json:"saved_ns_per_op"`
	// BreakEvenOps is CompileNsPerPage/SavedNsPerOp: trace-dispatched
	// instructions a compiled page must retire to pay for its compile.
	// OpsPerCompiledPage is what the workloads actually achieved; the gate
	// requires it to clear BreakEvenOps.
	BreakEvenOps       float64 `json:"break_even_ops"`
	OpsPerCompiledPage float64 `json:"ops_per_compiled_page"`
}

// Format renders a human summary.
func (r HostResult) Format() []string {
	out := []string{fmt.Sprintf("%-10s %12s %11s %10s %8s",
		"workload", "instructions", "trace MIPS", "slow MIPS", "trace")}
	for _, row := range r.Rows {
		out = append(out, fmt.Sprintf("%-10s %12d %11.2f %10.2f %7.2fx",
			row.Name, row.Instructions, row.TraceMIPS, row.SlowMIPS, row.TraceSpeedup))
	}
	out = append(out, fmt.Sprintf("scalar mem path: %.2f allocs/op read, %.2f allocs/op write",
		r.ScalarReadAllocs, r.ScalarWriteAllocs))
	if a := r.TraceAmort; a != nil {
		out = append(out, fmt.Sprintf("trace amortization: %d pages compiled (%d demoted, %d recompiles), %.0f ns/page compile, %.2f ns/op saved: break-even %.0f ops, achieved %.0f ops/page",
			a.CompiledPages, a.Demotions, a.Recompiles, a.CompileNsPerPage, a.SavedNsPerOp, a.BreakEvenOps, a.OpsPerCompiledPage))
	}
	if p := r.Parallel; p != nil {
		q := "adaptive"
		if !p.Adaptive {
			q = fmt.Sprintf("quantum=%d", p.Quantum)
		}
		out = append(out, fmt.Sprintf("parallel: %s x%d harts on %d host cores [%s]: %.2f -> %.2f MIPS (%.2fx, deterministic=%v)",
			p.Workload, p.Harts, p.HostCores, q, p.SeqMIPS, p.ParMIPS, p.Speedup, p.Deterministic))
		for _, s := range p.Scaling {
			out = append(out, fmt.Sprintf("  %d hart(s): %6.3fs seq / %6.3fs par = %.2fx  (%d epochs, %d cross-ops, quantum %d after +%d/-%d resizes)",
				s.Harts, s.SeqSeconds, s.ParSeconds, s.Speedup,
				s.Epochs, s.CrossOps, s.FinalQuantum, s.QuantumGrows, s.QuantumShrinks))
		}
	}
	if o := r.Observability; o != nil {
		out = append(out, fmt.Sprintf("observability overhead: %s/%s armed@%d, median of %d pairs: %.2f [%.2f-%.2f] -> %.2f [%.2f-%.2f] MIPS (%+.2f%% [%+.2f%% to %+.2f%%], bit-identical=%v)",
			o.Workload, o.Engine, o.ProfilePeriod, o.Pairs, o.OffMIPS, o.OffMinMIPS, o.OffMaxMIPS,
			o.ArmedMIPS, o.ArmedMinMIPS, o.ArmedMaxMIPS, o.OverheadPct, o.OverheadMinPct, o.OverheadMaxPct, o.BitIdentical))
	}
	if s := r.Serving; s != nil {
		out = append(out, fmt.Sprintf("serving: %d requests x%d CVMs x%d queues depth %d coalesce %d: %d cycles vs %d baseline (%.2fx, floor %.2fx, deterministic=%v)",
			s.Requests, s.CVMs, s.Queues, s.Depth, s.Coalesce, s.Cycles, s.BaselineCycles, s.Speedup, s.SpeedupFloor, s.Deterministic))
		out = append(out, fmt.Sprintf("  latency p50 %d / p99 %d / mean %.0f cycles; %d doorbells, %d IRQs (%d suppressed), pool HWM %d/%d",
			s.P50, s.P99, s.MeanCycles, s.DoorbellExits, s.IRQsFired, s.IRQsSuppressed, s.PoolHWM, s.PoolSlots))
	}
	return out
}

// CheckHostRegression gates a freshly measured HostResult against the
// committed baseline. Two classes of check:
//
//   - Bit-identity: instructions and simulated cycles per workload must
//     match the baseline exactly — any drift means the simulation changed
//     behaviour, which is a correctness failure, not a perf one. The
//     parallel section must report Deterministic.
//   - Throughput: per-workload trace speedup over the slow engine (a
//     machine-relative ratio) must not regress more than 20% below the
//     baseline ratio. Absolute MIPS is deliberately not gated — CI
//     runners differ — and the parallel speedup is gated only when the
//     host has enough cores for the baseline ratio to be reproducible.
func CheckHostRegression(baseline, current HostResult) error {
	base := make(map[string]HostRow, len(baseline.Rows))
	for _, r := range baseline.Rows {
		base[r.Name] = r
	}
	for _, r := range current.Rows {
		b, ok := base[r.Name]
		if !ok {
			continue // new workload: nothing to compare against yet
		}
		if r.Instructions != b.Instructions || r.Cycles != b.Cycles {
			return fmt.Errorf("host gate: %s simulation fingerprint diverged: instructions %d vs baseline %d, cycles %d vs baseline %d",
				r.Name, r.Instructions, b.Instructions, r.Cycles, b.Cycles)
		}
		if b.TraceSpeedup > 0 && r.TraceSpeedup < b.TraceSpeedup*0.8 {
			return fmt.Errorf("host gate: %s trace speedup regressed >20%%: %.2fx vs baseline %.2fx",
				r.Name, r.TraceSpeedup, b.TraceSpeedup)
		}
	}
	if a := current.TraceAmort; a != nil && a.BreakEvenOps > 0 &&
		a.OpsPerCompiledPage < a.BreakEvenOps {
		// Compile-heavy pathology: pages are being compiled faster than
		// their dispatch savings can pay for them.
		return fmt.Errorf("host gate: trace compilation not amortized: %.0f ops/compiled page vs break-even %.0f",
			a.OpsPerCompiledPage, a.BreakEvenOps)
	}
	if p := current.Parallel; p != nil {
		// Bit-identity with the sequential run is mandatory.
		if !p.Deterministic {
			return fmt.Errorf("host gate: parallel engine non-deterministic")
		}
		bp := baseline.Parallel
		// Scaling floor: the minimum absolute speedup comes from the
		// *recorded baseline*, not a compile-time constant, so the gate a
		// measurement must clear is the one committed next to the numbers
		// it was recorded with. Enforced only when the measuring host has
		// at least as many cores as harts — a 1-core container can neither
		// prove nor disprove 4-hart scaling, so it neither passes nor
		// fails the floor; the multi-core CI lane is where it binds.
		if bp != nil && bp.ScalingFloor > 0 &&
			p.HostCores >= p.Harts && p.Speedup < bp.ScalingFloor {
			return fmt.Errorf("host gate: parallel speedup %.2fx at %d harts below the recorded %.2fx floor (on %d cores)",
				p.Speedup, p.Harts, bp.ScalingFloor, p.HostCores)
		}
		// Relative regression vs the baseline ratio: only meaningful when
		// both sides were measured on hosts with enough cores to scale.
		if bp != nil && bp.Speedup > 0 &&
			p.HostCores >= p.Harts && bp.HostCores >= bp.Harts &&
			p.Speedup < bp.Speedup*0.8 {
			return fmt.Errorf("host gate: parallel speedup regressed >20%%: %.2fx vs baseline %.2fx (on %d cores)",
				p.Speedup, bp.Speedup, p.HostCores)
		}
	}
	if s := current.Serving; s != nil {
		// The serving section is gated entirely in the simulation domain,
		// so its checks are absolute and exact on any host.
		if !s.Deterministic {
			return fmt.Errorf("host gate: serving benchmark non-deterministic: repeated optimized runs diverged")
		}
		floor := MinServingSpeedupFloor
		if s.SpeedupFloor > floor {
			floor = s.SpeedupFloor
		}
		if s.Speedup < floor {
			return fmt.Errorf("host gate: serving data-plane speedup %.2fx below the %.2fx floor (%d vs %d baseline cycles)",
				s.Speedup, floor, s.Cycles, s.BaselineCycles)
		}
		if bs := baseline.Serving; bs != nil && bs.SameConfig(s) {
			// Same config as the committed baseline: the simulated numbers
			// are fingerprints and must match bit for bit.
			if s.Cycles != bs.Cycles || s.HistCount != bs.HistCount || s.HistSum != bs.HistSum {
				return fmt.Errorf("host gate: serving fingerprint diverged: cycles %d vs baseline %d, hist (%d,%d) vs (%d,%d)",
					s.Cycles, bs.Cycles, s.HistCount, s.HistSum, bs.HistCount, bs.HistSum)
			}
		}
	}
	if o := current.Observability; o != nil {
		// Absolute gates on the fresh measurement, independent of the
		// baseline: arming the plane must never change simulated results,
		// and its throughput tax at the default sampling period must stay
		// under 3% — the budget the plane was designed to — judged on the
		// median over interleaved pairs.
		if !o.BitIdentical {
			return fmt.Errorf("host gate: observability-armed run diverged from unarmed run")
		}
		if o.OverheadPct > 3.0 {
			return fmt.Errorf("host gate: observability overhead %.2f%% exceeds the 3%% budget (%.2f -> %.2f MIPS)",
				o.OverheadPct, o.OffMIPS, o.ArmedMIPS)
		}
	}
	return nil
}

type hostSample struct {
	instr   uint64
	cycles  uint64
	seconds float64
	fp      hart.FastPathStats // engine counters at completion (zero for slow)
}

// bootHost boots a fresh stack with the selected engine, wired to the
// current bench sink, and loads the kernel into a CVM ready to run.
func bootHost(k workloads.Kernel, scale int, eng hart.Engine) (*Env, *hv.VM, error) {
	e := NewEnv(EnvConfig{Engine: eng, SM: sm.Config{SchedQuantum: rv8TickQuantum()}})
	cvm, err := e.HV.CreateCVM(e.H, k.Name, workloads.Program(k, scale), hv.GuestRAMBase)
	return e, cvm, err
}

// runHostOnce boots a fresh stack with the selected engine and drives the
// kernel to completion inside a CVM, timing only the guest run.
func runHostOnce(k workloads.Kernel, scale int, eng hart.Engine) (hostSample, error) {
	e, cvm, err := bootHost(k, scale, eng)
	if err != nil {
		return hostSample{}, err
	}
	i0 := e.H.Instret
	t0 := time.Now()
	if _, err := e.HV.RunToShutdown(e.H, cvm, 0, nil); err != nil {
		return hostSample{}, err
	}
	return hostSample{
		instr:   e.H.Instret - i0,
		cycles:  e.H.Cycles,
		seconds: time.Since(t0).Seconds(),
		fp:      e.H.FastPathStats(),
	}, nil
}

// scalarAllocs measures allocations per operation on the non-straddling
// scalar accessors — the interpreter's per-instruction memory path.
func scalarAllocs() (read, write float64) {
	m := mem.NewPhysMemory(platform.RAMBase, 1<<20)
	addr := uint64(platform.RAMBase + 0x100)
	if err := m.WriteUint(addr, 0x0123_4567_89AB_CDEF, 8); err != nil {
		panic(err)
	}
	read = testing.AllocsPerRun(1000, func() {
		if _, err := m.ReadUint(addr, 8); err != nil {
			panic(err)
		}
	})
	write = testing.AllocsPerRun(1000, func() {
		if err := m.WriteUint(addr, 42, 8); err != nil {
			panic(err)
		}
	})
	return read, write
}

// RunHost measures host instructions/second on the T1 aes and E4 CoreMark
// CVM drivers on both engines: compiled trace and the slow reference
// interpreter. scaleDiv divides workload scales like the
// other experiments (1 = full paper scale). It errors if any workload's
// simulated cycle or instruction count differs between the engines — the
// bit-identity guarantee, enforced where the numbers are produced.
func RunHost(scaleDiv int) (HostResult, error) {
	if scaleDiv < 1 {
		scaleDiv = 1
	}
	// The host benchmark measures steady-state throughput, so runs must be
	// long enough to amortise one-time work (stage-2 demand faults, page
	// decodes). aes's paper-table scale retires only ~3.5M instructions;
	// stretch it — the simulated-cycle cross-check still applies at the
	// stretched scale, so bit-identity is enforced regardless.
	type hostKernel struct {
		workloads.Kernel
		mult int
	}
	kernels := []hostKernel{}
	for _, k := range workloads.RV8() {
		if k.Name == "aes" {
			kernels = append(kernels, hostKernel{k, 8})
		}
	}
	kernels = append(kernels, hostKernel{workloads.Coremark(), 1})

	res := HostResult{}
	amort := TraceAmortResult{}
	var savedSeconds float64
	var savedOps uint64
	for i, k := range kernels {
		scale := k.DefaultScale * k.mult / scaleDiv
		if scale < 8 {
			scale = 8
		}
		trace, err := runHostOnce(k.Kernel, scale, hart.EngineTrace)
		if err != nil {
			return res, fmt.Errorf("%s trace: %w", k.Name, err)
		}
		slow, err := runHostOnce(k.Kernel, scale, hart.EngineSlow)
		if err != nil {
			return res, fmt.Errorf("%s slow: %w", k.Name, err)
		}
		if trace.cycles != slow.cycles || trace.instr != slow.instr {
			return res, fmt.Errorf("%s: engine divergence from slow path: cycles %d vs %d, instret %d vs %d",
				k.Name, trace.cycles, slow.cycles, trace.instr, slow.instr)
		}
		row := HostRow{
			Name:         k.Name,
			Instructions: slow.instr,
			Cycles:       slow.cycles,
			TraceSeconds: trace.seconds,
			SlowSeconds:  slow.seconds,
			TraceMIPS:    float64(trace.instr) / trace.seconds / 1e6,
			SlowMIPS:     float64(slow.instr) / slow.seconds / 1e6,
		}
		if row.SlowMIPS > 0 {
			row.TraceSpeedup = row.TraceMIPS / row.SlowMIPS
		}
		res.Rows = append(res.Rows, row)
		if i == 0 || row.TraceSpeedup < res.MinTraceSpeedup {
			res.MinTraceSpeedup = row.TraceSpeedup
		}
		amort.CompiledPages += trace.fp.TCCompiles
		amort.Demotions += trace.fp.TCDemotions
		amort.Recompiles += trace.fp.TCRecompiles
		amort.DispatchEntries += trace.fp.TCEntries
		amort.TraceOps += trace.fp.TCOps
		savedSeconds += slow.seconds - trace.seconds
		savedOps += trace.fp.TCOps
	}
	amort.CompileNsPerPage = hart.TraceCompileCost(256)
	if savedOps > 0 {
		amort.SavedNsPerOp = savedSeconds * 1e9 / float64(savedOps)
	}
	if amort.SavedNsPerOp > 0 {
		amort.BreakEvenOps = amort.CompileNsPerPage / amort.SavedNsPerOp
	}
	if amort.CompiledPages > 0 {
		amort.OpsPerCompiledPage = float64(amort.TraceOps) / float64(amort.CompiledPages)
	}
	res.TraceAmort = &amort
	res.ScalarReadAllocs, res.ScalarWriteAllocs = scalarAllocs()
	obs, err := RunObservabilityOverhead(scaleDiv)
	if err != nil {
		return res, fmt.Errorf("observability overhead: %w", err)
	}
	res.Observability = &obs
	serving, err := RunServingBench(scaleDiv)
	if err != nil {
		return res, fmt.Errorf("serving: %w", err)
	}
	res.Serving = serving
	return res, nil
}

// obsMinPairs is the fewest interleaved off/armed slice pairs the
// observability row times; whole lockstep runs repeat until it is met.
const obsMinPairs = 128

// RunObservabilityOverhead measures the observability plane's host-MIPS
// tax on the shipped trace engine: the same seeded aes guest on two
// stacks, one with the plane off and one with the sampling profiler
// armed at its default period (attribution, the dispatch-length histogram
// and the flight recorder ride along — they are on whenever a sink is).
// The two run in lockstep, one scheduler slice (the guest's run between
// two timer exits) at a time, alternating which stack goes first. Because
// arming is bit-identical, the two slices of a pair are the same
// simulated work, a few milliseconds apart on the host, so host drift
// cancels within the pair. The overhead is the median of the per-pair
// overheads, which the <3% CheckHostRegression gate judges; min and max
// record the spread. Bit-identity of the cycle and instret counts is
// checked after every slice.
func RunObservabilityOverhead(scaleDiv int) (ObsOverheadResult, error) {
	if scaleDiv < 1 {
		scaleDiv = 1
	}
	var k workloads.Kernel
	for _, c := range workloads.RV8() {
		if c.Name == "aes" {
			k = c
		}
	}
	scale := k.DefaultScale * 8 / scaleDiv
	if scale < 8 {
		scale = 8
	}
	res := ObsOverheadResult{
		Workload:      k.Name,
		Engine:        hart.EngineTrace.String(),
		ProfilePeriod: telemetry.DefaultProfilePeriod,
		BitIdentical:  true,
	}
	// The measurement flips the shared bench sink; restore the caller's
	// arming (zionbench may be exporting a trace or profile of the run).
	savedSink, savedEnvs := benchSink, telEnvs
	defer func() { benchSink, telEnvs = savedSink, savedEnvs }()
	var off, armed, overhead []float64
	for len(overhead) < obsMinPairs {
		SetTelemetry(nil)
		oe, ovm, err := bootHost(k, scale, hart.EngineTrace)
		if err != nil {
			return res, fmt.Errorf("off: %w", err)
		}
		SetTelemetry(telemetry.New(telemetry.Config{ProfilePeriod: telemetry.DefaultProfilePeriod}))
		ae, avm, err := bootHost(k, scale, hart.EngineTrace)
		SetTelemetry(nil)
		if err != nil {
			return res, fmt.Errorf("armed: %w", err)
		}
		for done := false; !done; {
			var o, a obsSlice
			if len(overhead)%2 == 0 {
				o, a = runSlice(oe, ovm), runSlice(ae, avm)
			} else {
				a, o = runSlice(ae, avm), runSlice(oe, ovm)
			}
			if o.err != nil || a.err != nil {
				return res, fmt.Errorf("slice: off %v, armed %v", o.err, a.err)
			}
			if oe.H.Cycles != ae.H.Cycles || oe.H.Instret != ae.H.Instret || o.done != a.done {
				res.BitIdentical = false
				return res, fmt.Errorf("armed run diverged: cycles %d vs %d, instret %d vs %d",
					ae.H.Cycles, oe.H.Cycles, ae.H.Instret, oe.H.Instret)
			}
			om := float64(o.instr) / o.seconds / 1e6
			am := float64(a.instr) / a.seconds / 1e6
			off = append(off, om)
			armed = append(armed, am)
			overhead = append(overhead, -pct(om, am))
			done = o.done
		}
	}
	res.Pairs = len(overhead)
	res.OffMIPS, res.OffMinMIPS, res.OffMaxMIPS = medianSpread(off)
	res.ArmedMIPS, res.ArmedMinMIPS, res.ArmedMaxMIPS = medianSpread(armed)
	res.OverheadPct, res.OverheadMinPct, res.OverheadMaxPct = medianSpread(overhead)
	return res, nil
}

// obsSlice is one timed scheduler slice of a lockstep observability run.
type obsSlice struct {
	instr   uint64
	seconds float64
	done    bool // the guest shut down
	err     error
}

// runSlice runs the CVM until its next exit: a timer exit ends a slice,
// shutdown ends the run.
func runSlice(e *Env, vm *hv.VM) obsSlice {
	i0 := e.H.Instret
	t0 := time.Now()
	info, err := e.HV.Run(e.H, vm, 0)
	s := obsSlice{instr: e.H.Instret - i0, seconds: time.Since(t0).Seconds(), err: err}
	switch {
	case err != nil:
	case info.Reason == sm.ExitShutdown:
		s.done = true
	case info.Reason != sm.ExitTimer:
		s.err = fmt.Errorf("unexpected exit %v", info.Reason)
	}
	return s
}

// medianSpread returns the median, minimum and maximum of xs, sorting xs
// in place.
func medianSpread(xs []float64) (med, lo, hi float64) {
	sort.Float64s(xs)
	n := len(xs)
	med = xs[n/2]
	if n%2 == 0 {
		med = (xs[n/2-1] + xs[n/2]) / 2
	}
	return med, xs[0], xs[n-1]
}
