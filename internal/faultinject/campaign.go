package faultinject

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"zion/internal/asm"
	"zion/internal/sm"
	"zion/internal/telemetry"
)

// checksumProgram builds a CVM image that computes sum(1..n) into a0 and
// requests shutdown; the expected shutdown value n*(n+1)/2 lets the
// harness verify end-to-end integrity of a run.
func checksumProgram(n uint64) []byte {
	p := asm.New(sm.PrivateBase)
	p.LI(asm.T0, int64(n))
	p.LI(asm.A0, 0)
	p.Label("sum")
	p.ADD(asm.A0, asm.A0, asm.T0)
	p.ADDI(asm.T0, asm.T0, -1)
	p.BNE(asm.T0, asm.Zero, "sum")
	p.LI(asm.A7, sm.EIDReset)
	p.ECALL()
	return p.MustAssemble()
}

// mmioProgram builds a CVM image that performs one MMIO load (forcing a
// hypervisor round trip through the shared vCPU) and then shuts down.
func mmioProgram() []byte {
	p := asm.New(sm.PrivateBase)
	p.LI(asm.T0, mmioProbeAddr)
	p.LD(asm.A0, asm.T0, 0)
	p.ADDI(asm.A0, asm.A0, 5)
	p.LI(asm.A7, sm.EIDReset)
	p.ECALL()
	return p.MustAssemble()
}

// CampaignConfig parameterizes a fault campaign.
type CampaignConfig struct {
	// Seed makes the whole campaign reproducible.
	Seed int64
	// Faults is the number of faults to inject (default 500).
	Faults int
	// Bystanders is the number of co-resident CVMs that must survive the
	// campaign untouched and finish with correct checksums (default 2).
	Bystanders int
	// Quantum is the scheduler timeslice in cycles (default 20000).
	Quantum uint64
	// Classes restricts the swept fault classes (default: every per-CVM
	// class; compartment-compromise classes must be asked for explicitly
	// or driven through RunCompromise, because one injection quarantines
	// an SM compartment for the rest of the campaign).
	Classes []Class
	// FaultTimeout is the wall-clock deadline for one injected fault. A
	// fault that wedges the simulation (hung compartment, livelocked
	// injection) fails the campaign with a diagnostic naming the fault
	// instead of hanging the caller. Zero means the 30 s default;
	// negative disables the deadline.
	FaultTimeout time.Duration
	// Telemetry, when set, receives campaign outcome counters
	// (fi/class_*, fi/outcome_*, quarantines, leaked blocks, ...).
	Telemetry *telemetry.Scope
}

// defaultFaultTimeout bounds one injected fault's wall-clock time.
const defaultFaultTimeout = 30 * time.Second

// runWithDeadline runs fn under a wall-clock deadline, failing with a
// diagnostic instead of wedging the campaign when the injected fault
// hangs. The stranded goroutine cannot be cancelled (the simulator has no
// preemption points), but the campaign fails cleanly and the process can
// report which fault wedged. d <= 0 disables the deadline.
func runWithDeadline[T any](d time.Duration, what string, fn func() (T, error)) (T, error) {
	if d <= 0 {
		return fn()
	}
	type res struct {
		out T
		err error
	}
	ch := make(chan res, 1)
	go func() {
		out, err := fn()
		ch <- res{out, err}
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.out, r.err
	case <-timer.C:
		var zero T
		return zero, fmt.Errorf("faultinject: %s exceeded the %v fault deadline (injection wedged)", what, d)
	}
}

// Report summarizes a completed campaign.
type Report struct {
	Seed     int64
	Faults   int
	ByClass  [numClasses]int
	Outcomes [numOutcomes]int

	// Quarantines, SpuriousTraps and AuditRuns are the SM's own counters
	// after the campaign.
	Quarantines   uint64
	SpuriousTraps uint64
	AuditRuns     uint64

	// BystandersOK reports every co-resident CVM finished with the right
	// checksum; LeakedBlocks is the secure-pool deficit after teardown
	// (must be 0); ResidualFindings is the final invariant audit (must be
	// empty).
	BystandersOK     bool
	LeakedBlocks     int
	ResidualFindings []sm.AuditFinding
}

// Survived reports whether the stack absorbed the whole campaign: no
// breaches, no missed detections, no leaked secure memory, no residual
// invariant violations, and all bystanders intact.
func (r *Report) Survived() bool {
	return r.Outcomes[OutcomeBreach] == 0 &&
		r.Outcomes[OutcomeMissed] == 0 &&
		r.LeakedBlocks == 0 &&
		len(r.ResidualFindings) == 0 &&
		r.BystandersOK
}

// String renders the campaign result as a small table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d: %d faults", r.Seed, r.Faults)
	classes := make([]string, 0, numClasses)
	for c := Class(0); c < numClasses; c++ {
		if r.ByClass[c] > 0 {
			classes = append(classes, fmt.Sprintf("%v=%d", c, r.ByClass[c]))
		}
	}
	sort.Strings(classes)
	fmt.Fprintf(&b, " (%s)\n", strings.Join(classes, " "))
	for o := Outcome(0); o < numOutcomes; o++ {
		fmt.Fprintf(&b, "  %-12v %d\n", o, r.Outcomes[o])
	}
	fmt.Fprintf(&b, "  quarantines=%d spurious-traps=%d audit-runs=%d leaked-blocks=%d residual-findings=%d bystanders-ok=%v\n",
		r.Quarantines, r.SpuriousTraps, r.AuditRuns, r.LeakedBlocks,
		len(r.ResidualFindings), r.BystandersOK)
	fmt.Fprintf(&b, "  survived=%v", r.Survived())
	return b.String()
}

// bystander is a long-lived co-resident CVM the campaign must not harm.
type bystander struct {
	id   int
	want uint64
}

// Run executes a seeded fault campaign: it boots a machine, parks
// bystander CVMs mid-execution, injects cfg.Faults faults drawn from the
// configured classes, then drains the bystanders and audits for leaks.
func Run(cfg CampaignConfig) (*Report, error) {
	if cfg.Faults <= 0 {
		cfg.Faults = 500
	}
	if cfg.Bystanders <= 0 {
		cfg.Bystanders = 2
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 20_000
	}
	if cfg.FaultTimeout == 0 {
		cfg.FaultTimeout = defaultFaultTimeout
	}
	classes := cfg.Classes
	if len(classes) == 0 {
		for c := Class(0); c < numSweepClasses; c++ {
			classes = append(classes, c)
		}
	}
	for _, c := range classes {
		if c >= numSweepClasses && c < numClasses {
			return nil, errOneShot(c)
		}
	}
	in, err := NewInjector(cfg.Seed, cfg.Quantum)
	if err != nil {
		return nil, err
	}
	rep := &Report{Seed: cfg.Seed}

	// Park bystanders mid-run: each computes a distinct checksum large
	// enough that it cannot finish inside the few quanta we give it now.
	bys := make([]bystander, cfg.Bystanders)
	for i := range bys {
		n := uint64(50_000 + 1000*i)
		id, err := in.spawn(checksumProgram(n))
		if err != nil {
			return nil, err
		}
		bys[i] = bystander{id: id, want: n * (n + 1) / 2}
		for q := 0; q < 2; q++ {
			info, err := in.s.RunVCPU(in.h, id, 0)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bystander warmup: %w", err)
			}
			if info.Reason != sm.ExitTimer {
				return nil, fmt.Errorf("faultinject: bystander finished during warmup (%v); raise its workload", info.Reason)
			}
		}
	}

	for i := 0; i < cfg.Faults; i++ {
		class := classes[in.rng.Intn(len(classes))]
		out, err := runWithDeadline(cfg.FaultTimeout, fmt.Sprintf("fault %d (%v)", i, class),
			func() (Outcome, error) { return in.Inject(class) })
		if err != nil {
			return nil, fmt.Errorf("faultinject: fault %d (%v): %w", i, class, err)
		}
		rep.Faults++
		rep.ByClass[class]++
		rep.Outcomes[out]++
	}

	// Drain bystanders: they must complete with correct checksums.
	in.stormSteps = 0
	rep.BystandersOK = true
	for _, by := range bys {
		out, err := in.drive(by.id, by.want, bystanderCap)
		if err != nil {
			return nil, fmt.Errorf("faultinject: bystander drain: %w", err)
		}
		if out != OutcomeMasked {
			rep.BystandersOK = false
		}
	}

	rep.Quarantines = in.s.Stats.Quarantines
	rep.SpuriousTraps = in.s.Stats.SpuriousTraps
	rep.AuditRuns = in.s.Stats.AuditRuns
	rep.LeakedBlocks = in.s.PoolTotalBlocks() - in.s.PoolFreeBlocks()
	rep.ResidualFindings = in.s.Audit()
	rep.publish(cfg.Telemetry)
	return rep, nil
}

// publish mirrors the report into a telemetry scope as fi/* metrics so
// fault campaigns show up next to the benchmark counters. Nil-safe.
func (rep *Report) publish(tel *telemetry.Scope) {
	if tel == nil {
		return
	}
	tel.Counter("fi/faults").Add(uint64(rep.Faults))
	for c := Class(0); c < numClasses; c++ {
		if rep.ByClass[c] > 0 {
			tel.Counter("fi/class_" + c.String()).Add(uint64(rep.ByClass[c]))
		}
	}
	for o := Outcome(0); o < numOutcomes; o++ {
		if rep.Outcomes[o] > 0 {
			tel.Counter("fi/outcome_" + o.String()).Add(uint64(rep.Outcomes[o]))
		}
	}
	tel.Counter("fi/quarantines").Add(rep.Quarantines)
	tel.Counter("fi/spurious_traps").Add(rep.SpuriousTraps)
	tel.Counter("fi/audit_runs").Add(rep.AuditRuns)
	tel.Gauge("fi/leaked_blocks").Set(uint64(rep.LeakedBlocks))
	tel.Gauge("fi/residual_findings").Set(uint64(len(rep.ResidualFindings)))
}
