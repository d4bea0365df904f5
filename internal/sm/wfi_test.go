package sm

import (
	"testing"

	"zion/internal/asm"
	"zion/internal/hart"
	"zion/internal/isa"
	"zion/internal/platform"
	"zion/internal/telemetry"
)

// wfiProgram arms the guest timer delta cycles ahead through SBI
// set_timer (s1 keeps the absolute deadline), executes wfi, and then
// shuts down. The guest never enables its own timer interrupt, so the
// SM's virtual timer injection leaves it running straight past the wfi.
// It returns the program and the wfi's address.
func wfiProgram(delta int64) (*asm.Program, uint64) {
	p := asm.New(PrivateBase)
	p.CSRR(asm.A0, isa.CSRTime)
	p.LI(asm.T0, delta)
	p.ADD(asm.A0, asm.A0, asm.T0)
	p.ADDI(asm.S1, asm.A0, 0)
	p.LI(asm.A7, EIDTime)
	p.ECALL()
	wfi := p.PC()
	p.WFI()
	p.LI(asm.A7, EIDReset)
	p.ECALL()
	return p, wfi
}

// lastTimerTrap returns the most recent M-timer trap in hart h's flight
// ring.
func lastTimerTrap(t *testing.T, h *hart.Hart) telemetry.FlightEvent {
	t.Helper()
	evs := h.Flight.Tail(0)
	for i := len(evs) - 1; i >= 0; i-- {
		if e := evs[i]; e.Kind == telemetry.FlightTrap && e.A == isa.CauseInterruptBit|isa.IntMTimer {
			return e
		}
	}
	t.Fatal("no M-timer trap in the flight ring")
	return telemetry.FlightEvent{}
}

// A CVM that executes wfi with its timer armed ahead sleeps until the
// deadline, pays WFIWake, and takes the timer at the instruction after
// the wfi, on both the batched and the StepHook-paced loop.
func TestCVMWFIWakesAtDeadline(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"batched", Config{}},
		{"stephook", Config{StepHook: func(*hart.Hart, int) {}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, tc.cfg)
			p, wfi := wfiProgram(300_000)
			f.buildCVM(p)
			if info := f.run(); info.Reason != ExitShutdown {
				t.Fatalf("reason = %v, want shutdown", info.Reason)
			}
			deadline := f.s.life.cvms[f.id].vcpus[0].sec.X[asm.S1]
			e := lastTimerTrap(t, f.h)
			if want := deadline + f.h.Cost.WFIWake + f.h.Cost.TrapEntry; e.Cycle != want {
				t.Errorf("timer trap at cycle %d, want deadline %d + WFIWake + TrapEntry = %d",
					e.Cycle, deadline, want)
			}
			if e.B != wfi+4 {
				t.Errorf("timer trap at pc %#x, want %#x (past the wfi)", e.B, wfi+4)
			}
		})
	}
}

// A CVM that executes wfi with nothing armed yields to the hypervisor
// with ExitTimer, its PC already past the wfi.
func TestCVMWFIWithNothingArmedExits(t *testing.T) {
	f := newFixture(t, Config{})
	p := asm.New(PrivateBase)
	p.WFI()
	p.LI(asm.A7, EIDReset)
	p.ECALL()
	f.buildCVM(p)
	if info := f.run(); info.Reason != ExitTimer {
		t.Fatalf("reason = %v, want timer", info.Reason)
	}
	if pc := f.s.life.cvms[f.id].vcpus[0].sec.PC; pc != PrivateBase+4 {
		t.Errorf("saved pc = %#x, want %#x (past the wfi)", pc, PrivateBase+4)
	}
	if info := f.run(); info.Reason != ExitShutdown {
		t.Fatalf("resumed run: reason = %v, want shutdown", info.Reason)
	}
}

// Under the parallel engine a CVM's WFI fast-forward may cross quantum
// edges; the hart then pays one barrier per quantum crossed, so a
// deadline k quanta further ahead raises the epoch count by exactly k.
func TestCVMWFIPaysOneBarrierPerQuantum(t *testing.T) {
	const quantum = 100_000
	const k = 3
	epochs := func(delta int64) uint64 {
		f := newFixture(t, Config{})
		p, _ := wfiProgram(delta)
		f.buildCVM(p)
		runner := func(h *hart.Hart) error {
			info, err := f.s.RunVCPU(h, f.id, 0)
			if err == nil && info.Reason != ExitShutdown {
				t.Errorf("delta %d: reason = %v, want shutdown", delta, info.Reason)
			}
			return err
		}
		if err := f.m.RunParallel(platform.EngineConfig{Quantum: quantum},
			[]platform.HartRunner{runner}); err != nil {
			t.Fatal(err)
		}
		return f.m.EngineStats().Epochs
	}
	near := epochs(1_000)
	far := epochs(1_000 + k*quantum)
	if far != near+k {
		t.Errorf("epochs: %d with the deadline %d quanta further ahead, %d without; want a difference of exactly %d",
			far, k, near, k)
	}
}
