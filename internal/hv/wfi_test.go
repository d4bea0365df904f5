package hv

import (
	"testing"

	"zion/internal/asm"
	"zion/internal/isa"
	"zion/internal/sm"
	"zion/internal/telemetry"
)

// A normal-VM guest that executes wfi with its timer armed ahead sleeps
// until the deadline, pays WFIWake, and takes the timer at the instruction
// after the wfi. The guest never enables its own timer interrupt, so the
// injected virtual timer leaves it running straight to shutdown.
func TestNormalVMWFIWakesAtDeadline(t *testing.T) {
	_, _, k, h := newStack(t, sm.Config{})
	var wfi uint64
	img := guestProgram(func(p *asm.Program) {
		p.CSRR(asm.A0, isa.CSRTime)
		p.LI(asm.T0, 300_000)
		p.ADD(asm.A0, asm.A0, asm.T0)
		p.ADDI(asm.S1, asm.A0, 0)
		p.LI(asm.A7, sm.EIDTime)
		p.ECALL()
		wfi = p.PC()
		p.WFI()
	})
	vm, err := k.CreateNormalVM("nvm", img, GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	exit, err := k.RunNormalVCPU(h, vm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if exit.Reason != sm.ExitShutdown {
		t.Fatalf("reason = %v, want shutdown", exit.Reason)
	}
	var trap telemetry.FlightEvent
	evs := h.Flight.Tail(0)
	for i := len(evs) - 1; i >= 0; i-- {
		if e := evs[i]; e.Kind == telemetry.FlightTrap && e.A == isa.CauseInterruptBit|isa.IntMTimer {
			trap = e
			break
		}
	}
	deadline := vm.vcpus[0].X[asm.S1]
	if want := deadline + h.Cost.WFIWake + h.Cost.TrapEntry; trap.Cycle != want {
		t.Errorf("timer trap at cycle %d, want deadline %d + WFIWake + TrapEntry = %d",
			trap.Cycle, deadline, want)
	}
	if trap.B != wfi+4 {
		t.Errorf("timer trap at pc %#x, want %#x (past the wfi)", trap.B, wfi+4)
	}
}

// A normal-VM guest that executes wfi with nothing armed returns
// ExitTimer, its PC already past the wfi.
func TestNormalVMWFIWithNothingArmedExits(t *testing.T) {
	_, _, k, h := newStack(t, sm.Config{})
	vm, err := k.CreateNormalVM("nvm", guestProgram(func(p *asm.Program) { p.WFI() }), GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	exit, err := k.RunNormalVCPU(h, vm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if exit.Reason != sm.ExitTimer {
		t.Fatalf("reason = %v, want timer", exit.Reason)
	}
	if pc := vm.vcpus[0].PC; pc != GuestRAMBase+4 {
		t.Errorf("saved pc = %#x, want %#x (past the wfi)", pc, GuestRAMBase+4)
	}
	if exit, err = k.RunNormalVCPU(h, vm, 0); err != nil || exit.Reason != sm.ExitShutdown {
		t.Fatalf("resumed run: reason = %v, err = %v, want shutdown", exit.Reason, err)
	}
}
