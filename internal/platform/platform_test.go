package platform

import (
	"errors"
	"testing"

	"zion/internal/asm"
	"zion/internal/hart"
	"zion/internal/isa"
)

func TestMachineBootAndRun(t *testing.T) {
	m := New(1, 16<<20)
	h := m.Harts[0]
	p := asm.New(RAMBase)
	p.LI(asm.A0, 7)
	p.LI(asm.A1, 6)
	p.MUL(asm.A2, asm.A0, asm.A1)
	p.ECALL()
	code := p.MustAssemble()
	if err := m.RAM.Write(RAMBase, code); err != nil {
		t.Fatal(err)
	}
	h.PC = RAMBase

	var got hart.Trap
	m.MHandler = func(h *hart.Hart, tr hart.Trap) bool {
		got = tr
		return false
	}
	m.RunHart(0, 1000)
	if got.Cause != isa.ExcEcallM {
		t.Fatalf("trap = %+v", got)
	}
	if h.Reg(asm.A2) != 42 {
		t.Errorf("a2 = %d", h.Reg(asm.A2))
	}
}

func TestUARTWriteThroughMMIO(t *testing.T) {
	m := New(1, 16<<20)
	h := m.Harts[0]
	p := asm.New(RAMBase)
	p.LI(asm.T0, UARTBase)
	for _, ch := range "ok" {
		p.LI(asm.T1, int64(ch))
		p.SB(asm.T1, asm.T0, 0)
	}
	p.ECALL()
	if err := m.RAM.Write(RAMBase, p.MustAssemble()); err != nil {
		t.Fatal(err)
	}
	h.PC = RAMBase
	m.MHandler = func(*hart.Hart, hart.Trap) bool { return false }
	m.RunHart(0, 1000)
	if m.UART.Output() != "ok" {
		t.Errorf("uart = %q", m.UART.Output())
	}
	m.UART.Reset()
	if m.UART.Output() != "" {
		t.Error("reset did not clear output")
	}
}

func TestCLINTTimerFiresDuringRun(t *testing.T) {
	m := New(1, 16<<20)
	h := m.Harts[0]
	p := asm.New(RAMBase)
	p.Label("spin")
	p.J("spin")
	if err := m.RAM.Write(RAMBase, p.MustAssemble()); err != nil {
		t.Fatal(err)
	}
	h.PC = RAMBase
	h.SetCSR(isa.CSRMie, 1<<isa.IntMTimer)
	h.SetCSR(isa.CSRMstatus, h.CSR(isa.CSRMstatus)|isa.MstatusMIE)
	m.CLINT.SetTimer(0, h.Cycles+500)

	var fired bool
	m.MHandler = func(h *hart.Hart, tr hart.Trap) bool {
		if tr.Cause == isa.CauseInterruptBit|isa.IntMTimer {
			fired = true
		}
		return false
	}
	m.RunHart(0, 100000)
	if !fired {
		t.Fatal("timer interrupt did not fire")
	}
	if h.Cycles < 500 {
		t.Errorf("cycles = %d, want >= 500", h.Cycles)
	}
}

func TestWFIAdvancesToDeadline(t *testing.T) {
	m := New(1, 16<<20)
	h := m.Harts[0]
	p := asm.New(RAMBase)
	p.WFI()
	p.Label("spin")
	p.J("spin")
	if err := m.RAM.Write(RAMBase, p.MustAssemble()); err != nil {
		t.Fatal(err)
	}
	h.PC = RAMBase
	h.SetCSR(isa.CSRMie, 1<<isa.IntMTimer)
	h.SetCSR(isa.CSRMstatus, h.CSR(isa.CSRMstatus)|isa.MstatusMIE)
	m.CLINT.SetTimer(0, 100000)
	var woke bool
	m.MHandler = func(h *hart.Hart, tr hart.Trap) bool {
		woke = true
		return false
	}
	steps, err := m.RunHart(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !woke {
		t.Fatal("hart never woke from wfi")
	}
	if h.Cycles < 100000 {
		t.Errorf("cycles = %d, want fast-forward past deadline", h.Cycles)
	}
	if steps > 10 {
		t.Errorf("steps = %d; wfi should skip the wait, not spin", steps)
	}
}

func TestWFIWithNoTimerStops(t *testing.T) {
	m := New(1, 16<<20)
	h := m.Harts[0]
	p := asm.New(RAMBase)
	p.WFI()
	if err := m.RAM.Write(RAMBase, p.MustAssemble()); err != nil {
		t.Fatal(err)
	}
	h.PC = RAMBase
	steps, err := m.RunHart(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 1 {
		t.Errorf("steps = %d, want 1 (wfi with nothing armed halts)", steps)
	}
}

func TestCLINTMMIOProgramsComparator(t *testing.T) {
	m := New(2, 16<<20)
	h := m.Harts[1]
	p := asm.New(RAMBase)
	p.LI(asm.T0, CLINTBase+mtimecmpOff+8) // hart 1 comparator
	p.LI(asm.T1, 12345)
	p.SD(asm.T1, asm.T0, 0)
	p.LD(asm.A0, asm.T0, 0)
	p.ECALL()
	if err := m.RAM.Write(RAMBase, p.MustAssemble()); err != nil {
		t.Fatal(err)
	}
	h.PC = RAMBase
	m.MHandler = func(*hart.Hart, hart.Trap) bool { return false }
	m.RunHart(1, 1000)
	if h.Reg(asm.A0) != 12345 {
		t.Errorf("mtimecmp readback = %d", h.Reg(asm.A0))
	}
	if dl, ok := m.CLINT.NextDeadline(1); !ok || dl != 12345 {
		t.Errorf("deadline = %d, %v", dl, ok)
	}
	if dl, ok := m.CLINT.NextDeadline(0); ok {
		t.Errorf("hart 0 comparator should be disarmed, got %d", dl)
	}
	m.CLINT.DisarmTimer(1)
	if _, ok := m.CLINT.NextDeadline(1); ok {
		t.Error("disarm failed")
	}
}

func TestUnmappedMMIOFaults(t *testing.T) {
	m := New(1, 16<<20)
	h := m.Harts[0]
	p := asm.New(RAMBase)
	p.LI(asm.T0, 0x4000_0000) // nothing mapped here
	p.LD(asm.A0, asm.T0, 0)
	if err := m.RAM.Write(RAMBase, p.MustAssemble()); err != nil {
		t.Fatal(err)
	}
	h.PC = RAMBase
	var cause uint64
	m.MHandler = func(h *hart.Hart, tr hart.Trap) bool {
		cause = tr.Cause
		return false
	}
	m.RunHart(0, 1000)
	if cause != isa.ExcLoadAccessFault {
		t.Errorf("cause = %s", isa.CauseName(cause))
	}
}

func TestDispatchErrorsWithoutHandler(t *testing.T) {
	m := New(1, 16<<20)
	h := m.Harts[0]
	p := asm.New(RAMBase)
	p.ECALL()
	if err := m.RAM.Write(RAMBase, p.MustAssemble()); err != nil {
		t.Fatal(err)
	}
	h.PC = RAMBase
	// An unhandled trap stops this hart's run loop with a typed error; it
	// must not panic the process (other VMs keep running).
	steps, err := m.RunHart(0, 10)
	if !errors.Is(err, ErrUnhandledTrap) {
		t.Fatalf("err = %v, want ErrUnhandledTrap", err)
	}
	if steps == 0 {
		t.Error("trap should count as an executed step")
	}
}

// Advance is the run loop every guest crosses, so once the hart's pages
// and micro-TLB entries are warm it must not allocate. The loop stores to
// the hart's own CLINT comparator every iteration: each store ends the
// batch, so both RunBatch and the tick+Step fallback stay on the path.
func TestAdvanceZeroAllocs(t *testing.T) {
	m := New(1, 16<<20)
	h := m.Harts[0]
	p := asm.New(RAMBase)
	p.LI(asm.T0, CLINTBase+mtimecmpOff)
	p.LI(asm.T1, 1<<40) // far beyond the run: the timer never fires
	p.Label("top")
	for i := 0; i < 16; i++ {
		p.ADDI(asm.T2, asm.T2, 1)
		p.XOR(asm.T3, asm.T3, asm.T2)
	}
	p.SD(asm.T1, asm.T0, 0)
	p.J("top")
	if err := m.RAM.Write(RAMBase, p.MustAssemble()); err != nil {
		t.Fatal(err)
	}
	h.PC = RAMBase
	run := func() {
		if n, ev, live := m.Advance(h, 4096, nil); n != 4096 || ev.Kind != hart.EvNone || !live {
			t.Fatalf("advance stopped at %d steps: event %v, live %v (pc=%#x)", n, ev.Kind, live, h.PC)
		}
	}
	run() // warm-up: decode the page
	if dl, ok := m.CLINT.NextDeadline(0); !ok || dl != 1<<40 {
		t.Fatalf("device store did not land: deadline %d, armed %v", dl, ok)
	}
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("Advance allocates %.1f allocs per 4096 steps, want 0", allocs)
	}
}
