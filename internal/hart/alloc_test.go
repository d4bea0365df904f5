package hart

import (
	"testing"

	"zion/internal/asm"
	"zion/internal/isa"
)

// RunBatch's superblock loop — boundary checks, horizon arithmetic, trace
// dispatch, and the execute() retire of whatever the trace stops at — is
// the hottest code in the simulator: once the decoded page and micro-TLB
// entries are warm, driving it over straight-line code must not allocate
// at all. A single allocation per superblock would dominate the
// event-horizon win the engine exists for.
func TestRunBatchSuperblockZeroAllocs(t *testing.T) {
	h := newHart(t)
	h.SetEngine(EngineTrace)

	// An infinite loop of straight-line ALU and memory work: long runs
	// separated by one JAL boundary, no traps (TrapCount is a map and its
	// growth would show up as allocations — correctly — so keep it out).
	// Every tenth op is an AMO, which compiles to an empty trace slot, so
	// the loop keeps stopping the trace and retiring through execute().
	p := asm.New(ramBase)
	p.LIU(20, ramBase+dataOff)
	p.LI(5, 1)
	p.Label("top")
	for i := 0; i < 40; i++ {
		p.ADD(6, 6, 5)
		p.XOR(7, 7, 6)
		p.SD(6, 20, 0)
		p.LD(8, 20, 0)
		p.MUL(9, 8, 5)
		if i%2 == 1 {
			p.AMOADDD(10, 20, 5)
		}
	}
	p.J("top")
	load(t, h, ramBase, p)

	// Warm up: decode and compile the page, and fill the fetch/read/write
	// micro-TLB entries.
	if n, _, _ := h.RunBatch(0, false, 20000); n == 0 {
		t.Fatal("warm-up batch made no progress")
	}
	st := h.FastPathStats()
	if st.BlockBuilds == 0 || st.TCOps <= st.TCEntries || st.FetchHits <= st.TCOps {
		t.Fatalf("superblock dispatch not engaged (trace runs and execute() retires): %+v", st)
	}

	allocs := testing.AllocsPerRun(50, func() {
		if n, _, _ := h.RunBatch(0, false, 4096); n != 4096 {
			t.Fatalf("batch stalled at %d steps (pc=%#x)", n, h.PC)
		}
	})
	if allocs != 0 {
		t.Fatalf("superblock dispatch allocates %.1f allocs/op, want 0", allocs)
	}

	// The armed-deadline variant exercises the horizon arithmetic on every
	// block entry; it must be just as allocation-free.
	deadline := h.Cycles + isa.PageSize // far enough to never cut off
	allocs = testing.AllocsPerRun(50, func() {
		deadline += 1 << 20
		if n, _, _ := h.RunBatch(deadline, true, 4096); n != 4096 {
			t.Fatalf("armed batch stalled at %d steps (pc=%#x)", n, h.PC)
		}
	})
	if allocs != 0 {
		t.Fatalf("armed superblock dispatch allocates %.1f allocs/op, want 0", allocs)
	}
}

// The reference interpreter retires opcode-table ops through per-hart
// operand scratch; an operand built on the stack and handed to the
// indirect call would escape to the heap on every instruction. Step must
// stay allocation-free on the slow engine.
func TestStepSlowZeroAllocs(t *testing.T) {
	h := newHart(t)
	h.SetEngine(EngineSlow)
	load(t, h, ramBase, traceAllocProgram())
	run := func() {
		for i := 0; i < 1024; i++ {
			if ev := h.Step(); ev.Kind != EvNone {
				t.Fatalf("step %d: unexpected event %v at pc=%#x", i, ev.Kind, h.PC)
			}
		}
	}
	run() // warm-up: TLB-free M-mode, nothing to fill
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("slow Step allocates %.1f allocs per 1024 steps, want 0", allocs)
	}
}
