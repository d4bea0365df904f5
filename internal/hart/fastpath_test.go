package hart

import (
	"testing"

	"zion/internal/asm"
	"zion/internal/isa"
)

// batchN retires n EvNone instructions through RunBatch, failing on any
// event or on a batch that declines.
func batchN(t *testing.T, h *Hart, n uint64) {
	t.Helper()
	for done := uint64(0); done < n; {
		k, ev, ok := h.RunBatch(0, false, n-done)
		if ok {
			t.Fatalf("unexpected event %v at pc=%#x", ev.Kind, h.PC)
		}
		if k == 0 {
			t.Fatalf("batch declined at pc=%#x", h.PC)
		}
		done += k
	}
}

// A store into the executed page must invalidate the decoded block and the
// re-decoded instruction must take effect.
func TestFastPathSMCInvalidation(t *testing.T) {
	p := asm.New(ramBase)
	// Overwrite the "addi x6, x0, 1" at label patch with "addi x6, x0, 2"
	// before reaching it.
	w := instrWord(t, func(q *asm.Program) { q.ADDI(6, 0, 2) })
	p.NOP().NOP() // warm the decoded page
	p.LA(5, "patch")
	p.LI(7, int64(w))
	p.SW(7, 5, 0)
	p.Label("patch")
	p.ADDI(6, 0, 1)
	p.ECALL()

	h := newHart(t)
	load(t, h, ramBase, p)
	ev := runBatched(t, h, 100)
	if ev.Kind != EvTrap || ev.Trap.Cause != isa.ExcEcallM {
		t.Fatalf("unexpected end event: %+v", ev)
	}
	if got := h.Reg(6); got != 2 {
		t.Fatalf("x6 = %d, want 2 (patched instruction must execute)", got)
	}
	st := h.FastPathStats()
	if st.BlockInvals == 0 {
		t.Fatalf("no decoded-block invalidation recorded: %+v", st)
	}
	if st.BlockBuilds < 2 {
		t.Fatalf("page was not re-decoded after the store: %+v", st)
	}
}

// Each epoch source must force a refill on the next access: micro-TLB
// entries survive only while every generation they captured is current.
func TestFastPathEpochInvalidation(t *testing.T) {
	newRunning := func(t *testing.T) *Hart {
		p := asm.New(ramBase)
		for i := 0; i < 64; i++ {
			p.ADDI(5, 5, 1)
		}
		p.ECALL()
		h := newHart(t)
		load(t, h, ramBase, p)
		batchN(t, h, 4) // warm: entry filled, hits flowing
		return h
	}

	cases := []struct {
		name string
		bump func(h *Hart)
	}{
		{"satp write", func(h *Hart) {
			h.SetCSR(isa.CSRSatp, 0)
		}},
		{"mstatus SUM/MXR write", func(h *Hart) {
			h.SetCSR(isa.CSRMstatus, h.CSR(isa.CSRMstatus)|isa.MstatusSUM)
		}},
		{"PMP address write", func(h *Hart) {
			h.PMP.SetAddr(0, 0x2000_0000>>2)
		}},
		{"PMP config write", func(h *Hart) {
			h.PMP.SetCfg(0, 0)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newRunning(t)
			before := h.FastPathStats().Fills
			batchN(t, h, 2)
			if f := h.FastPathStats().Fills; f != before {
				t.Fatalf("steady state refilled without cause: %d -> %d", before, f)
			}
			c.bump(h)
			batchN(t, h, 2)
			if f := h.FastPathStats().Fills; f == before {
				t.Fatalf("%s did not invalidate the fetch entry", c.name)
			}
		})
	}
}

// Pages invalidated more than blacklistThreshold times stop being decoded:
// execution continues on the slow fetch path, still correct.
func TestFastPathBlacklist(t *testing.T) {
	w := instrWord(t, func(q *asm.Program) { q.NOP() })
	p := asm.New(ramBase)
	p.LI(5, int64(blacklistThreshold+4)) // loop count
	p.LA(6, "patch")
	p.LI(7, int64(w))
	p.Label("loop")
	p.SW(7, 6, 0) // rewrite the patch slot every iteration
	p.Label("patch")
	p.NOP()
	p.ADDI(5, 5, -1)
	p.BNE(5, 0, "loop")
	p.ECALL()

	h := newHart(t)
	load(t, h, ramBase, p)
	ev := runBatched(t, h, 10000)
	if ev.Kind != EvTrap || ev.Trap.Cause != isa.ExcEcallM {
		t.Fatalf("unexpected end event: %+v", ev)
	}
	if !h.fp.blacklist[ramBase] {
		t.Fatalf("page %#x not blacklisted after %d invalidations (stats %+v)",
			uint64(ramBase), blacklistThreshold+4, h.FastPathStats())
	}
	if h.fp.stats.BlockInvals < blacklistThreshold {
		t.Fatalf("expected >=%d invalidations, got %+v", blacklistThreshold, h.fp.stats)
	}
}

// Switching to the slow engine must unregister every code page and detach
// the watcher so the memory no longer pays notification costs.
func TestFastPathDisableCleansUp(t *testing.T) {
	p := asm.New(ramBase)
	for i := 0; i < 8; i++ {
		p.NOP()
	}
	p.ECALL()
	h := newHart(t)
	load(t, h, ramBase, p)
	batchN(t, h, 4)
	if !h.Mem.IsCodePage(ramBase) {
		t.Fatal("executed page not registered on the trace engine")
	}
	h.SetEngine(EngineSlow)
	if h.Engine() != EngineSlow || h.fp != nil {
		t.Fatal("engine caches still attached")
	}
	if h.Mem.IsCodePage(ramBase) {
		t.Fatal("code page still registered on the slow engine")
	}
	// The hart keeps running on the reference interpreter.
	ev := run(t, h, 100)
	if ev.Kind != EvTrap || ev.Trap.Cause != isa.ExcEcallM {
		t.Fatalf("slow path did not complete: %+v", ev)
	}
}

// Loads/stores through the micro-TLB must account cycles and TLB/PMP stats
// exactly like the slow path (the lockstep fuzzer covers this broadly; this
// is the minimal deterministic version for quick failure localisation).
func TestFastPathAccessAccounting(t *testing.T) {
	p := asm.New(ramBase)
	p.LIU(5, ramBase+0x2000)
	for i := 0; i < 16; i++ {
		p.SD(6, 5, int64(i*8))
		p.LD(7, 5, int64(i*8))
	}
	p.ECALL()
	fast, slow, fc, sc := newBatchPair(t)
	load(t, fast, ramBase, p)
	load(t, slow, ramBase, p)
	batchLockstep(t, "accounting", 0, fast, slow, fc, sc, isa.ExcEcallM, 0)
	st := fast.FastPathStats()
	if st.ReadHits == 0 || st.WriteHits == 0 {
		t.Fatalf("data micro-TLB never hit: %+v", st)
	}
}
