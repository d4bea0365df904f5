package hart

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"zion/internal/asm"
	"zion/internal/isa"
	"zion/internal/ptw"
)

// Differential fuzzer: generate random straight-line ALU programs, run
// them through the interpreter, and compare every register against a Go
// evaluation of the same operation sequence. Catches decode/execute
// mismatches the targeted property tests miss.

type aluOp struct {
	name string
	emit func(p *asm.Program, rd, rs1, rs2 asm.Reg, imm int64)
	eval func(a, b uint64, imm int64) uint64
}

var aluOps = []aluOp{
	{"add", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.ADD(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 { return a + b }},
	{"sub", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.SUB(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 { return a - b }},
	{"xor", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.XOR(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 { return a ^ b }},
	{"or", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.OR(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 { return a | b }},
	{"and", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.AND(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 { return a & b }},
	{"sll", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.SLL(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 { return a << (b & 63) }},
	{"srl", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.SRL(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 { return a >> (b & 63) }},
	{"sra", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.SRA(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 { return uint64(int64(a) >> (b & 63)) }},
	{"mul", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.MUL(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 { return a * b }},
	{"mulhu", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.MULHU(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 { return mulhu(a, b) }},
	{"mulh", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.MULH(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 { return mulh(int64(a), int64(b)) }},
	{"div", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.DIV(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 { return divS(int64(a), int64(b)) }},
	{"divu", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.DIVU(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 { return divU(a, b) }},
	{"rem", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.REM(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 { return remS(int64(a), int64(b)) }},
	{"remu", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.REMU(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 { return remU(a, b) }},
	{"slt", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.SLT(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 {
			if int64(a) < int64(b) {
				return 1
			}
			return 0
		}},
	{"sltu", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.SLTU(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 {
			if a < b {
				return 1
			}
			return 0
		}},
	{"addw", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.ADDW(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 { return uint64(int64(int32(uint32(a) + uint32(b)))) }},
	{"subw", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.SUBW(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 { return uint64(int64(int32(uint32(a) - uint32(b)))) }},
	{"mulw", func(p *asm.Program, rd, rs1, rs2 asm.Reg, _ int64) { p.MULW(rd, rs1, rs2) },
		func(a, b uint64, _ int64) uint64 { return uint64(int64(int32(uint32(a) * uint32(b)))) }},
	{"addi", func(p *asm.Program, rd, rs1, _ asm.Reg, imm int64) { p.ADDI(rd, rs1, imm) },
		func(a, _ uint64, imm int64) uint64 { return a + uint64(imm) }},
	{"xori", func(p *asm.Program, rd, rs1, _ asm.Reg, imm int64) { p.XORI(rd, rs1, imm) },
		func(a, _ uint64, imm int64) uint64 { return a ^ uint64(imm) }},
	{"andi", func(p *asm.Program, rd, rs1, _ asm.Reg, imm int64) { p.ANDI(rd, rs1, imm) },
		func(a, _ uint64, imm int64) uint64 { return a & uint64(imm) }},
	{"ori", func(p *asm.Program, rd, rs1, _ asm.Reg, imm int64) { p.ORI(rd, rs1, imm) },
		func(a, _ uint64, imm int64) uint64 { return a | uint64(imm) }},
}

func TestDifferentialALUFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5EC4E7))
	const (
		programs = 60
		opsPer   = 40
	)
	// Working registers: x5..x15 (t0-t2, s0-s1, a0-a5).
	regs := []asm.Reg{5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

	for pi := 0; pi < programs; pi++ {
		var golden [32]uint64
		p := asm.New(ramBase)
		// Seed the working registers with random values via LI.
		for _, r := range regs {
			v := rng.Uint64()
			p.LI(r, int64(v))
			golden[r] = v
		}
		for i := 0; i < opsPer; i++ {
			op := aluOps[rng.Intn(len(aluOps))]
			rd := regs[rng.Intn(len(regs))]
			rs1 := regs[rng.Intn(len(regs))]
			rs2 := regs[rng.Intn(len(regs))]
			imm := int64(rng.Intn(4096) - 2048)
			op.emit(p, rd, rs1, rs2, imm)
			golden[rd] = op.eval(golden[rs1], golden[rs2], imm)
		}
		p.ECALL()

		h := newHart(t)
		load(t, h, ramBase, p)
		for s := 0; s < 20000; s++ {
			ev := h.Step()
			if ev.Kind == EvTrap {
				if ev.Trap.Cause != isa.ExcEcallM {
					t.Fatalf("program %d: trap %s", pi, isa.CauseName(ev.Trap.Cause))
				}
				break
			}
		}
		for _, r := range regs {
			if h.Reg(r) != golden[r] {
				t.Fatalf("program %d (seeded): x%d = %#x, golden %#x",
					pi, r, h.Reg(r), golden[r])
			}
		}
	}
}

// --- Lockstep differential fuzzer ----------------------------------------
//
// Two harts execute the same randomly generated program from identical
// initial state: one on the block or trace engine driven through RunBatch
// (batchLockstep below), one on the slow reference interpreter. At every
// batch boundary the full architectural state — registers, PC, mode,
// Cycles, Instret, and the event kind/cause — must match, and at the end
// the TLB/PMP/walker statistics and trap counts must match too. The
// programs deliberately interleave the events that invalidate the
// engines' micro-TLBs and decoded pages: PMP reprogramming, satp
// Bare<->Sv39 toggles, sfence.vma variants, and stores into the
// instruction stream.

// instrWord assembles a single instruction and returns its encoding.
func instrWord(t *testing.T, build func(p *asm.Program)) uint32 {
	t.Helper()
	p := asm.New(0)
	build(p)
	return binary.LittleEndian.Uint32(p.MustAssemble())
}

const dataOff = 1 << 20 // data region offset within RAM used by fuzz programs

// emitSMCStore writes a pre-encoded instruction into the given slot label —
// a store into the instruction stream the fast path must notice.
func emitSMCStore(p *asm.Program, word uint32, slot string) {
	p.LA(28, slot)        // t3
	p.LI(29, int64(word)) // t4
	p.SW(29, 28, 0)
}

// genLockstepBody emits the shared random body: ALU ops, loads/stores to
// the data region, and (via hooks) class-specific invalidation events.
func genLockstepBody(t *testing.T, rng *rand.Rand, p *asm.Program, ops int, special func(i int) bool) {
	regs := []asm.Reg{5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	for _, r := range regs {
		p.LI(r, int64(rng.Uint64()))
	}
	// Data pointer sits on a page boundary; signed 12-bit offsets reach
	// into the page on either side, exercising accesses near the edge.
	p.LIU(20, ramBase+dataOff+isa.PageSize) // s4
	off := func(mask int64) int64 { return (int64(rng.Intn(4096)) - 2048) &^ mask }
	for i := 0; i < ops; i++ {
		if special(i) {
			continue
		}
		switch rng.Intn(4) {
		case 0, 1: // ALU
			op := aluOps[rng.Intn(len(aluOps))]
			op.emit(p, regs[rng.Intn(len(regs))], regs[rng.Intn(len(regs))],
				regs[rng.Intn(len(regs))], int64(rng.Intn(4096)-2048))
		case 2: // store: width-aligned offsets around the page boundary
			rs := regs[rng.Intn(len(regs))]
			switch rng.Intn(4) {
			case 0:
				p.SB(rs, 20, off(0))
			case 1:
				p.SH(rs, 20, off(1))
			case 2:
				p.SW(rs, 20, off(3))
			default:
				p.SD(rs, 20, off(7))
			}
		default: // load
			rd := regs[rng.Intn(len(regs))]
			switch rng.Intn(4) {
			case 0:
				p.LBU(rd, 20, off(0))
			case 1:
				p.LHU(rd, 20, off(1))
			case 2:
				p.LW(rd, 20, off(3))
			default:
				p.LD(rd, 20, off(7))
			}
		}
	}
}

// TestLockstepFuzzMachineMode interleaves ALU/memory traffic with PMP
// reprogramming and self-modifying stores, all in M-mode.
func TestLockstepFuzzMachineMode(t *testing.T) {
	rng := rand.New(rand.NewSource(0x10C3_57E9))
	addiW := instrWord(t, func(p *asm.Program) { p.ADDI(5, 5, 1) })
	xorW := instrWord(t, func(p *asm.Program) { p.XOR(6, 6, 6) })

	for pi := 0; pi < 30; pi++ {
		// A few programs hammer one slot past the blacklist threshold so
		// the decode-thrash path is exercised too.
		nSMC := rng.Intn(4)
		if pi%10 == 9 {
			nSMC = 20
		}
		smcAt := map[int]bool{}
		for len(smcAt) < nSMC {
			smcAt[rng.Intn(60)] = true
		}
		slots := 0
		p := asm.New(ramBase)
		genLockstepBody(t, rng, p, 60, func(i int) bool {
			switch {
			case smcAt[i]:
				w := addiW
				if slots%2 == 1 {
					w = xorW
				}
				// Reuse one slot for thrash programs, fresh slots otherwise.
				name := "slot0"
				if nSMC <= 4 {
					name = "slot" + string(rune('0'+slots))
				}
				emitSMCStore(p, w, name)
				slots++
			case i%13 == 5: // PMP address reprogram
				entry := uint16(rng.Intn(4))
				p.LIU(28, rng.Uint64()%(ramSize>>2)+(ramBase>>2))
				p.CSRRW(0, isa.CSRPmpaddr0+entry, 28)
			case i%17 == 7: // PMP config reprogram (no lock bits)
				p.LIU(28, rng.Uint64()&0x1F1F1F1F)
				p.CSRRW(0, isa.CSRPmpcfg0, 28)
			default:
				return false
			}
			return true
		})
		// Executable slots: every stored word is executed on the way out.
		n := slots
		if n > 0 && nSMC > 4 {
			n = 1
		}
		for s := 0; s < n; s++ {
			p.Label("slot" + string(rune('0'+s)))
			p.NOP()
		}
		p.ECALL()

		fast, slow, fc, sc := newBatchPair(t)
		load(t, fast, ramBase, p)
		load(t, slow, ramBase, p)
		batchLockstep(t, "M", pi, fast, slow, fc, sc, isa.ExcEcallM, 0)
	}
}

// TestLockstepFuzzSupervisorSv39 runs S-mode programs under an identity
// Sv39 mapping, toggling satp between Bare and Sv39 and issuing sfence.vma
// variants between memory traffic.
func TestLockstepFuzzSupervisorSv39(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5339_AB42))

	// Identity 1 GiB superpage over RAM, tables in high RAM.
	buildRoot := func(h *Hart) uint64 {
		next := uint64(ramBase + 48<<20)
		b := &ptw.Builder{Mem: h.Mem, Alloc: func() (uint64, error) {
			f := next
			next += isa.PageSize
			return f, nil
		}}
		root, err := b.NewRoot(false)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Map(root, ramBase, ramBase,
			isa.PTERead|isa.PTEWrite|isa.PTEExec|isa.PTEAccess|isa.PTEDirty, 2, false); err != nil {
			t.Fatal(err)
		}
		return root
	}

	for pi := 0; pi < 25; pi++ {
		p := asm.New(ramBase)
		genLockstepBody(t, rng, p, 60, func(i int) bool {
			switch {
			case i%9 == 4: // satp toggle: x22 = Bare, x23 = Sv39
				if rng.Intn(2) == 0 {
					p.CSRRW(0, isa.CSRSatp, 22)
				} else {
					p.CSRRW(0, isa.CSRSatp, 23)
				}
			case i%11 == 6: // sfence.vma variants
				switch rng.Intn(3) {
				case 0:
					p.SFENCEVMA(0, 0)
				case 1:
					p.SFENCEVMA(20, 0) // by VA
				default:
					p.SFENCEVMA(0, 21) // by ASID (x21 = 0)
				}
			default:
				return false
			}
			return true
		})
		p.ECALL()

		fast, slow, fc, sc := newBatchPair(t)
		for _, h := range []*Hart{fast, slow} {
			load(t, h, ramBase, p)
			openPMP(t, h)
			root := buildRoot(h)
			sv39 := uint64(isa.SatpModeSv39)<<isa.SatpModeShift | root>>isa.PageShift
			h.SetCSR(isa.CSRSatp, sv39)
			h.SetReg(21, 0)
			h.SetReg(22, 0) // Bare
			h.SetReg(23, sv39)
			// Drop to S-mode at the program start.
			h.SetCSR(isa.CSRMstatus,
				h.CSR(isa.CSRMstatus)&^isa.MstatusMPP|uint64(1)<<isa.MstatusMPPShift)
			h.SetCSR(isa.CSRMepc, ramBase)
			h.MRet()
		}
		batchLockstep(t, "S", pi, fast, slow, fc, sc, isa.ExcEcallS, 0)
	}
}

// TestLockstepFastPathNotVacuous makes sure the fuzz configurations above
// actually exercise the trace engine: a representative M-mode program
// must produce decoded-page fetch hits and trace-retired ops.
func TestLockstepFastPathNotVacuous(t *testing.T) {
	p := asm.New(ramBase)
	for i := 0; i < 100; i++ {
		p.ADDI(5, 5, 1)
	}
	p.ECALL()
	fast, slow, fc, sc := newBatchPair(t)
	load(t, fast, ramBase, p)
	load(t, slow, ramBase, p)
	batchLockstep(t, "sanity", 0, fast, slow, fc, sc, isa.ExcEcallM, 0)
	st := fast.FastPathStats()
	if st.FetchHits == 0 {
		t.Fatalf("trace engine never hit a decoded page: %+v", st)
	}
	if st.TCOps == 0 {
		t.Fatalf("trace engine retired no trace ops: %+v", st)
	}
}

// --- Batch lockstep: trace dispatch vs per-step under async events -------
//
// RunBatch may hoist the timer and interrupt checks over a whole
// straight-line run, and the result must still be bit-identical to
// per-step execution — including WHEN an interrupt is delivered. These
// drivers run the fast hart through RunBatch exactly as the platform loop
// does (deadline sample, batch, tick+Step fallback) while the slow hart is
// advanced one Step at a time behind it, with a CLINT-shaped bus device so
// guest code can rearm its own mtimecmp and raise self-IPIs mid-run.

// fakeCLINT is a single-hart CLINT on the hart.Bus interface: msip at +0,
// mtimecmp at +0x4000, mtime at +0xBFF8 reading the hart's own cycle
// counter (per-hart virtual time, as in platform.CLINT).
type fakeCLINT struct {
	h        *Hart
	mtimecmp uint64
	armed    bool
	msip     bool
}

const (
	fcBase = uint64(0x0200_0000)
	fcMSIP = fcBase + 0x0
	fcCmp  = fcBase + 0x4000
	fcTime = fcBase + 0xBFF8
)

func (c *fakeCLINT) Access(_ int, pa uint64, size int, write bool, val uint64) (uint64, bool) {
	switch pa {
	case fcMSIP:
		if write {
			c.msip = val&1 != 0
			if c.msip {
				c.h.SetPending(isa.IntMSoft)
			} else {
				c.h.ClearPending(isa.IntMSoft)
			}
			return 0, true
		}
		if c.msip {
			return 1, true
		}
		return 0, true
	case fcCmp:
		if write {
			c.mtimecmp = val
			c.armed = true
			return 0, true
		}
		return c.mtimecmp, true
	case fcTime:
		return c.h.Cycles, true
	}
	return 0, false
}

// tick mirrors platform.Machine.tickTimer.
func (c *fakeCLINT) tick() {
	if c.armed && c.h.Cycles >= c.mtimecmp {
		c.h.SetPending(isa.IntMTimer)
	} else {
		c.h.ClearPending(isa.IntMTimer)
	}
}

// emitIRQProlog emits a jump over an M-mode interrupt handler that disarms
// the timer, clears msip, counts the interrupt in x27, and returns; then
// points mtvec at it and enables MTIE|MSIE with mstatus.MIE. The handler
// clobbers x30/x31 only.
func emitIRQProlog(p *asm.Program) {
	p.J("irq_main")
	p.Label("irq_handler")
	p.LIU(30, fcCmp)
	p.LIU(31, uint64(1)<<62) // far future: effectively disarmed
	p.SD(31, 30, 0)
	p.LIU(30, fcMSIP)
	p.SW(0, 30, 0)
	p.ADDI(27, 27, 1)
	p.MRET()
	p.Label("irq_main")
	p.LA(30, "irq_handler")
	p.CSRRW(0, isa.CSRMtvec, 30)
	p.LI(30, int64(uint64(1)<<isa.IntMTimer|uint64(1)<<isa.IntMSoft))
	p.CSRRW(0, isa.CSRMie, 30)
	p.LI(30, int64(isa.MstatusMIE))
	p.CSRRS(0, isa.CSRMstatus, 30)
	p.LI(27, 0)
}

// batchLockstep drives the fast hart through RunBatch the way the platform
// loop does, advances the slow hart Step by Step behind it, and compares
// full architectural state at every batch boundary. maxPerBatch=1 turns it
// into a per-instruction comparison through the same dispatch path.
func batchLockstep(t *testing.T, tag string, pi int, fast, slow *Hart, fc, sc *fakeCLINT, wantCause uint64, maxPerBatch uint64) {
	t.Helper()
	const maxSteps = 200000
	csrs := []uint16{isa.CSRMstatus, isa.CSRMie, isa.CSRMip, isa.CSRMepc,
		isa.CSRMcause, isa.CSRMtval, isa.CSRMtvec}
	compare := func(steps uint64) {
		t.Helper()
		if fast.PC != slow.PC || fast.Mode != slow.Mode ||
			fast.Cycles != slow.Cycles || fast.Instret != slow.Instret {
			t.Fatalf("%s program %d step %d: pc %#x/%#x mode %v/%v cycles %d/%d instret %d/%d",
				tag, pi, steps, fast.PC, slow.PC, fast.Mode, slow.Mode,
				fast.Cycles, slow.Cycles, fast.Instret, slow.Instret)
		}
		if fast.X != slow.X {
			t.Fatalf("%s program %d step %d: register files diverge", tag, pi, steps)
		}
		for _, c := range csrs {
			if fast.CSR(c) != slow.CSR(c) {
				t.Fatalf("%s program %d step %d: csr %#x fast=%#x slow=%#x",
					tag, pi, steps, c, fast.CSR(c), slow.CSR(c))
			}
		}
	}
	var steps uint64
	for steps < maxSteps {
		budget := uint64(maxSteps) - steps
		if maxPerBatch > 0 && budget > maxPerBatch {
			budget = maxPerBatch
		}
		dl, armed := fc.mtimecmp, fc.armed
		n, ev, haveEv := fast.RunBatch(dl, armed, budget)
		if !haveEv && n == 0 {
			// The platform fallback: refresh MTIP, take one slow step.
			fc.tick()
			ev = fast.Step()
			n, haveEv = 1, true
		}
		var es Event
		for j := uint64(0); j < n; j++ {
			sc.tick()
			es = slow.Step()
			if es.Kind != EvNone && (!haveEv || j != n-1) {
				t.Fatalf("%s program %d: slow path raised %v after %d of %d catch-up steps — fast path hoisted a check it should not have",
					tag, pi, es.Kind, j+1, n)
			}
		}
		steps += n
		compare(steps)
		if !haveEv {
			continue
		}
		if ev.Kind != es.Kind {
			t.Fatalf("%s program %d step %d: event kind fast=%v slow=%v", tag, pi, steps, ev.Kind, es.Kind)
		}
		if ev.Kind == EvNone {
			// Fallback Step with the interrupt masked (e.g. inside the
			// handler): an ordinary retirement on both paths.
			continue
		}
		if ev.Kind != EvTrap {
			t.Fatalf("%s program %d step %d: unexpected event %v", tag, pi, steps, ev.Kind)
		}
		if ev.Trap.Cause != es.Trap.Cause {
			t.Fatalf("%s program %d step %d: trap cause fast=%s slow=%s",
				tag, pi, steps, isa.CauseName(ev.Trap.Cause), isa.CauseName(es.Trap.Cause))
		}
		if ev.Trap.Cause == wantCause {
			// Terminal: the accounting the paper tables are built from, and
			// the data region itself.
			if fast.TLB.Stats() != slow.TLB.Stats() {
				t.Fatalf("%s program %d: TLB stats fast=%+v slow=%+v", tag, pi, fast.TLB.Stats(), slow.TLB.Stats())
			}
			if fast.PMP.Stats() != slow.PMP.Stats() {
				t.Fatalf("%s program %d: PMP stats fast=%+v slow=%+v", tag, pi, fast.PMP.Stats(), slow.PMP.Stats())
			}
			if fast.WalkStats != slow.WalkStats {
				t.Fatalf("%s program %d: walk stats fast=%+v slow=%+v", tag, pi, fast.WalkStats, slow.WalkStats)
			}
			if !reflect.DeepEqual(fast.TrapCount, slow.TrapCount) {
				t.Fatalf("%s program %d: trap counts fast=%v slow=%v", tag, pi, fast.TrapCount, slow.TrapCount)
			}
			fb, err1 := fast.Mem.Read(ramBase+dataOff, 2*isa.PageSize)
			sb, err2 := slow.Mem.Read(ramBase+dataOff, 2*isa.PageSize)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s program %d: data readback: %v / %v", tag, pi, err1, err2)
			}
			if !reflect.DeepEqual(fb, sb) {
				t.Fatalf("%s program %d: data memory diverges", tag, pi)
			}
			return
		}
		if ev.Trap.Cause&isa.CauseInterruptBit == 0 {
			t.Fatalf("%s program %d: unexpected exception %s at pc=%#x",
				tag, pi, isa.CauseName(ev.Trap.Cause), ev.Trap.PC)
		}
	}
	t.Fatalf("%s program %d: no terminating ecall after %d steps (pc=%#x)", tag, pi, maxSteps, fast.PC)
}

// newBatchPair returns a trace-engine hart and a slow reference hart over
// independent but identical memories, wired to independent fakeCLINTs.
func newBatchPair(t *testing.T) (*Hart, *Hart, *fakeCLINT, *fakeCLINT) {
	t.Helper()
	fast, slow := newHart(t), newHart(t)
	slow.SetEngine(EngineSlow)
	fc, sc := &fakeCLINT{h: fast}, &fakeCLINT{h: slow}
	fast.Bus, slow.Bus = fc, sc
	return fast, slow, fc, sc
}

// genBatchProgram emits the shared interrupt-heavy fuzz body: random ALU
// and memory traffic interleaved with near-future mtimecmp reprograms
// (often landing just inside a superblock's horizon), self-IPIs, and
// stores into the instruction stream.
func genBatchProgram(t *testing.T, rng *rand.Rand) *asm.Program {
	p := asm.New(ramBase)
	emitIRQProlog(p)
	slots := 0
	genLockstepBody(t, rng, p, 80, func(i int) bool {
		switch {
		case i%7 == 3: // mtimecmp = mtime + small delta: fires mid-run soon
			p.LIU(28, fcTime)
			p.LD(29, 28, 0)
			p.ADDI(29, 29, int64(rng.Intn(400)))
			p.LIU(28, fcCmp)
			p.SD(29, 28, 0)
		case i%13 == 8: // self-IPI through the bus
			p.LIU(28, fcMSIP)
			p.LI(29, 1)
			p.SW(29, 28, 0)
		case i%19 == 12 && slots < 4: // store into the instruction stream
			w := instrWord(t, func(q *asm.Program) { q.ADDI(5, 5, 1) })
			if slots%2 == 1 {
				w = instrWord(t, func(q *asm.Program) { q.XOR(6, 6, 6) })
			}
			emitSMCStore(p, w, "bslot"+string(rune('0'+slots)))
			slots++
		default:
			return false
		}
		return true
	})
	for s := 0; s < slots; s++ {
		p.Label("bslot" + string(rune('0'+s)))
		p.NOP()
	}
	p.ECALL()
	return p
}

// TestLockstepFuzzBatchAsync is the headline superblock fuzzer: timer
// rearms just inside the horizon, IPIs at horizon edges, and SMC stores
// into the currently executing block, batch against per-step.
func TestLockstepFuzzBatchAsync(t *testing.T) {
	rng := rand.New(rand.NewSource(0xB10C_F00D))
	var irqs, cutoffs, entries, tcops, tcbail uint64
	for pi := 0; pi < 25; pi++ {
		p := genBatchProgram(t, rng)
		fast, slow, fc, sc := newBatchPair(t)
		load(t, fast, ramBase, p)
		load(t, slow, ramBase, p)
		batchLockstep(t, "batch", pi, fast, slow, fc, sc, isa.ExcEcallM, 0)
		irqs += fast.Reg(27)
		st := fast.FastPathStats()
		cutoffs += st.HorizonCutoffs
		entries += st.TCEntries
		tcops += st.TCOps
		tcbail += st.TCBailouts
	}
	// The configuration must actually exercise the machinery it claims to.
	if irqs == 0 {
		t.Fatal("no interrupts were ever delivered")
	}
	if cutoffs == 0 {
		t.Fatal("no horizon cutoff was ever taken")
	}
	if tcops == 0 {
		t.Fatal("no instruction was ever retired by a compiled trace")
	}
	if tcops <= entries {
		t.Fatalf("no trace dispatch ever retired more than one instruction (%d ops over %d entries)", tcops, entries)
	}
	if tcbail == 0 {
		t.Fatal("no trace dispatch ever bailed out to execute()")
	}
}

// TestLockstepFuzzBatchPerInstruction replays the same program class with a
// one-instruction batch budget: full architectural state is compared after
// every single instruction, through the same trace dispatch path (each
// batch is a one-op trace or one execute() retire).
func TestLockstepFuzzBatchPerInstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(0x0E4A_11CE))
	for pi := 0; pi < 10; pi++ {
		p := genBatchProgram(t, rng)
		fast, slow, fc, sc := newBatchPair(t)
		load(t, fast, ramBase, p)
		load(t, slow, ramBase, p)
		batchLockstep(t, "perinst", pi, fast, slow, fc, sc, isa.ExcEcallM, 1)
	}
}

// TestBatchTimerAtHorizonEdge sweeps an absolute deadline across a long
// straight-line block so that some runs land the timer exactly inside the
// block's worst-case window (forcing the horizon cutoff) and others at its
// edges. Every placement must deliver the interrupt at the same boundary
// as per-step execution.
func TestBatchTimerAtHorizonEdge(t *testing.T) {
	var cutoffs, irqs uint64
	for dl := uint64(1); dl < 800; dl += 7 {
		p := asm.New(ramBase)
		emitIRQProlog(p)
		for i := 0; i < 60; i++ {
			p.ADDI(5, 5, 1)
		}
		p.ECALL()
		fast, slow, fc, sc := newBatchPair(t)
		load(t, fast, ramBase, p)
		load(t, slow, ramBase, p)
		fc.mtimecmp, fc.armed = dl, true
		sc.mtimecmp, sc.armed = dl, true
		batchLockstep(t, "edge", int(dl), fast, slow, fc, sc, isa.ExcEcallM, 0)
		irqs += fast.Reg(27)
		cutoffs += fast.FastPathStats().HorizonCutoffs
	}
	if irqs == 0 {
		t.Fatal("sweep never delivered a timer interrupt")
	}
	if cutoffs == 0 {
		t.Fatal("sweep never landed a deadline inside a block's horizon")
	}
}

// TestBatchSMCInsideExecutingSuperblock is the directed self-modifying-code
// case: a straight-line block overwrites one of its own later instructions
// while the block is executing. The store must kill the decoded block
// mid-dispatch so the new encoding (x5 += 2, not the original += 1) runs.
func TestBatchSMCInsideExecutingSuperblock(t *testing.T) {
	addi2 := instrWord(t, func(q *asm.Program) { q.ADDI(5, 5, 2) })
	p := asm.New(ramBase)
	p.LI(5, 0)
	emitSMCStore(p, addi2, "victim")
	for i := 0; i < 8; i++ {
		p.NOP()
	}
	p.Label("victim")
	p.ADDI(5, 5, 1) // overwritten before it is reached
	p.ECALL()

	fast, slow, fc, sc := newBatchPair(t)
	load(t, fast, ramBase, p)
	load(t, slow, ramBase, p)
	batchLockstep(t, "smc", 0, fast, slow, fc, sc, isa.ExcEcallM, 0)
	if got := fast.Reg(5); got != 2 {
		t.Fatalf("x5 = %d, want 2 (stale decoded block executed)", got)
	}
	if st := fast.FastPathStats(); st.BlockInvals == 0 {
		t.Fatalf("no decoded-page invalidation recorded: %+v", st)
	}
}
