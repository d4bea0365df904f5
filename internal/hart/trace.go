package hart

import (
	"encoding/binary"
	"time"

	"zion/internal/isa"
	"zion/internal/ptw"
	"zion/internal/telemetry"
)

// Trace compilation: the fast tier. Each decoded page is compiled once
// (decodePageLocked) into a direct-threaded table of pre-bound
// operations: per slot, the opcode-table semantics (or a micro-TLB
// memory handler) with register indices, immediates, and the op's static
// cycle cost extracted at compile time. runTrace is the only loop in the
// simulator that dispatches more than one instruction between boundary
// checks.
//
// Soundness of the once-per-entry generation check, spelled out:
//
//  1. At trace entry the fetch micro-TLB entry has just been validated, so
//     tlb.gen, pmp.gen, mmuGen, and the privilege mode are known. runTrace
//     snapshots them into the engine scratch (tcMode/tcTLBGen/tcPMPGen/
//     tcMMUGen) — the only generation reads of the whole dispatch.
//  2. No compiled op can move any of those epochs: opcode-table ops
//     touch only registers and the PC, and memory handlers never touch
//     the bus (so asyncGen is stable and mtimecmp/msip cannot be
//     rearmed mid-trace), never insert into or flush the TLB (data-slot
//     refills use fill(), which translates via TLB.Peek and probes PMP
//     side-effect-free), never write a CSR or PMP register, and refuse
//     stores into registered code pages (so codeGen and decoded-page
//     liveness are stable too). Every instruction that could move an
//     epoch — CSR access, sfence/hfence, AMO/LR/SC, ecall/ebreak/*ret,
//     wfi, anything that can trap — compiles to an empty slot.
//  3. Therefore a micro-TLB slot that matches the entry snapshot is
//     exactly as valid as one that matches the live generations, and a
//     slot refilled mid-trace carries epochs equal to the snapshot.
//
// Any operation that cannot complete under those rules aborts WITHOUT
// retiring — no cycles, no Instret, no stats — and runBatch retires that
// one instruction through execute(), shared with the slow path, before
// returning to its boundary checks. Every hard case (traps, MMIO,
// page-straddling access, SMC store, CSR side effects) thereby inherits
// bit-identity by construction. Because no handler moves an epoch, the
// fetch entry that admitted the trace still stands for that instruction.
//
// The event-horizon interrupt proof (superblock.go) bounds each dispatch:
// runTrace is entered for at most the superblock at PC, only after the
// Cycles+sbWorst < deadline check, and it charges exactly the cycles
// execute() would.
//
// Dispatch is allocation-free after warm-up: compilation allocates the
// per-page table once (handlers are package-level funcs, so binding them
// is pointer assignment, not closure capture), and the dispatch loop
// itself performs no allocation (TestTraceDispatchAllocs pins this to 0
// allocs/op).

// tcDemoteThreshold is the per-page invalidation count at which trace
// compilation is demoted: a page invalidated this often (SMC or code/data
// sharing) stops being trace-compiled — recompiling a 1024-slot table per
// store would be a recompile storm — while decode and per-instruction
// execute() dispatch continue until the 16-invalidation blacklist retires
// the page from block caching entirely. Demotion is decided once per
// decoded-page build (a nil table), so the hot dispatch path never
// consults the invalidation map.
const tcDemoteThreshold = 4

const tracePageSlots = isa.PageSize / 4

// memFn executes one pre-bound load or store through the micro-TLB. It
// either retires the instruction completely — accounting, cycles,
// Instret, architectural effect, PC update — or returns false having
// changed nothing at all.
type memFn func(h *Hart, e *fastPath, op *traceOp) bool

// traceOp is one compiled slot: the opcode-table semantics (sem) or a
// memory handler (mem) — never both; neither means execute() owns the
// op — plus every decode field they need, pre-extracted. cost is the
// op's static retire cost (the opcode-table class cost, or Base+Mem for
// memory ops); a taken branch adds Cost.Branch at run time, exactly as
// execute() does.
type traceOp struct {
	sem  opSem
	mem  memFn
	rd   uint8
	rs1  uint8
	rs2  uint8
	imm  int64
	cost uint64
}

// SetDispatchHist attaches a dispatch-length histogram: every trace
// entry records how many instructions the compiled trace retired. The
// record site is nil-guarded, so the unarmed cost is one pointer test per
// trace entry — the zero-overhead-when-disabled contract. Recording goes
// to single-writer plain counters; call FlushDispatchHist to publish them
// into the attached histogram.
func (h *Hart) SetDispatchHist(hist *telemetry.Histogram) {
	if h.fp != nil {
		h.fp.hist = hist
	}
}

// FlushDispatchHist drains the dispatch-length distribution accumulated
// since the last flush into the histogram attached by SetDispatchHist.
// The shared atomic histogram is touched only here, never on the
// dispatch path.
func (h *Hart) FlushDispatchHist() {
	if h.fp != nil {
		h.fp.lens.Drain(h.fp.hist)
	}
}

// TraceCompileCost microbenchmarks trace-table compilation: the host
// nanoseconds to compile one full decoded page (tracePageSlots slots,
// table allocation included) of a representative instruction mix. The
// bench harness divides this by the measured per-instruction saving of
// the trace tier over the slow engine to derive the break-even
// dispatch count recorded in BENCH_host.json.
func TraceCompileCost(iters int) float64 {
	if iters < 1 {
		iters = 1
	}
	var dp decodedPage
	mix := []isa.Inst{
		{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: 1},
		{Op: isa.OpLD, Rd: 6, Rs1: 2, Imm: 16},
		{Op: isa.OpSD, Rs1: 2, Rs2: 6, Imm: 24},
		{Op: isa.OpMUL, Rd: 7, Rs1: 5, Rs2: 6},
		{Op: isa.OpXOR, Rd: 8, Rs1: 7, Rs2: 5},
		{Op: isa.OpBNE, Rs1: 5, Rs2: 0, Imm: -20},
	}
	for i := range dp.insts {
		dp.insts[i] = mix[i%len(mix)]
	}
	c := DefaultCosts()
	t0 := time.Now()
	for n := 0; n < iters; n++ {
		tops := new([tracePageSlots]traceOp)
		for i := range dp.insts {
			compileTraceOp(c, &dp.insts[i], &tops[i])
		}
		traceCompileSink = tops
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(iters)
}

// traceCompileSink keeps the compiler from eliding the microbenchmark body.
var traceCompileSink *[tracePageSlots]traceOp

// compileTraceOp binds one decoded instruction to its opcode-table row or
// memory handler. Everything else — whatever can trap, touch a CSR, reach
// the bus through the slow path, or move a generation epoch — compiles to
// an empty slot that execute() retires.
func compileTraceOp(c *Costs, in *isa.Inst, op *traceOp) {
	*op = traceOp{rd: in.Rd, rs1: in.Rs1, rs2: in.Rs2, imm: in.Imm}
	if t := &opTable[in.Op]; t.sem != nil {
		op.sem, op.cost = t.sem, c.staticCost(t.class)
	} else if op.mem = tcMemOps[in.Op]; op.mem != nil {
		op.cost = c.Base + c.Mem
	}
}

// tcMemOps maps each plain load and store to its micro-TLB handler.
var tcMemOps = [isa.OpCount]memFn{
	isa.OpLB: tcLB, isa.OpLH: tcLH, isa.OpLW: tcLW, isa.OpLD: tcLD,
	isa.OpLBU: tcLBU, isa.OpLHU: tcLHU, isa.OpLWU: tcLWU,
	isa.OpSB: tcSB, isa.OpSH: tcSH, isa.OpSW: tcSW, isa.OpSD: tcSD,
}

// runTrace dispatches up to blen pre-bound operations starting at slot
// idx. It returns how many instructions retired; the caller detects a
// side exit (taken branch/jump) by comparing h.PC against the straight
// line. An abort (empty slot, stale unfillable slot, MMIO, code-page
// store) leaves the aborting instruction unretired for execute(). Each op
// costs exactly one indirect call: table ops retire and then apply their
// semantics; memory handlers retire themselves (tcRetire) once their slot
// resolves.
func (e *fastPath) runTrace(h *Hart, tops *[tracePageSlots]traceOp, idx, blen, pc uint64, bare bool, tidx int) uint64 {
	e.stats.TCEntries++
	// The once-per-entry generation snapshot (see the package comment for
	// why it stays valid across the whole dispatch).
	e.tcMode = h.Mode
	e.tcTLBGen = h.TLB.Gen()
	e.tcPMPGen = h.PMP.Gen()
	e.tcMMUGen = h.mmuGen
	e.tcBare = bare
	e.tcTidx = tidx
	// The profiler deadline, read once: armed and unarmed dispatch then pay
	// the same single compare per op, and only a sample re-reads it.
	e.tcNext = ^uint64(0)
	if h.Prof != nil {
		e.tcNext = h.Prof.Next
	}
	want := pc
	var i uint64
	for i = 0; i < blen; i++ {
		op := &tops[idx+i]
		e.tcPC = want
		if op.sem != nil {
			// tcRetire, inlined by hand (the compiler will not: the
			// profiler hook is over its budget) — this is the hottest
			// path in the simulator.
			if !bare {
				h.TLB.Touch(tidx)
				h.Cycles += h.Cost.TLBHit
			}
			h.PMP.NoteCheck()
			if h.Cycles >= e.tcNext {
				e.tcSample(h)
			}
			h.Instret++
			h.Cycles += op.cost
			if op.sem(h, op) {
				h.Cycles += h.Cost.Branch
			}
		} else if op.mem == nil {
			break
		} else if !op.mem(h, e, op) {
			e.stats.TCBailouts++
			break
		}
		want += 4
		if h.PC != want {
			i++ // side exit: the op retired, then left the line
			break
		}
	}
	e.stats.TCOps += i
	return i
}

// tcRetire replays the per-instruction state runBatch and Step charge
// before and during execute(): fetch accounting against the page's fetch
// micro-TLB slot (TLB touch + TLBHit cycles unless the translation was
// bare, plus the PMP check count), the profiler hook at the same cycle
// point Step samples it, then retirement (Instret and the
// op's static cost).
func tcRetire(h *Hart, e *fastPath, cost uint64) {
	if !e.tcBare {
		h.TLB.Touch(e.tcTidx)
		h.Cycles += h.Cost.TLBHit
	}
	h.PMP.NoteCheck()
	if h.Cycles >= e.tcNext {
		e.tcSample(h)
	}
	h.Instret++
	h.Cycles += cost
}

// tcSample is the trace tier's profiler hook, kept out of line to keep
// the retire sequence small. It advances the dispatch's deadline copy.
func (e *fastPath) tcSample(h *Hart) {
	h.Prof.Sample(e.tcPC, h.Mode.String(), telemetry.ProfTierTrace, h.Cycles)
	e.tcNext = h.Prof.Next
}

// tcValid is valid() against the entry snapshot instead of the live
// generations — register compares only, no method calls on the hot path.
func (e *fastPath) tcValid(ent *mtlbEntry, vaPage uint64) bool {
	if ent.page == nil || ent.vaPage != vaPage || ent.mode != e.tcMode ||
		ent.mmuGen != e.tcMMUGen || ent.pmpGen != e.tcPMPGen {
		return false
	}
	return ent.bare || ent.tlbGen == e.tcTLBGen
}

// tcRefill re-establishes a data slot mid-trace. fill() is side-effect
// free (TLB.Peek, PMP.Probe), so it cannot move any epoch the entry
// snapshot depends on, and a fresh entry's epochs equal the snapshot
// because nothing in the trace has bumped them since entry.
func (e *fastPath) tcRefill(h *Hart, ent *mtlbEntry, va uint64, acc ptw.Access, write bool) bool {
	if write {
		e.stats.WriteMisses++
	} else {
		e.stats.ReadMisses++
	}
	return e.fill(h, ent, va&^uint64(isa.PageSize-1), acc)
}

// tcReadSlot resolves a load's micro-TLB slot and bytes, or nil to abort
// (page straddle, unfillable slot, MMIO). Resolution only — no accounting:
// the handler retires the fetch side first so the TLB's tick/LRU sequence
// (fetch entry touched, then data entry) matches the slow path bit for
// bit, then replays the data-side hit via hitAccounting on the returned
// entry. The Mem cycles are part of op.cost.
func (e *fastPath) tcReadSlot(h *Hart, va, size uint64) (*mtlbEntry, []byte) {
	off := va & (isa.PageSize - 1)
	if off+size > isa.PageSize {
		return nil, nil
	}
	vaPage := va >> isa.PageShift
	ent := &e.read[vaPage&mtlbMask]
	if !e.tcValid(ent, vaPage) {
		if !e.tcRefill(h, ent, va, ptw.AccessRead, false) {
			return nil, nil
		}
	}
	return ent, ent.page[off:]
}

// tcWriteSlot is tcReadSlot for stores, additionally refusing code pages —
// the slow path's mem.WriteUint owns the decode invalidation those need.
func (e *fastPath) tcWriteSlot(h *Hart, va, size uint64) (*mtlbEntry, []byte) {
	off := va & (isa.PageSize - 1)
	if off+size > isa.PageSize {
		return nil, nil
	}
	vaPage := va >> isa.PageShift
	ent := &e.write[vaPage&mtlbMask]
	if !e.tcValid(ent, vaPage) {
		if !e.tcRefill(h, ent, va, ptw.AccessWrite, true) {
			return nil, nil
		}
	}
	if ent.memGen != e.mem.CodeGen() {
		ent.code = e.mem.IsCodePage(ent.paPage)
		ent.memGen = e.mem.CodeGen()
	}
	if ent.code {
		return nil, nil
	}
	return ent, ent.page[off:]
}

// tcLoad resolves, retires, and accounts one load. Resolution comes first
// so an abort leaves nothing retired; then the fetch side retires
// (tcRetire) before the data-side hit replays, so the TLB's tick/LRU
// sequence — fetch entry touched, then data entry — matches the slow path
// bit for bit.
func (e *fastPath) tcLoad(h *Hart, op *traceOp, size uint64) []byte {
	ent, p := e.tcReadSlot(h, h.X[op.rs1]+uint64(op.imm), size)
	if p == nil {
		return nil
	}
	tcRetire(h, e, op.cost)
	e.hitAccounting(h, ent)
	e.stats.ReadHits++
	return p
}

// tcStore is tcLoad for stores.
func (e *fastPath) tcStore(h *Hart, op *traceOp, size uint64) []byte {
	ent, p := e.tcWriteSlot(h, h.X[op.rs1]+uint64(op.imm), size)
	if p == nil {
		return nil
	}
	tcRetire(h, e, op.cost)
	e.hitAccounting(h, ent)
	e.stats.WriteHits++
	return p
}

// --- Memory handlers -----------------------------------------------------
//
// Each mirrors one execute() load/store with its fields pre-bound. A
// handler must retire completely or return false having changed nothing,
// so it resolves its slot before tcRetire runs.

func tcLB(h *Hart, e *fastPath, op *traceOp) bool {
	p := e.tcLoad(h, op, 1)
	if p == nil {
		return false
	}
	h.SetReg(op.rd, uint64(int64(int8(p[0]))))
	h.PC += 4
	return true
}

func tcLBU(h *Hart, e *fastPath, op *traceOp) bool {
	p := e.tcLoad(h, op, 1)
	if p == nil {
		return false
	}
	h.SetReg(op.rd, uint64(p[0]))
	h.PC += 4
	return true
}

func tcLH(h *Hart, e *fastPath, op *traceOp) bool {
	p := e.tcLoad(h, op, 2)
	if p == nil {
		return false
	}
	h.SetReg(op.rd, uint64(int64(int16(binary.LittleEndian.Uint16(p)))))
	h.PC += 4
	return true
}

func tcLHU(h *Hart, e *fastPath, op *traceOp) bool {
	p := e.tcLoad(h, op, 2)
	if p == nil {
		return false
	}
	h.SetReg(op.rd, uint64(binary.LittleEndian.Uint16(p)))
	h.PC += 4
	return true
}

func tcLW(h *Hart, e *fastPath, op *traceOp) bool {
	p := e.tcLoad(h, op, 4)
	if p == nil {
		return false
	}
	h.SetReg(op.rd, uint64(int64(int32(binary.LittleEndian.Uint32(p)))))
	h.PC += 4
	return true
}

func tcLWU(h *Hart, e *fastPath, op *traceOp) bool {
	p := e.tcLoad(h, op, 4)
	if p == nil {
		return false
	}
	h.SetReg(op.rd, uint64(binary.LittleEndian.Uint32(p)))
	h.PC += 4
	return true
}

func tcLD(h *Hart, e *fastPath, op *traceOp) bool {
	p := e.tcLoad(h, op, 8)
	if p == nil {
		return false
	}
	h.SetReg(op.rd, binary.LittleEndian.Uint64(p))
	h.PC += 4
	return true
}

func tcSB(h *Hart, e *fastPath, op *traceOp) bool {
	p := e.tcStore(h, op, 1)
	if p == nil {
		return false
	}
	p[0] = byte(h.X[op.rs2])
	h.PC += 4
	return true
}

func tcSH(h *Hart, e *fastPath, op *traceOp) bool {
	p := e.tcStore(h, op, 2)
	if p == nil {
		return false
	}
	binary.LittleEndian.PutUint16(p, uint16(h.X[op.rs2]))
	h.PC += 4
	return true
}

func tcSW(h *Hart, e *fastPath, op *traceOp) bool {
	p := e.tcStore(h, op, 4)
	if p == nil {
		return false
	}
	binary.LittleEndian.PutUint32(p, uint32(h.X[op.rs2]))
	h.PC += 4
	return true
}

func tcSD(h *Hart, e *fastPath, op *traceOp) bool {
	p := e.tcStore(h, op, 8)
	if p == nil {
		return false
	}
	binary.LittleEndian.PutUint64(p, h.X[op.rs2])
	h.PC += 4
	return true
}
