package hart

import (
	"zion/internal/isa"
	"zion/internal/ptw"
	"zion/internal/telemetry"
)

// Superblock engine: straight-line runs of decoded instructions dispatched
// without re-sampling the timer or PendingInterrupt between them, under an
// event-horizon proof that no per-instruction boundary check could have
// fired earlier.
//
// The proof, spelled out:
//
//  1. PendingInterrupt's inputs (mip, hvip, mie, hie, mideleg, hideleg,
//     mstatus, vsstatus, Mode) are constant across a straight-line run.
//     The only instructions that can change them — CSR accesses, ecall/
//     ebreak, sret/mret, wfi, fences of translation state — are classified
//     as block boundaries and can only appear as a run's final
//     instruction; a trapping instruction ends the run by returning its
//     event. Cross-hart mutations (IPIs, shootdowns) are deferred to
//     quantum barriers by the parallel engine, which RunBatch's deadline
//     already encodes (BatchDeadline merges the quantum edge).
//  2. The one same-hart loophole is a bus access: interpreted code storing
//     to its own CLINT can rearm mtimecmp or raise msip mid-run. Every bus
//     access bumps h.asyncGen (memaccess.go); the dispatch loop re-checks
//     it after each instruction and RunBatch returns to its caller when it
//     moved, forcing a fresh deadline sample.
//  3. The timer itself fires only when h.Cycles reaches the deadline.
//     sbWorst bounds the cycles every instruction of the run except the
//     last can consume; per-step engines check the deadline before each
//     instruction, so if Cycles+sbWorst < deadline at entry, every one of
//     those hoisted checks would have passed. The run's final instruction
//     may overshoot the deadline — exactly as a single instruction may
//     under per-step execution — and the outer loop catches that at the
//     next boundary. When the bound crosses the deadline the entry is
//     degraded to single-step pacing (HorizonCutoffs) instead.
//
// Bit-identity with the reference interpreter is preserved by
// construction: the shared execute() does all architectural work, and the
// dispatch loop replays the exact per-fetch accounting (TLB Touch/tick/hit, TLBHit cycles, PMP check count) the
// slow path would have produced. Blocks never span a page, so the fetch
// micro-TLB entry that admitted the block — whole-page exec permission,
// whole-page PMP verdict, stable translation epochs — is the page-span/
// perm summary for every instruction in it.

// sbMaxWalkSteps bounds the PTE fetches of one translation, including a
// full two-stage walk where every stage-1 step needs its own stage-2
// resolution (3 levels × (3+1) plus the final stage-2 walk is well under
// 20); 64 is deliberately loose — an over-estimate only costs horizon
// headroom, never correctness.
const sbMaxWalkSteps = 64

// sbBoundary reports whether op terminates a straight-line run: every
// instruction after which the per-step engines could observe changed
// interrupt, translation, or privilege state, plus unconditional control
// transfers (which always leave the line anyway).
func sbBoundary(op isa.Op) bool {
	switch op {
	case isa.OpJAL, isa.OpJALR,
		isa.OpCSRRW, isa.OpCSRRS, isa.OpCSRRC,
		isa.OpCSRRWI, isa.OpCSRRSI, isa.OpCSRRCI,
		isa.OpECALL, isa.OpEBREAK, isa.OpSRET, isa.OpMRET, isa.OpWFI,
		isa.OpSFENCEVMA, isa.OpHFENCEVVMA, isa.OpHFENCEGVMA,
		isa.OpInvalid:
		return true
	}
	return false
}

// sbWorstCycles returns the worst-case simulated cycles one retired
// (non-trapping) mid-block instruction can charge. Trap paths need no
// bound: a trap ends the block, so no hoisted boundary check follows it.
// Table ops take their bound from their opcode-table cost class.
func sbWorstCycles(c *Costs, in *isa.Inst) uint64 {
	if t := &opTable[in.Op]; t.sem != nil {
		return c.worstCost(t.class)
	}
	// One data access, worst case: TLB hit cycles or a full walk, plus the
	// memory cost (the fast path charges TLBHit+Mem; the slow path charges
	// one of TLBHit or Steps*WalkStep, plus Mem).
	mem := c.TLBHit + sbMaxWalkSteps*c.WalkStep + c.Mem
	switch in.Op {
	case isa.OpLRW, isa.OpLRD, isa.OpSCW, isa.OpSCD:
		return c.Amo + mem
	}
	switch {
	case in.IsAMO():
		return c.Amo + 2*mem
	case in.MemBytes() > 0:
		return c.Base + mem
	}
	return c.Base
}

// buildSuperblocks computes the straight-line run length and worst-case
// cycle bound for every slot of a freshly decoded page in one backward
// pass. The cost table is captured at build time; it is set once at hart
// construction and never mutated mid-run.
func (e *fastPath) buildSuperblocks(h *Hart, dp *decodedPage) {
	c := h.Cost
	n := len(dp.insts)
	for i := n - 1; i >= 0; i-- {
		if sbBoundary(dp.insts[i].Op) || i == n-1 {
			dp.sbLen[i] = 1
			dp.sbWorst[i] = 0
			continue
		}
		dp.sbLen[i] = dp.sbLen[i+1] + 1
		// sbWorst excludes the run's final instruction: checks happen
		// before each instruction, so the last one's cycles land after
		// every hoisted check already passed.
		dp.sbWorst[i] = sbWorstCycles(c, &dp.insts[i]) + dp.sbWorst[i+1]
	}
	dp.sbReady.Store(true)
	e.stats.SBBuilds++
}

// runBatch is the engine behind Hart.RunBatch: the outer loop preserves
// the per-boundary contract (deadline check, MTIP clear, interrupt
// sample) and the inner loop dispatches one superblock without them,
// justified by the event-horizon proof above.
func (e *fastPath) runBatch(h *Hart, deadline uint64, armed bool, max uint64) (uint64, Event, bool) {
	var n uint64
	for n < max {
		if armed && h.Cycles >= deadline {
			return n, Event{}, false
		}
		h.ClearPending(isa.IntMTimer)
		if cause, ok := h.PendingInterrupt(); ok {
			return n + 1, Event{Kind: EvTrap, Trap: h.TakeTrap(trapInfo{cause: cause})}, true
		}

		pc := h.PC
		if pc&3 != 0 {
			return n, Event{}, false // misaligned PC: slow path owns the fault
		}
		vaPage := pc >> isa.PageShift
		ent := &e.fetch[vaPage&mtlbMask]
		if !e.valid(h, ent, vaPage) {
			e.stats.FetchMisses++
			if !e.fill(h, ent, pc&^uint64(isa.PageSize-1), ptw.AccessFetch) {
				return n, Event{}, false
			}
		}
		dp := ent.dp
		if dp == nil || !dp.live.Load() {
			e.mu.Lock()
			if e.blacklist[ent.paPage] {
				e.mu.Unlock()
				return n, Event{}, false // write-hot page: decode per fetch instead
			}
			dp = e.decodePageLocked(ent.paPage, ent.page)
			e.mu.Unlock()
			ent.dp = dp
		}

		idx := (pc & (isa.PageSize - 1)) >> 2
		if !dp.sbReady.Load() {
			e.buildSuperblocks(h, dp)
		}
		blen := uint64(dp.sbLen[idx])
		if armed && h.Cycles+dp.sbWorst[idx] >= deadline {
			// Event horizon: a boundary check inside the run could have
			// fired. Pace against the deadline one instruction at a time
			// instead.
			e.stats.HorizonCutoffs++
			blen = 1
		}
		if rem := max - n; blen > rem {
			blen = rem
		}
		if blen > 1 {
			e.stats.SBHits++
		}

		bare := ent.bare
		tgen := ent.tlbGen
		tidx := int(ent.tlbIdx)
		g0 := h.asyncGen
		want := pc
		var i uint64
		traceExit := false
		if h.engine == EngineTrace && blen > 1 {
			// Compiled-trace tier (trace.go): dispatch as much of the run
			// as possible through pre-bound handlers. The table is built
			// lazily per decoded page; a nil table means the page was
			// demoted (invalidation history) and stays on the generic loop.
			if !dp.tcReady.Load() {
				e.compileTraces(h, dp, ent.paPage)
			}
			if tops := dp.tcOps; tops != nil {
				i = e.runTrace(h, tops, idx, blen, pc, bare, tidx)
				want = pc + 4*i
				if e.tcHist != nil && i > 0 {
					e.tcLen.Observe(i)
				}
				// Handlers never touch the bus, the TLB, or this decoded
				// page, so g0/tgen/dp.live are still current: the generic
				// loop below resumes mid-run under the same premises, and
				// its i!=0 re-checks cover everything that follows. A side
				// exit (taken branch/jump) ends the run outright.
				traceExit = h.PC != want
			}
		}
		gstart := i
		for ; !traceExit && i < blen; i++ {
			if i != 0 {
				// Premise re-checks, cheap enough to pay per instruction:
				// a device access may have changed asynchronous-event
				// state, a store may have invalidated this decoded page
				// (self-modifying code inside the executing block), and a
				// data-side walk may have inserted into — and thereby
				// evicted from — the TLB, changing fetch accounting.
				if h.asyncGen != g0 || !dp.live.Load() {
					break
				}
				if !bare && h.TLB.Gen() != tgen {
					break
				}
			}
			// Per-fetch accounting, replayed exactly as the slow fetch
			// charges it.
			if !bare {
				h.TLB.Touch(tidx)
				h.Cycles += h.Cost.TLBHit
			}
			h.PMP.NoteCheck()
			want += 4
			if h.Prof != nil && h.Cycles >= h.Prof.Next {
				h.Prof.Sample(pc+4*i, h.Mode.String(), telemetry.ProfTierBlock, h.Cycles)
			}
			ev := h.execute(dp.insts[idx+i])
			if ev.Kind != EvNone {
				e.stats.FetchHits += i + 1
				return n + i + 1, ev, true
			}
			if h.PC != want {
				i++ // side exit: the instruction retired, then left the line
				break
			}
		}
		if e.sbHist != nil && i > gstart {
			e.sbLen.Observe(i - gstart)
		}
		e.stats.FetchHits += i
		n += i
		if h.asyncGen != g0 {
			// The run touched a device: mtimecmp or pending state may have
			// changed, so the caller's deadline is stale. Hand control
			// back for a fresh timer sample.
			return n, Event{}, false
		}
	}
	return n, Event{}, false
}
