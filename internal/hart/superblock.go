package hart

import (
	"zion/internal/isa"
	"zion/internal/ptw"
	"zion/internal/telemetry"
)

// Superblocks: straight-line runs of decoded instructions that the
// compiled trace (trace.go) dispatches without re-sampling the timer or
// PendingInterrupt between them, under an event-horizon proof that no
// per-instruction boundary check could have fired earlier.
//
// The proof, spelled out:
//
//  1. PendingInterrupt's inputs (mip, hvip, mie, hie, mideleg, hideleg,
//     mstatus, vsstatus, Mode) are constant across a trace dispatch.
//     The only instructions that can change them — CSR accesses, ecall/
//     ebreak, sret/mret, wfi, fences of translation state — compile to
//     empty slots, which stop the trace. Cross-hart mutations (IPIs,
//     shootdowns) are deferred to quantum barriers by the parallel
//     engine, which RunBatch's deadline already encodes (it clamps the
//     deadline to the quantum edge).
//  2. The one same-hart loophole is a bus access: interpreted code storing
//     to its own CLINT can rearm mtimecmp or raise msip. Trace handlers
//     never reach the bus; an instruction that does is retired by
//     execute(), which bumps h.asyncGen (memaccess.go), and RunBatch
//     returns to its caller when it moved, forcing a fresh deadline
//     sample.
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
// Bit-identity with the reference interpreter holds by construction: the
// trace handlers replay the exact per-fetch accounting (TLB Touch/tick/
// hit, TLBHit cycles, PMP check count) the slow fetch charges, and every
// instruction they cannot complete retires through the shared execute().
// Runs never span a page, so the fetch micro-TLB entry that admitted the
// run — whole-page exec permission, whole-page PMP verdict, stable
// translation epochs — is the page-span/perm summary for every
// instruction in it.

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
// (non-trapping) mid-run instruction can charge. Trap paths need no
// bound: a trap ends the batch step, so no hoisted boundary check follows
// it. Table ops take their bound from their opcode-table cost class.
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

// runBatch is the engine behind Hart.RunBatch. Each pass of the loop is
// one boundary — deadline check, MTIP clear, interrupt sample, exactly as
// Step performs them — followed by one dispatch: the compiled trace
// retires as much of the superblock at PC as it can, justified by the
// event-horizon proof above. When the trace stops short of the run's end
// without leaving the line (an empty slot, a memory-handler abort, or any
// slot of a demoted page), the instruction it stopped at retires through
// execute(), and control returns to the boundary checks.
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
			dp = e.decodePageLocked(h, ent.paPage, ent.page)
			e.mu.Unlock()
			ent.dp = dp
		}

		idx := (pc & (isa.PageSize - 1)) >> 2
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

		var i uint64
		if dp.tcOps != nil {
			i = e.runTrace(h, dp.tcOps, idx, blen, pc, ent.bare, int(ent.tlbIdx))
			e.stats.FetchHits += i
			n += i
			if e.hist != nil && i > 0 {
				e.lens.Observe(i)
			}
			if i == blen || h.PC != pc+4*i {
				continue // run done or side exit: next boundary
			}
		}

		// The trace stopped at slot idx+i, still inside the run. Handlers
		// move no epoch and never touch the bus or this page (trace.go),
		// so the fetch entry and decoded page that admitted the run still
		// stand for this instruction, and the horizon check covers it.
		if !ent.bare {
			h.TLB.Touch(int(ent.tlbIdx))
			h.Cycles += h.Cost.TLBHit
		}
		h.PMP.NoteCheck()
		if h.Prof != nil && h.Cycles >= h.Prof.Next {
			h.Prof.Sample(h.PC, h.Mode.String(), telemetry.ProfTierTrace, h.Cycles)
		}
		g0 := h.asyncGen
		ev := h.execute(dp.insts[idx+i])
		e.stats.FetchHits++
		n++
		if ev.Kind != EvNone {
			return n, ev, true
		}
		if h.asyncGen != g0 {
			// The instruction touched a device: mtimecmp or pending state
			// may have changed, so the caller's deadline is stale. Hand
			// control back for a fresh timer sample.
			return n, Event{}, false
		}
	}
	return n, Event{}, false
}
