package hart

import (
	"zion/internal/isa"
	"zion/internal/telemetry"
)

// Step is the reference interpreter: it executes one instruction at PC in
// the hart's current mode and returns the resulting event: EvNone for a
// retired instruction, EvTrap when a trap entry occurred (including
// interrupts detected before the fetch), and EvWFI when the hart idles.
// The trace tier retires through the same opcode table and execute(), so
// it is an accelerator of exactly this function.
func (h *Hart) Step() Event {
	// Interrupts are sampled at instruction boundaries.
	if cause, ok := h.PendingInterrupt(); ok {
		t := h.TakeTrap(trapInfo{cause: cause})
		return Event{Kind: EvTrap, Trap: t}
	}

	raw, aerr := h.Fetch()
	if aerr != nil {
		return Event{Kind: EvTrap, Trap: h.TakeTrap(*aerr)}
	}
	if h.Prof != nil && h.Cycles >= h.Prof.Next {
		h.Prof.Sample(h.PC, h.Mode.String(), telemetry.ProfTierSlow, h.Cycles)
	}
	return h.execute(isa.Decode(raw))
}

// RunBatch executes up to max Step-equivalents back-to-back on the hart's
// trace engine (the slow engine declines at once). Boundary semantics are
// identical to the per-step run loops: the timer comparator is checked
// against h.Cycles, MTIP is cleared while the timer has not fired
// (mirroring tickTimer's else branch), and pending interrupts are sampled
// — but a compiled trace performs those checks once per straight-line run
// instead of once per instruction, under an event-horizon proof
// (superblock.go) that no check inside the run could have fired. A fired timer ends the batch so the caller can
// refresh MTIP and take the interrupt through its normal per-step path.
//
// Returns the number of Step-equivalents performed and, when ok is true,
// the terminating event (trap, WFI) which counts as the final step —
// identical to what the same sequence of per-step calls would produce.
// ok=false means the batch stopped without an event: timer fired,
// micro-TLB miss, budget exhausted, or the guest touched a device (a bus
// access can rearm the hart's own CLINT comparator, making the caller's
// deadline stale). In every ok=false case the caller should run one
// ordinary tick+Step iteration — which re-samples the timer — before
// retrying.
func (h *Hart) RunBatch(deadline uint64, armed bool, max uint64) (uint64, Event, bool) {
	if h.fp == nil {
		return 0, Event{}, false
	}
	// Quantum clamp: no batch may run past the barrier deadline, even if
	// a run loop passed a raw timer deadline without merging it through
	// BatchDeadline. Adaptive quantum sizing (internal/platform) moves
	// QuantumDeadline between epochs, so the clamp is re-derived here on
	// every batch rather than trusted to the caller's sample.
	if h.Yield != nil && (!armed || h.QuantumDeadline < deadline) {
		deadline, armed = h.QuantumDeadline, true
	}
	return h.fp.runBatch(h, deadline, armed, max)
}

// execute retires one decoded instruction: the shared back half of Step
// and of RunBatch. Ops in the opcode table (optable.go) retire
// through their row; the switch below owns everything that can trap or
// touch memory, CSRs or privilege state.
func (h *Hart) execute(in isa.Inst) Event {
	if t := &opTable[in.Op]; t.sem != nil {
		h.Instret++
		h.Cycles += h.Cost.staticCost(t.class)
		// Operands go through per-hart scratch: a stack copy passed to the
		// indirect call would escape to the heap on every instruction.
		o := &h.op
		o.rd, o.rs1, o.rs2, o.imm = in.Rd, in.Rs1, in.Rs2, in.Imm
		if t.sem(h, o) {
			h.Cycles += h.Cost.Branch
		}
		return Event{Kind: EvNone}
	}
	raw := in.Raw
	if in.Op == isa.OpInvalid {
		return h.exception(trapInfo{cause: isa.ExcIllegalInst, tval: uint64(raw)})
	}

	h.Instret++
	h.Cycles += h.Cost.Base
	next := h.PC + 4

	x := &h.X
	rs1 := x[in.Rs1]
	rs2 := x[in.Rs2]

	switch in.Op {
	case isa.OpLB, isa.OpLH, isa.OpLW, isa.OpLD, isa.OpLBU, isa.OpLHU, isa.OpLWU:
		va := rs1 + uint64(in.Imm)
		v, aerr := h.MemAccess(va, in.MemBytes(), false, 0, raw)
		if aerr != nil {
			return h.exception(*aerr)
		}
		switch in.Op {
		case isa.OpLB:
			v = uint64(int64(int8(v)))
		case isa.OpLH:
			v = uint64(int64(int16(v)))
		case isa.OpLW:
			v = uint64(int64(int32(v)))
		}
		h.SetReg(in.Rd, v)

	case isa.OpSB, isa.OpSH, isa.OpSW, isa.OpSD:
		va := rs1 + uint64(in.Imm)
		if _, aerr := h.MemAccess(va, in.MemBytes(), true, rs2, raw); aerr != nil {
			return h.exception(*aerr)
		}

	case isa.OpLRW, isa.OpLRD:
		h.Cycles += h.Cost.Amo - h.Cost.Base
		v, aerr := h.MemAccess(rs1, in.MemBytes(), false, 0, raw)
		if aerr != nil {
			return h.exception(*aerr)
		}
		if in.Op == isa.OpLRW {
			v = sext32(uint32(v))
		}
		h.resValid, h.resAddr = true, rs1
		h.SetReg(in.Rd, v)
	case isa.OpSCW, isa.OpSCD:
		h.Cycles += h.Cost.Amo - h.Cost.Base
		if h.resValid && h.resAddr == rs1 {
			if _, aerr := h.MemAccess(rs1, in.MemBytes(), true, rs2, raw); aerr != nil {
				return h.exception(*aerr)
			}
			h.SetReg(in.Rd, 0)
		} else {
			h.SetReg(in.Rd, 1)
		}
		h.resValid = false

	case isa.OpAMOSWAPW, isa.OpAMOADDW, isa.OpAMOXORW, isa.OpAMOANDW, isa.OpAMOORW,
		isa.OpAMOSWAPD, isa.OpAMOADDD, isa.OpAMOXORD, isa.OpAMOANDD, isa.OpAMOORD:
		h.Cycles += h.Cost.Amo - h.Cost.Base
		old, aerr := h.MemAccess(rs1, in.MemBytes(), false, 0, raw)
		if aerr != nil {
			return h.exception(*aerr)
		}
		var nw uint64
		switch in.Op {
		case isa.OpAMOSWAPW, isa.OpAMOSWAPD:
			nw = rs2
		case isa.OpAMOADDW, isa.OpAMOADDD:
			nw = old + rs2
		case isa.OpAMOXORW, isa.OpAMOXORD:
			nw = old ^ rs2
		case isa.OpAMOANDW, isa.OpAMOANDD:
			nw = old & rs2
		case isa.OpAMOORW, isa.OpAMOORD:
			nw = old | rs2
		}
		if _, aerr := h.MemAccess(rs1, in.MemBytes(), true, nw, raw); aerr != nil {
			return h.exception(*aerr)
		}
		if in.MemBytes() == 4 {
			old = sext32(uint32(old))
		}
		h.SetReg(in.Rd, old)

	case isa.OpCSRRW, isa.OpCSRRS, isa.OpCSRRC, isa.OpCSRRWI, isa.OpCSRRSI, isa.OpCSRRCI:
		h.Cycles += h.Cost.CSRAccess
		if ev, done := h.execCSR(in, rs1); done {
			return ev
		}

	case isa.OpECALL:
		var cause uint64
		switch h.Mode {
		case isa.ModeU:
			cause = isa.ExcEcallU
		case isa.ModeS:
			cause = isa.ExcEcallS
		case isa.ModeVS:
			cause = isa.ExcEcallVS
		case isa.ModeVU:
			cause = isa.ExcEcallU
		case isa.ModeM:
			cause = isa.ExcEcallM
		}
		return h.exception(trapInfo{cause: cause})

	case isa.OpEBREAK:
		return h.exception(trapInfo{cause: isa.ExcBreakpoint, tval: h.PC})

	case isa.OpSRET:
		if h.Mode == isa.ModeU || h.Mode == isa.ModeVU {
			return h.exception(trapInfo{cause: isa.ExcIllegalInst, tval: uint64(raw)})
		}
		if h.Mode == isa.ModeS && h.csr.raw(isa.CSRMstatus)&isa.MstatusTSR != 0 {
			return h.exception(trapInfo{cause: isa.ExcIllegalInst, tval: uint64(raw)})
		}
		h.SRet()
		return Event{Kind: EvNone}

	case isa.OpMRET:
		if h.Mode != isa.ModeM {
			return h.exception(trapInfo{cause: isa.ExcIllegalInst, tval: uint64(raw)})
		}
		h.MRet()
		return Event{Kind: EvNone}

	case isa.OpWFI:
		h.PC = next
		return Event{Kind: EvWFI}

	case isa.OpSFENCEVMA:
		if h.Mode == isa.ModeU || h.Mode == isa.ModeVU {
			return h.exception(trapInfo{cause: isa.ExcIllegalInst, tval: uint64(raw)})
		}
		h.flushSfence(in, rs1, rs2)

	case isa.OpHFENCEVVMA, isa.OpHFENCEGVMA:
		if h.Mode.Virtualized() {
			return h.exception(trapInfo{cause: isa.ExcVirtualInst, tval: uint64(raw)})
		}
		if h.Mode != isa.ModeM && h.Mode != isa.ModeS {
			return h.exception(trapInfo{cause: isa.ExcIllegalInst, tval: uint64(raw)})
		}
		h.Cycles += h.Cost.TLBFlushAll
		h.TLB.FlushAll() // conservative over-flush for hfence

	default:
		return h.exception(trapInfo{cause: isa.ExcIllegalInst, tval: uint64(raw)})
	}

	h.PC = next
	return Event{Kind: EvNone}
}

// exception runs the trap-entry sequence for an exception raised mid-
// instruction (PC still points at the trapping instruction).
func (h *Hart) exception(ti trapInfo) Event {
	return Event{Kind: EvTrap, Trap: h.TakeTrap(ti)}
}

// execCSR handles the Zicsr operations. done=true means a trap was taken.
func (h *Hart) execCSR(in isa.Inst, rs1 uint64) (Event, bool) {
	var src uint64
	if in.Op == isa.OpCSRRWI || in.Op == isa.OpCSRRSI || in.Op == isa.OpCSRRCI {
		src = uint64(in.Imm)
	} else {
		src = rs1
	}

	readNeeded := true
	if (in.Op == isa.OpCSRRW || in.Op == isa.OpCSRRWI) && in.Rd == 0 {
		readNeeded = false
	}
	var old uint64
	if readNeeded {
		v, e := h.readCSR(in.CSR)
		if e != csrOK {
			return h.csrTrap(e, in), true
		}
		old = v
	}

	writeNeeded := true
	var nw uint64
	switch in.Op {
	case isa.OpCSRRW, isa.OpCSRRWI:
		nw = src
	case isa.OpCSRRS, isa.OpCSRRSI:
		nw = old | src
		writeNeeded = in.Rs1 != 0 || in.Op == isa.OpCSRRSI && in.Imm != 0
	case isa.OpCSRRC, isa.OpCSRRCI:
		nw = old &^ src
		writeNeeded = in.Rs1 != 0 || in.Op == isa.OpCSRRCI && in.Imm != 0
	}
	if writeNeeded {
		if e := h.writeCSR(in.CSR, nw); e != csrOK {
			return h.csrTrap(e, in), true
		}
		// satp/vsatp/hgatp writes require address-translation resync.
		switch remap(in.CSR, h.Mode.Virtualized()) {
		case isa.CSRSatp, isa.CSRVsatp, isa.CSRHgatp:
			h.TLB.FlushAll()
			h.Cycles += h.Cost.TLBFlushAll
		}
	}
	h.SetReg(in.Rd, old)
	return Event{}, false
}

func (h *Hart) csrTrap(e csrErr, in isa.Inst) Event {
	cause := uint64(isa.ExcIllegalInst)
	if e == csrVirtual {
		cause = isa.ExcVirtualInst
	}
	return h.exception(trapInfo{cause: cause, tval: uint64(in.Raw)})
}

// flushSfence implements sfence.vma rs1 (va), rs2 (asid).
func (h *Hart) flushSfence(in isa.Inst, va, asid uint64) {
	vmid := uint16(0)
	if h.Mode.Virtualized() {
		vmid = h.vmid()
	}
	switch {
	case in.Rs1 == 0 && in.Rs2 == 0:
		h.TLB.FlushAll()
		h.Cycles += h.Cost.TLBFlushAll
	case in.Rs1 == 0:
		h.TLB.FlushASID(uint16(asid), vmid)
		h.Cycles += h.Cost.TLBFlushAll / 2
	default:
		h.TLB.FlushPage(va, uint16(asid), vmid)
		h.Cycles += h.Cost.TLBFlushAll / 4
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func sext32(v uint32) uint64 { return uint64(int64(int32(v))) }

func mulhu(a, b uint64) uint64 {
	aLo, aHi := a&0xFFFFFFFF, a>>32
	bLo, bHi := b&0xFFFFFFFF, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := aLo*bHi + t&0xFFFFFFFF
	return aHi*bHi + t>>32 + w1>>32
}

func mulh(a, b int64) uint64 {
	neg := (a < 0) != (b < 0)
	ua, ub := uint64(a), uint64(b)
	if a < 0 {
		ua = uint64(-a)
	}
	if b < 0 {
		ub = uint64(-b)
	}
	hi, lo := mulhu(ua, ub), ua*ub
	if neg {
		hi = ^hi
		if lo == 0 {
			hi++
		}
	}
	return hi
}

func mulhsu(a int64, b uint64) uint64 {
	if a >= 0 {
		return mulhu(uint64(a), b)
	}
	hi, lo := mulhu(uint64(-a), b), uint64(-a)*b
	hi = ^hi
	if lo == 0 {
		hi++
	}
	return hi
}

func divS(a, b int64) uint64 {
	switch {
	case b == 0:
		return ^uint64(0)
	case a == -1<<63 && b == -1:
		return uint64(a)
	default:
		return uint64(a / b)
	}
}

func divU(a, b uint64) uint64 {
	if b == 0 {
		return ^uint64(0)
	}
	return a / b
}

func remS(a, b int64) uint64 {
	switch {
	case b == 0:
		return uint64(a)
	case a == -1<<63 && b == -1:
		return 0
	default:
		return uint64(a % b)
	}
}

func remU(a, b uint64) uint64 {
	if b == 0 {
		return a
	}
	return a % b
}
