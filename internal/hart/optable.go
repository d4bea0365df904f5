package hart

import "zion/internal/isa"

// The opcode table is the single statement of what every non-trapping,
// non-memory instruction does and what it costs. The reference
// interpreter (execute), the superblock bound (sbWorstCycles) and the
// compiled-trace tier (compileTraceOp) all read it, so an ALU, branch,
// MUL/DIV or FENCE fix cannot land in one engine only.

// opClass is an op's cost class: the surcharge it pays on top of
// Cost.Base when it retires.
type opClass uint8

const (
	classBase   opClass = iota // nothing extra
	classBranch                // +Cost.Branch when control transfers (taken)
	classMul                   // +Cost.Mul
	classDiv                   // +Cost.Div
	classFence                 // +Cost.Fence
)

// staticCost is what a retiring op of class k always pays. A taken
// transfer's Cost.Branch is charged on top, at run time.
func (c *Costs) staticCost(k opClass) uint64 {
	switch k {
	case classMul:
		return c.Base + c.Mul
	case classDiv:
		return c.Base + c.Div
	case classFence:
		return c.Base + c.Fence
	}
	return c.Base
}

// worstCost bounds what a retiring op of class k can charge.
func (c *Costs) worstCost(k opClass) uint64 {
	if k == classBranch {
		return c.Base + c.Branch
	}
	return c.staticCost(k)
}

// opSem applies one table op to the hart — destination register and next
// PC — and reports whether control transferred, which a classBranch op
// pays Cost.Branch for. It reads only the operand fields of o, so the
// interpreter can pass its per-hart scratch and the trace tier its
// compiled slot.
type opSem func(h *Hart, o *traceOp) (taken bool)

// opSpec is one opcode-table row.
type opSpec struct {
	sem   opSem
	class opClass
}

// opTable is indexed by isa.Op; rows with a nil sem (loads, stores,
// atomics, CSR and privileged ops, invalid encodings) are handled by
// execute's own switch.
var opTable = [isa.OpCount]opSpec{
	isa.OpLUI:   {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, uint64(o.imm)) }, classBase},
	isa.OpAUIPC: {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, h.PC+uint64(o.imm)) }, classBase},
	isa.OpJAL: {func(h *Hart, o *traceOp) bool {
		h.SetReg(o.rd, h.PC+4)
		h.PC += uint64(o.imm)
		return true
	}, classBranch},
	isa.OpJALR: {func(h *Hart, o *traceOp) bool {
		t := (h.X[o.rs1] + uint64(o.imm)) &^ 1
		h.SetReg(o.rd, h.PC+4)
		h.PC = t
		return true
	}, classBranch},

	isa.OpBEQ:  {func(h *Hart, o *traceOp) bool { return h.branch(h.X[o.rs1] == h.X[o.rs2], o.imm) }, classBranch},
	isa.OpBNE:  {func(h *Hart, o *traceOp) bool { return h.branch(h.X[o.rs1] != h.X[o.rs2], o.imm) }, classBranch},
	isa.OpBLT:  {func(h *Hart, o *traceOp) bool { return h.branch(int64(h.X[o.rs1]) < int64(h.X[o.rs2]), o.imm) }, classBranch},
	isa.OpBGE:  {func(h *Hart, o *traceOp) bool { return h.branch(int64(h.X[o.rs1]) >= int64(h.X[o.rs2]), o.imm) }, classBranch},
	isa.OpBLTU: {func(h *Hart, o *traceOp) bool { return h.branch(h.X[o.rs1] < h.X[o.rs2], o.imm) }, classBranch},
	isa.OpBGEU: {func(h *Hart, o *traceOp) bool { return h.branch(h.X[o.rs1] >= h.X[o.rs2], o.imm) }, classBranch},

	isa.OpADDI:  {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, h.X[o.rs1]+uint64(o.imm)) }, classBase},
	isa.OpSLTI:  {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, b2u(int64(h.X[o.rs1]) < o.imm)) }, classBase},
	isa.OpSLTIU: {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, b2u(h.X[o.rs1] < uint64(o.imm))) }, classBase},
	isa.OpXORI:  {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, h.X[o.rs1]^uint64(o.imm)) }, classBase},
	isa.OpORI:   {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, h.X[o.rs1]|uint64(o.imm)) }, classBase},
	isa.OpANDI:  {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, h.X[o.rs1]&uint64(o.imm)) }, classBase},
	isa.OpSLLI:  {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, h.X[o.rs1]<<uint(o.imm)) }, classBase},
	isa.OpSRLI:  {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, h.X[o.rs1]>>uint(o.imm)) }, classBase},
	isa.OpSRAI:  {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, uint64(int64(h.X[o.rs1])>>uint(o.imm))) }, classBase},

	isa.OpADD:  {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, h.X[o.rs1]+h.X[o.rs2]) }, classBase},
	isa.OpSUB:  {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, h.X[o.rs1]-h.X[o.rs2]) }, classBase},
	isa.OpSLL:  {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, h.X[o.rs1]<<(h.X[o.rs2]&63)) }, classBase},
	isa.OpSLT:  {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, b2u(int64(h.X[o.rs1]) < int64(h.X[o.rs2]))) }, classBase},
	isa.OpSLTU: {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, b2u(h.X[o.rs1] < h.X[o.rs2])) }, classBase},
	isa.OpXOR:  {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, h.X[o.rs1]^h.X[o.rs2]) }, classBase},
	isa.OpSRL:  {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, h.X[o.rs1]>>(h.X[o.rs2]&63)) }, classBase},
	isa.OpSRA:  {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, uint64(int64(h.X[o.rs1])>>(h.X[o.rs2]&63))) }, classBase},
	isa.OpOR:   {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, h.X[o.rs1]|h.X[o.rs2]) }, classBase},
	isa.OpAND:  {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, h.X[o.rs1]&h.X[o.rs2]) }, classBase},

	isa.OpADDIW: {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, sext32(uint32(h.X[o.rs1])+uint32(o.imm))) }, classBase},
	isa.OpSLLIW: {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, sext32(uint32(h.X[o.rs1])<<uint(o.imm&31))) }, classBase},
	isa.OpSRLIW: {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, sext32(uint32(h.X[o.rs1])>>uint(o.imm&31))) }, classBase},
	isa.OpSRAIW: {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, uint64(int64(int32(h.X[o.rs1])>>uint(o.imm&31)))) }, classBase},
	isa.OpADDW:  {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, sext32(uint32(h.X[o.rs1])+uint32(h.X[o.rs2]))) }, classBase},
	isa.OpSUBW:  {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, sext32(uint32(h.X[o.rs1])-uint32(h.X[o.rs2]))) }, classBase},
	isa.OpSLLW:  {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, sext32(uint32(h.X[o.rs1])<<(h.X[o.rs2]&31))) }, classBase},
	isa.OpSRLW:  {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, sext32(uint32(h.X[o.rs1])>>(h.X[o.rs2]&31))) }, classBase},
	isa.OpSRAW: {func(h *Hart, o *traceOp) bool {
		return h.setRd(o.rd, uint64(int64(int32(h.X[o.rs1])>>(h.X[o.rs2]&31))))
	}, classBase},

	isa.OpMUL:    {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, h.X[o.rs1]*h.X[o.rs2]) }, classMul},
	isa.OpMULH:   {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, mulh(int64(h.X[o.rs1]), int64(h.X[o.rs2]))) }, classMul},
	isa.OpMULHU:  {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, mulhu(h.X[o.rs1], h.X[o.rs2])) }, classMul},
	isa.OpMULHSU: {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, mulhsu(int64(h.X[o.rs1]), h.X[o.rs2])) }, classMul},
	isa.OpMULW:   {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, sext32(uint32(h.X[o.rs1])*uint32(h.X[o.rs2]))) }, classMul},
	isa.OpDIV:    {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, divS(int64(h.X[o.rs1]), int64(h.X[o.rs2]))) }, classDiv},
	isa.OpDIVU:   {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, divU(h.X[o.rs1], h.X[o.rs2])) }, classDiv},
	isa.OpREM:    {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, remS(int64(h.X[o.rs1]), int64(h.X[o.rs2]))) }, classDiv},
	isa.OpREMU:   {func(h *Hart, o *traceOp) bool { return h.setRd(o.rd, remU(h.X[o.rs1], h.X[o.rs2])) }, classDiv},
	isa.OpDIVW: {func(h *Hart, o *traceOp) bool {
		return h.setRd(o.rd, sext32(uint32(divS(int64(int32(h.X[o.rs1])), int64(int32(h.X[o.rs2]))))))
	}, classDiv},
	isa.OpDIVUW: {func(h *Hart, o *traceOp) bool {
		return h.setRd(o.rd, sext32(uint32(divU(uint64(uint32(h.X[o.rs1])), uint64(uint32(h.X[o.rs2]))))))
	}, classDiv},
	isa.OpREMW: {func(h *Hart, o *traceOp) bool {
		return h.setRd(o.rd, sext32(uint32(remS(int64(int32(h.X[o.rs1])), int64(int32(h.X[o.rs2]))))))
	}, classDiv},
	isa.OpREMUW: {func(h *Hart, o *traceOp) bool {
		return h.setRd(o.rd, sext32(uint32(remU(uint64(uint32(h.X[o.rs1])), uint64(uint32(h.X[o.rs2]))))))
	}, classDiv},

	isa.OpFENCE:  {func(h *Hart, o *traceOp) bool { return h.setRd(0, 0) }, classFence},
	isa.OpFENCEI: {func(h *Hart, o *traceOp) bool { return h.setRd(0, 0) }, classFence},
}

// setRd writes rd and falls through to the next instruction: the common
// tail of every non-transfer table op (rd = x0 discards the value).
func (h *Hart) setRd(rd uint8, v uint64) bool {
	h.SetReg(rd, v)
	h.PC += 4
	return false
}

// branch resolves a conditional branch at the hart's PC.
func (h *Hart) branch(taken bool, imm int64) bool {
	if taken {
		h.PC += uint64(imm)
	} else {
		h.PC += 4
	}
	return taken
}
