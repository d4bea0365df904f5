package isa

import "fmt"

// Op identifies a decoded instruction's operation.
type Op uint16

// Operations implemented by the simulator: RV64I, M, A, Zicsr and the
// privileged instructions needed by a hypervisor-capable platform.
const (
	OpInvalid Op = iota

	// RV32I/RV64I base.
	OpLUI
	OpAUIPC
	OpJAL
	OpJALR
	OpBEQ
	OpBNE
	OpBLT
	OpBGE
	OpBLTU
	OpBGEU
	OpLB
	OpLH
	OpLW
	OpLD
	OpLBU
	OpLHU
	OpLWU
	OpSB
	OpSH
	OpSW
	OpSD
	OpADDI
	OpSLTI
	OpSLTIU
	OpXORI
	OpORI
	OpANDI
	OpSLLI
	OpSRLI
	OpSRAI
	OpADD
	OpSUB
	OpSLL
	OpSLT
	OpSLTU
	OpXOR
	OpSRL
	OpSRA
	OpOR
	OpAND
	OpADDIW
	OpSLLIW
	OpSRLIW
	OpSRAIW
	OpADDW
	OpSUBW
	OpSLLW
	OpSRLW
	OpSRAW
	OpFENCE
	OpFENCEI

	// M extension.
	OpMUL
	OpMULH
	OpMULHSU
	OpMULHU
	OpDIV
	OpDIVU
	OpREM
	OpREMU
	OpMULW
	OpDIVW
	OpDIVUW
	OpREMW
	OpREMUW

	// A extension (subset: LR/SC and AMOs, word and double).
	OpLRW
	OpSCW
	OpLRD
	OpSCD
	OpAMOSWAPW
	OpAMOADDW
	OpAMOXORW
	OpAMOANDW
	OpAMOORW
	OpAMOSWAPD
	OpAMOADDD
	OpAMOXORD
	OpAMOANDD
	OpAMOORD

	// Zicsr.
	OpCSRRW
	OpCSRRS
	OpCSRRC
	OpCSRRWI
	OpCSRRSI
	OpCSRRCI

	// Privileged.
	OpECALL
	OpEBREAK
	OpSRET
	OpMRET
	OpWFI
	OpSFENCEVMA
	OpHFENCEVVMA
	OpHFENCEGVMA

	// OpCount is one past the last operation: the length of tables
	// indexed by Op.
	OpCount
)

var opNames = map[Op]string{
	OpLUI: "lui", OpAUIPC: "auipc", OpJAL: "jal", OpJALR: "jalr",
	OpBEQ: "beq", OpBNE: "bne", OpBLT: "blt", OpBGE: "bge", OpBLTU: "bltu", OpBGEU: "bgeu",
	OpLB: "lb", OpLH: "lh", OpLW: "lw", OpLD: "ld", OpLBU: "lbu", OpLHU: "lhu", OpLWU: "lwu",
	OpSB: "sb", OpSH: "sh", OpSW: "sw", OpSD: "sd",
	OpADDI: "addi", OpSLTI: "slti", OpSLTIU: "sltiu", OpXORI: "xori", OpORI: "ori", OpANDI: "andi",
	OpSLLI: "slli", OpSRLI: "srli", OpSRAI: "srai",
	OpADD: "add", OpSUB: "sub", OpSLL: "sll", OpSLT: "slt", OpSLTU: "sltu",
	OpXOR: "xor", OpSRL: "srl", OpSRA: "sra", OpOR: "or", OpAND: "and",
	OpADDIW: "addiw", OpSLLIW: "slliw", OpSRLIW: "srliw", OpSRAIW: "sraiw",
	OpADDW: "addw", OpSUBW: "subw", OpSLLW: "sllw", OpSRLW: "srlw", OpSRAW: "sraw",
	OpFENCE: "fence", OpFENCEI: "fence.i",
	OpMUL: "mul", OpMULH: "mulh", OpMULHSU: "mulhsu", OpMULHU: "mulhu",
	OpDIV: "div", OpDIVU: "divu", OpREM: "rem", OpREMU: "remu",
	OpMULW: "mulw", OpDIVW: "divw", OpDIVUW: "divuw", OpREMW: "remw", OpREMUW: "remuw",
	OpLRW: "lr.w", OpSCW: "sc.w", OpLRD: "lr.d", OpSCD: "sc.d",
	OpAMOSWAPW: "amoswap.w", OpAMOADDW: "amoadd.w", OpAMOXORW: "amoxor.w",
	OpAMOANDW: "amoand.w", OpAMOORW: "amoor.w",
	OpAMOSWAPD: "amoswap.d", OpAMOADDD: "amoadd.d", OpAMOXORD: "amoxor.d",
	OpAMOANDD: "amoand.d", OpAMOORD: "amoor.d",
	OpCSRRW: "csrrw", OpCSRRS: "csrrs", OpCSRRC: "csrrc",
	OpCSRRWI: "csrrwi", OpCSRRSI: "csrrsi", OpCSRRCI: "csrrci",
	OpECALL: "ecall", OpEBREAK: "ebreak", OpSRET: "sret", OpMRET: "mret", OpWFI: "wfi",
	OpSFENCEVMA: "sfence.vma", OpHFENCEVVMA: "hfence.vvma", OpHFENCEGVMA: "hfence.gvma",
}

// String implements fmt.Stringer.
func (op Op) String() string {
	if n, ok := opNames[op]; ok {
		return n
	}
	return fmt.Sprintf("op(%d)", uint16(op))
}

// Inst is a decoded instruction. Imm is sign-extended where the format
// calls for it; CSR holds the 12-bit CSR address for Zicsr operations.
type Inst struct {
	Op  Op
	Rd  uint8
	Rs1 uint8
	Rs2 uint8
	Imm int64
	CSR uint16
	Raw uint32
}

// IsLoad reports whether the instruction reads data memory.
func (in Inst) IsLoad() bool {
	switch in.Op {
	case OpLB, OpLH, OpLW, OpLD, OpLBU, OpLHU, OpLWU, OpLRW, OpLRD:
		return true
	}
	return false
}

// IsStore reports whether the instruction writes data memory (AMOs count as
// both load and store; they report true here and via IsAMO).
func (in Inst) IsStore() bool {
	switch in.Op {
	case OpSB, OpSH, OpSW, OpSD, OpSCW, OpSCD:
		return true
	}
	return in.IsAMO()
}

// IsAMO reports whether the instruction is a read-modify-write atomic.
func (in Inst) IsAMO() bool {
	switch in.Op {
	case OpAMOSWAPW, OpAMOADDW, OpAMOXORW, OpAMOANDW, OpAMOORW,
		OpAMOSWAPD, OpAMOADDD, OpAMOXORD, OpAMOANDD, OpAMOORD:
		return true
	}
	return false
}

// MemBytes returns the access width in bytes for loads/stores/atomics, or 0.
func (in Inst) MemBytes() int {
	switch in.Op {
	case OpLB, OpLBU, OpSB:
		return 1
	case OpLH, OpLHU, OpSH:
		return 2
	case OpLW, OpLWU, OpSW, OpLRW, OpSCW,
		OpAMOSWAPW, OpAMOADDW, OpAMOXORW, OpAMOANDW, OpAMOORW:
		return 4
	case OpLD, OpSD, OpLRD, OpSCD,
		OpAMOSWAPD, OpAMOADDD, OpAMOXORD, OpAMOANDD, OpAMOORD:
		return 8
	}
	return 0
}

func signExtend(v uint32, bits uint) int64 {
	shift := 64 - bits
	return int64(uint64(v)<<shift) >> shift
}

// Decode decodes a 32-bit RISC-V instruction word. Unknown encodings return
// an Inst with Op == OpInvalid; the hart raises illegal-instruction for them.
func Decode(raw uint32) Inst {
	in := Inst{Raw: raw}
	opcode := raw & 0x7F
	rd := uint8((raw >> 7) & 0x1F)
	rs1 := uint8((raw >> 15) & 0x1F)
	rs2 := uint8((raw >> 20) & 0x1F)
	funct3 := (raw >> 12) & 0x7
	funct7 := (raw >> 25) & 0x7F

	immI := signExtend(raw>>20, 12)
	immS := signExtend(((raw>>25)<<5)|((raw>>7)&0x1F), 12)
	immB := signExtend(
		((raw>>31)&1)<<12|((raw>>7)&1)<<11|((raw>>25)&0x3F)<<5|((raw>>8)&0xF)<<1, 13)
	immU := int64(int32(raw & 0xFFFFF000))
	immJ := signExtend(
		((raw>>31)&1)<<20|((raw>>12)&0xFF)<<12|((raw>>20)&1)<<11|((raw>>21)&0x3FF)<<1, 21)

	in.Rd, in.Rs1, in.Rs2 = rd, rs1, rs2

	switch opcode {
	case 0x37: // LUI
		in.Op, in.Imm = OpLUI, immU
	case 0x17: // AUIPC
		in.Op, in.Imm = OpAUIPC, immU
	case 0x6F: // JAL
		in.Op, in.Imm = OpJAL, immJ
	case 0x67: // JALR
		if funct3 == 0 {
			in.Op, in.Imm = OpJALR, immI
		}
	case 0x63: // branches
		in.Imm = immB
		switch funct3 {
		case 0:
			in.Op = OpBEQ
		case 1:
			in.Op = OpBNE
		case 4:
			in.Op = OpBLT
		case 5:
			in.Op = OpBGE
		case 6:
			in.Op = OpBLTU
		case 7:
			in.Op = OpBGEU
		}
	case 0x03: // loads
		in.Imm = immI
		switch funct3 {
		case 0:
			in.Op = OpLB
		case 1:
			in.Op = OpLH
		case 2:
			in.Op = OpLW
		case 3:
			in.Op = OpLD
		case 4:
			in.Op = OpLBU
		case 5:
			in.Op = OpLHU
		case 6:
			in.Op = OpLWU
		}
	case 0x23: // stores
		in.Imm = immS
		switch funct3 {
		case 0:
			in.Op = OpSB
		case 1:
			in.Op = OpSH
		case 2:
			in.Op = OpSW
		case 3:
			in.Op = OpSD
		}
	case 0x13: // OP-IMM
		in.Imm = immI
		switch funct3 {
		case 0:
			in.Op = OpADDI
		case 2:
			in.Op = OpSLTI
		case 3:
			in.Op = OpSLTIU
		case 4:
			in.Op = OpXORI
		case 6:
			in.Op = OpORI
		case 7:
			in.Op = OpANDI
		case 1:
			if funct7>>1 == 0 { // shamt is 6 bits on RV64
				in.Op, in.Imm = OpSLLI, int64(raw>>20&0x3F)
			}
		case 5:
			switch funct7 >> 1 {
			case 0x00:
				in.Op, in.Imm = OpSRLI, int64(raw>>20&0x3F)
			case 0x10:
				in.Op, in.Imm = OpSRAI, int64(raw>>20&0x3F)
			}
		}
	case 0x1B: // OP-IMM-32
		switch funct3 {
		case 0:
			in.Op, in.Imm = OpADDIW, immI
		case 1:
			if funct7 == 0 {
				in.Op, in.Imm = OpSLLIW, int64(rs2)
			}
		case 5:
			switch funct7 {
			case 0x00:
				in.Op, in.Imm = OpSRLIW, int64(rs2)
			case 0x20:
				in.Op, in.Imm = OpSRAIW, int64(rs2)
			}
		}
	case 0x33: // OP
		switch {
		case funct7 == 0x00:
			switch funct3 {
			case 0:
				in.Op = OpADD
			case 1:
				in.Op = OpSLL
			case 2:
				in.Op = OpSLT
			case 3:
				in.Op = OpSLTU
			case 4:
				in.Op = OpXOR
			case 5:
				in.Op = OpSRL
			case 6:
				in.Op = OpOR
			case 7:
				in.Op = OpAND
			}
		case funct7 == 0x20:
			switch funct3 {
			case 0:
				in.Op = OpSUB
			case 5:
				in.Op = OpSRA
			}
		case funct7 == 0x01: // M
			switch funct3 {
			case 0:
				in.Op = OpMUL
			case 1:
				in.Op = OpMULH
			case 2:
				in.Op = OpMULHSU
			case 3:
				in.Op = OpMULHU
			case 4:
				in.Op = OpDIV
			case 5:
				in.Op = OpDIVU
			case 6:
				in.Op = OpREM
			case 7:
				in.Op = OpREMU
			}
		}
	case 0x3B: // OP-32
		switch {
		case funct7 == 0x00:
			switch funct3 {
			case 0:
				in.Op = OpADDW
			case 1:
				in.Op = OpSLLW
			case 5:
				in.Op = OpSRLW
			}
		case funct7 == 0x20:
			switch funct3 {
			case 0:
				in.Op = OpSUBW
			case 5:
				in.Op = OpSRAW
			}
		case funct7 == 0x01:
			switch funct3 {
			case 0:
				in.Op = OpMULW
			case 4:
				in.Op = OpDIVW
			case 5:
				in.Op = OpDIVUW
			case 6:
				in.Op = OpREMW
			case 7:
				in.Op = OpREMUW
			}
		}
	case 0x2F: // AMO
		funct5 := funct7 >> 2
		if funct3 == 2 || funct3 == 3 {
			word := funct3 == 2
			switch funct5 {
			case 0x02:
				if rs2 == 0 {
					in.Op = pick(word, OpLRW, OpLRD)
				}
			case 0x03:
				in.Op = pick(word, OpSCW, OpSCD)
			case 0x01:
				in.Op = pick(word, OpAMOSWAPW, OpAMOSWAPD)
			case 0x00:
				in.Op = pick(word, OpAMOADDW, OpAMOADDD)
			case 0x04:
				in.Op = pick(word, OpAMOXORW, OpAMOXORD)
			case 0x0C:
				in.Op = pick(word, OpAMOANDW, OpAMOANDD)
			case 0x08:
				in.Op = pick(word, OpAMOORW, OpAMOORD)
			}
		}
	case 0x0F: // FENCE
		switch funct3 {
		case 0:
			in.Op = OpFENCE
		case 1:
			in.Op = OpFENCEI
		}
	case 0x73: // SYSTEM
		csr := uint16(raw >> 20)
		switch funct3 {
		case 0:
			switch {
			case raw == 0x00000073:
				in.Op = OpECALL
			case raw == 0x00100073:
				in.Op = OpEBREAK
			case raw == 0x10200073:
				in.Op = OpSRET
			case raw == 0x30200073:
				in.Op = OpMRET
			case raw == 0x10500073:
				in.Op = OpWFI
			case funct7 == 0x09 && rd == 0:
				in.Op = OpSFENCEVMA
			case funct7 == 0x11 && rd == 0:
				in.Op = OpHFENCEVVMA
			case funct7 == 0x31 && rd == 0:
				in.Op = OpHFENCEGVMA
			}
		case 1:
			in.Op, in.CSR = OpCSRRW, csr
		case 2:
			in.Op, in.CSR = OpCSRRS, csr
		case 3:
			in.Op, in.CSR = OpCSRRC, csr
		case 5:
			in.Op, in.CSR, in.Imm = OpCSRRWI, csr, int64(rs1)
		case 6:
			in.Op, in.CSR, in.Imm = OpCSRRSI, csr, int64(rs1)
		case 7:
			in.Op, in.CSR, in.Imm = OpCSRRCI, csr, int64(rs1)
		}
	}
	return in
}

func pick(cond bool, a, b Op) Op {
	if cond {
		return a
	}
	return b
}
