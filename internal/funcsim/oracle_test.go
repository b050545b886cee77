package funcsim

import (
	"errors"
	"fmt"
	"math"

	"rsr/internal/isa"
	"rsr/internal/trace"
)

// This file holds the scalar interpreter the batched RunBatch/RunBatches
// family is checked against: TestRunBatchMatchesStep and
// TestRunBatchesMatchesRun require both to produce the identical record
// stream, halt point, fault and architectural state. It is written
// independently of RunBatch (no hoisted locals, no code-slice indexing, a
// guarded write per register update) so that a shared mistake is unlikely.

// errHalted is returned by Step after the program executes a halt.
var errHalted = errors.New("funcsim: program halted")

// setReg sets register r (writes to the zero register are discarded).
func (s *Sim) setReg(r uint8, v uint64) {
	if r != isa.ZeroReg {
		s.regs[r] = v
	}
}

// Step executes one instruction and returns its dynamic record, or
// errHalted once the program has executed a halt. It is the scalar
// reference interpreter: one instruction per call, each register write
// through setReg, every fault a constructed error.
func (s *Sim) Step() (trace.DynInst, error) {
	if s.halted {
		return trace.DynInst{}, errHalted
	}
	idx, ok := s.prog.IndexOf(s.pc)
	if !ok {
		return trace.DynInst{}, fmt.Errorf("funcsim: pc %#x escaped code segment", s.pc)
	}
	in := s.prog.Insts[idx]
	d := trace.DynInst{
		Seq: s.seq, PC: s.pc,
		Op: in.Op, Rd: in.Rd, Rs1: in.Rs1, Rs2: in.Rs2,
	}
	next := s.pc + isa.InstBytes
	rs1 := s.regs[in.Rs1]
	rs2 := s.regs[in.Rs2]

	switch in.Op {
	case isa.OpNop:
	case isa.OpAdd:
		s.setReg(in.Rd, rs1+rs2)
	case isa.OpSub:
		s.setReg(in.Rd, rs1-rs2)
	case isa.OpAddi:
		s.setReg(in.Rd, rs1+uint64(in.Imm))
	case isa.OpLui:
		s.setReg(in.Rd, uint64(in.Imm))
	case isa.OpAnd:
		s.setReg(in.Rd, rs1&rs2)
	case isa.OpOr:
		s.setReg(in.Rd, rs1|rs2)
	case isa.OpXor:
		s.setReg(in.Rd, rs1^rs2)
	case isa.OpShl:
		s.setReg(in.Rd, rs1<<(rs2&63))
	case isa.OpShr:
		s.setReg(in.Rd, rs1>>(rs2&63))
	case isa.OpAndi:
		s.setReg(in.Rd, rs1&uint64(in.Imm))
	case isa.OpShli:
		s.setReg(in.Rd, rs1<<(uint64(in.Imm)&63))
	case isa.OpShri:
		s.setReg(in.Rd, rs1>>(uint64(in.Imm)&63))
	case isa.OpSlt:
		if int64(rs1) < int64(rs2) {
			s.setReg(in.Rd, 1)
		} else {
			s.setReg(in.Rd, 0)
		}
	case isa.OpMul:
		s.setReg(in.Rd, rs1*rs2)
	case isa.OpDiv:
		if rs2 == 0 {
			s.setReg(in.Rd, 0)
		} else {
			s.setReg(in.Rd, uint64(int64(rs1)/int64(rs2)))
		}
	case isa.OpRem:
		if rs2 == 0 {
			s.setReg(in.Rd, 0)
		} else {
			s.setReg(in.Rd, uint64(int64(rs1)%int64(rs2)))
		}
	case isa.OpFAdd:
		s.setReg(in.Rd, math.Float64bits(math.Float64frombits(rs1)+math.Float64frombits(rs2)))
	case isa.OpFMul:
		s.setReg(in.Rd, math.Float64bits(math.Float64frombits(rs1)*math.Float64frombits(rs2)))
	case isa.OpFDiv:
		den := math.Float64frombits(rs2)
		if den == 0 {
			s.setReg(in.Rd, 0)
		} else {
			s.setReg(in.Rd, math.Float64bits(math.Float64frombits(rs1)/den))
		}
	case isa.OpLd:
		addr := rs1 + uint64(in.Imm)
		d.EffAddr = addr
		s.setReg(in.Rd, s.mem.Read(addr))
	case isa.OpSt:
		addr := rs1 + uint64(in.Imm)
		d.EffAddr = addr
		s.mem.Write(addr, rs2)
	case isa.OpBeq:
		if rs1 == rs2 {
			next = s.pc + uint64(in.Imm)
			d.Taken = true
		}
	case isa.OpBne:
		if rs1 != rs2 {
			next = s.pc + uint64(in.Imm)
			d.Taken = true
		}
	case isa.OpBlt:
		if int64(rs1) < int64(rs2) {
			next = s.pc + uint64(in.Imm)
			d.Taken = true
		}
	case isa.OpBge:
		if int64(rs1) >= int64(rs2) {
			next = s.pc + uint64(in.Imm)
			d.Taken = true
		}
	case isa.OpJmp:
		next = s.pc + uint64(in.Imm)
		d.Taken = true
	case isa.OpJr:
		next = rs1
		d.Taken = true
	case isa.OpCall:
		s.setReg(in.Rd, s.pc+isa.InstBytes)
		next = s.pc + uint64(in.Imm)
		d.Taken = true
	case isa.OpRet:
		next = rs1
		d.Taken = true
	case isa.OpHalt:
		s.halted = true
		d.Taken = false
	default:
		return trace.DynInst{}, fmt.Errorf("funcsim: unknown opcode %d at pc %#x", in.Op, s.pc)
	}

	d.NextPC = next
	s.pc = next
	s.seq++
	return d, nil
}

// Run executes up to n instructions, invoking fn for each committed dynamic
// instruction, and reports how many actually executed (fewer only when the
// program halts). The record passed to fn is reused between calls; observers
// that retain it must copy it.
func (s *Sim) Run(n uint64, fn func(*trace.DynInst)) (uint64, error) {
	// One reusable record: taking its address inside the loop would make
	// every iteration's record escape to the heap.
	var d trace.DynInst
	var err error
	var i uint64
	for i = 0; i < n; i++ {
		d, err = s.Step()
		if err != nil {
			if errors.Is(err, errHalted) {
				return i, nil
			}
			return i, err
		}
		if fn != nil {
			fn(&d)
		}
	}
	return i, nil
}
