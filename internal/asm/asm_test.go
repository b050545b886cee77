package asm

import (
	"strings"
	"testing"

	"rsr/internal/funcsim"
	"rsr/internal/isa"
	"rsr/internal/prog"
	"rsr/internal/trace"
)

// step executes one instruction through the functional simulator's RunBatch
// with a one-element buffer and returns its record.
func step(t *testing.T, s *funcsim.Sim) trace.DynInst {
	t.Helper()
	var buf [1]trace.DynInst
	if _, err := s.RunBatch(buf[:]); err != nil {
		t.Fatal(err)
	}
	return buf[0]
}

func TestParseAndRunLoop(t *testing.T) {
	p, err := Parse("t", `
		# sum 1..10 into r2
		li   r1, 10
		li   r2, 0
	loop:
		add  r2, r2, r1
		addi r1, r1, -1
		bne  r1, r0, loop
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	s := funcsim.New(p)
	for !s.Halted() {
		step(t, s)
	}
	if got := s.Reg(2); got != 55 {
		t.Fatalf("r2 = %d, want 55", got)
	}
}

func TestParseMemoryAndData(t *testing.T) {
	p, err := Parse("t", `
		.word 0x10000000 7
		.word 0x10000008 35
		li r1, 0x10000000
		ld r2, 0(r1)
		ld r3, 8(r1)
		add r4, r2, r3
		st r4, 16(r1)
		ld r5, 16(r1)
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	s := funcsim.New(p)
	for !s.Halted() {
		step(t, s)
	}
	if s.Reg(5) != 42 {
		t.Fatalf("r5 = %d, want 42", s.Reg(5))
	}
}

func TestParseCallRetAndJumpTable(t *testing.T) {
	p, err := Parse("t", `
		.wordlabel 0x10000000 fn
		li  r1, 0x10000000
		ld  r2, 0(r1)
		jr  r2          # indirect through the table
	back:
		halt
	fn:
		li  r9, 99
		jmp back
	`)
	if err != nil {
		t.Fatal(err)
	}
	s := funcsim.New(p)
	for !s.Halted() {
		step(t, s)
	}
	if s.Reg(9) != 99 {
		t.Fatalf("r9 = %d, want 99", s.Reg(9))
	}
}

func TestParseCallReturn(t *testing.T) {
	p, err := Parse("t", `
		call r31, fn
		li   r5, 1
		halt
	fn:
		li   r4, 9
		ret  r31
	`)
	if err != nil {
		t.Fatal(err)
	}
	s := funcsim.New(p)
	var rets int
	for !s.Halted() {
		if d := step(t, s); d.Op == isa.OpRet {
			rets++
		}
	}
	if rets != 1 || s.Reg(4) != 9 || s.Reg(5) != 1 {
		t.Fatalf("call/ret flow wrong: rets=%d r4=%d r5=%d", rets, s.Reg(4), s.Reg(5))
	}
}

func TestParseFPRegisters(t *testing.T) {
	p, err := Parse("t", `
		li f1, 4607182418800017408   # bits of 1.0
		fadd f2, f1, f1
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[1].Rd != isa.FPBase+2 || p.Insts[1].Rs1 != isa.FPBase+1 {
		t.Fatalf("fp registers misparsed: %+v", p.Insts[1])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"bogus r1, r2, r3",
		"add r1, r2",        // arity
		"add r1, r2, r99",   // bad register
		"ld r1, r2",         // bad memory operand
		"beq r1, r2, +32",   // numeric branch targets unsupported
		"jmp 5bad",          // bad label
		".word zzz 1",       // bad address
		"li r1",             // arity
		"5bad: nop\nhalt",   // bad label definition
		"jmp nowhere\nhalt", // undefined label (builder error)
		"add r1, x2, r3",    // register prefix
	}
	for _, src := range cases {
		if _, err := Parse("t", src); err == nil {
			t.Errorf("source %q should fail", src)
		}
	}
}

func TestParseCommentsAndBlankLines(t *testing.T) {
	p, err := Parse("t", "# leading comment\n\n  nop # trailing\n\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 {
		t.Fatalf("len = %d", p.Len())
	}
}

// TestRoundTripThroughDisassembly: assemble, disassemble each instruction
// through isa's String, and re-assemble where syntax permits (non-control),
// checking field equality.
func TestRoundTripThroughDisassembly(t *testing.T) {
	src := `
		li   r1, -77
		addi r2, r1, 5
		andi r3, r2, 255
		shli r4, r3, 3
		shri r5, r4, 2
		add  r6, r5, r1
		mul  r7, r6, r6
		ld   r8, 24(r1)
		st   r8, -8(r1)
		nop
		halt
	`
	p := MustParse("t", src)
	for i, in := range p.Insts {
		if in.Op.IsControl() {
			continue
		}
		text := in.String()
		p2, err := Parse("rt", text+"\nhalt")
		if err != nil {
			t.Fatalf("instruction %d %q did not re-assemble: %v", i, text, err)
		}
		if p2.Insts[0] != in {
			t.Fatalf("round trip changed %q: %+v -> %+v", text, in, p2.Insts[0])
		}
	}
}

func TestEntryIsCodeBase(t *testing.T) {
	p := MustParse("t", "halt")
	if p.Entry != prog.CodeBase {
		t.Fatal("entry must be the code base")
	}
}

func TestParsedProgramWorksWithDynStream(t *testing.T) {
	p := MustParse("t", `
	spin:
		addi r1, r1, 1
		jmp spin
	`)
	s := funcsim.New(p)
	var n int
	s.RunBatches(100, make([]trace.DynInst, 16), func(ds []trace.DynInst) { n += len(ds) })
	if n != 100 {
		t.Fatalf("ran %d", n)
	}
}

func TestErrorMessagesCarryLineNumbers(t *testing.T) {
	_, err := Parse("t", "nop\nnop\nbogus r1\nhalt")
	if err == nil || !strings.Contains(err.Error(), "asm:3") {
		t.Fatalf("error should name line 3: %v", err)
	}
}
