// Package asm provides a textual assembly format for the toy machine:
// a parser that assembles source text into a prog.Program (via the
// prog.Builder, so all structural invariants are enforced), and a formatter
// that renders a program back to parseable source. Format and Parse
// round-trip exactly for builder-produced programs.
//
// Syntax:
//
//	; line comment (also #)
//	.mem 64              ; memory size in words
//	.data 16 = 7         ; initial memory word
//	.dataptr 17 = loop   ; memory word holding a label's address
//	.entry main          ; entry function (default: first function)
//
//	func main:
//	    movi r0, 0
//	loop:
//	    addi r0, r0, 1
//	    bri.lt r0, 10, loop
//	    halt
//
// Instruction mnemonics and operand shapes match isa.Instr.String():
// three-address ALU ops ("add r1, r2, r3"), immediate forms
// ("addi r1, r2, 5"), memory via "load r4, [r5+8]" and "store [r5+8], r4",
// and control transfers naming labels ("jmp loop", "br.ge r1, r2, done",
// "call f", "jmpind r7").
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"netpath/internal/isa"
	"netpath/internal/prog"
)

// Parse assembles source text into a program named name.
func Parse(name, src string) (*prog.Program, error) {
	p := &parser{b: prog.NewBuilder(name)}
	for i, raw := range strings.Split(src, "\n") {
		line := raw
		if idx := strings.IndexAny(line, ";#"); idx >= 0 {
			line = line[:idx]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := p.line(line); err != nil {
			return nil, fmt.Errorf("asm:%d: %w", i+1, err)
		}
	}
	return p.b.Build()
}

type parser struct {
	b *prog.Builder
	f *prog.FuncBuilder
}

func (p *parser) line(line string) error {
	switch {
	case strings.HasPrefix(line, "."):
		return p.directive(line)
	case strings.HasPrefix(line, "func "):
		name := strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(line, "func ")), ":")
		if name == "" {
			return fmt.Errorf("empty function name")
		}
		p.f = p.b.Func(name)
		return nil
	case strings.HasSuffix(line, ":") && !strings.ContainsAny(line, " \t"):
		if p.f == nil {
			return fmt.Errorf("label outside function")
		}
		p.f.Label(strings.TrimSuffix(line, ":"))
		return nil
	default:
		if p.f == nil {
			return fmt.Errorf("instruction outside function")
		}
		return p.instr(line)
	}
}

func (p *parser) directive(line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case ".mem":
		if len(fields) != 2 {
			return fmt.Errorf(".mem wants one argument")
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 {
			return fmt.Errorf("bad .mem size %q", fields[1])
		}
		p.b.SetMemSize(n)
		return nil
	case ".data", ".dataptr":
		// .data ADDR = VALUE | .dataptr ADDR = LABEL
		rest := strings.TrimSpace(strings.TrimPrefix(line, fields[0]))
		parts := strings.SplitN(rest, "=", 2)
		if len(parts) != 2 {
			return fmt.Errorf("%s wants ADDR = VALUE", fields[0])
		}
		addr, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil {
			return fmt.Errorf("bad %s address %q", fields[0], parts[0])
		}
		val := strings.TrimSpace(parts[1])
		if fields[0] == ".data" {
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return fmt.Errorf("bad .data value %q", val)
			}
			p.b.SetMem(addr, v)
		} else {
			p.b.SetMemLabel(addr, val)
		}
		return nil
	case ".entry":
		if len(fields) != 2 {
			return fmt.Errorf(".entry wants a function name")
		}
		p.b.SetEntry(fields[1])
		return nil
	}
	return fmt.Errorf("unknown directive %q", fields[0])
}

// operand splitting: "movi r0, -3" -> mnemonic "movi", ops ["r0","-3"].
func splitOperands(line string) (string, []string) {
	sp := strings.IndexAny(line, " \t")
	if sp < 0 {
		return line, nil
	}
	mn := line[:sp]
	rest := strings.TrimSpace(line[sp:])
	if rest == "" {
		return mn, nil
	}
	parts := strings.Split(rest, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return mn, parts
}

func parseReg(s string) (uint8, error) {
	if len(s) < 2 || s[0] != 'r' {
		return 0, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= isa.NumRegs {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return uint8(n), nil
}

func parseImm(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	return v, nil
}

// parseMem parses "[rB+off]" (off may be negative or omitted).
func parseMem(s string) (uint8, int64, error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	inner := s[1 : len(s)-1]
	// Split at the first +/- after the register.
	cut := -1
	for i := 1; i < len(inner); i++ {
		if inner[i] == '+' || inner[i] == '-' {
			cut = i
			break
		}
	}
	regPart, offPart := inner, "0"
	if cut >= 0 {
		regPart = inner[:cut]
		offPart = inner[cut:]
		offPart = strings.TrimPrefix(offPart, "+")
	}
	b, err := parseReg(strings.TrimSpace(regPart))
	if err != nil {
		return 0, 0, err
	}
	off, err := parseImm(strings.TrimSpace(offPart))
	if err != nil {
		return 0, 0, err
	}
	return b, off, nil
}

func (p *parser) instr(line string) error {
	mn, ops := splitOperands(line)
	cond := isa.Cond(0)
	if dot := strings.IndexByte(mn, '.'); dot >= 0 {
		c, ok := isa.CondByName(mn[dot+1:])
		if !ok {
			return fmt.Errorf("bad condition %q", mn[dot+1:])
		}
		cond = c
		mn = mn[:dot]
	}
	op, ok := isa.OpByName(mn)
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mn)
	}
	want := func(n int) error {
		if len(ops) != n {
			return fmt.Errorf("%s wants %d operands, got %d", mn, n, len(ops))
		}
		return nil
	}
	switch op {
	case isa.Nop:
		if err := want(0); err != nil {
			return err
		}
		p.f.Nop()
	case isa.Halt:
		if err := want(0); err != nil {
			return err
		}
		p.f.Halt()
	case isa.Ret:
		if err := want(0); err != nil {
			return err
		}
		p.f.Ret()
	case isa.MovI:
		if err := want(2); err != nil {
			return err
		}
		a, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		imm, err := parseImm(ops[1])
		if err != nil {
			return err
		}
		p.f.MovI(a, imm)
	case isa.Mov:
		if err := want(2); err != nil {
			return err
		}
		a, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		b, err := parseReg(ops[1])
		if err != nil {
			return err
		}
		p.f.Mov(a, b)
	case isa.Add, isa.Sub, isa.Mul, isa.Div, isa.Rem, isa.And, isa.Or, isa.Xor, isa.Shl, isa.Shr:
		if err := want(3); err != nil {
			return err
		}
		a, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		b, err := parseReg(ops[1])
		if err != nil {
			return err
		}
		c, err := parseReg(ops[2])
		if err != nil {
			return err
		}
		p.f.Op3(op, a, b, c)
	case isa.AddI, isa.MulI, isa.AndI, isa.RemI:
		if err := want(3); err != nil {
			return err
		}
		a, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		b, err := parseReg(ops[1])
		if err != nil {
			return err
		}
		imm, err := parseImm(ops[2])
		if err != nil {
			return err
		}
		p.f.Emit(isa.Instr{Op: op, A: a, B: b, Imm: imm})
	case isa.Load:
		if err := want(2); err != nil {
			return err
		}
		a, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		b, off, err := parseMem(ops[1])
		if err != nil {
			return err
		}
		p.f.Load(a, b, off)
	case isa.Store:
		if err := want(2); err != nil {
			return err
		}
		b, off, err := parseMem(ops[0])
		if err != nil {
			return err
		}
		a, err := parseReg(ops[1])
		if err != nil {
			return err
		}
		p.f.Store(a, b, off)
	case isa.Jmp:
		if err := want(1); err != nil {
			return err
		}
		p.f.Jmp(ops[0])
	case isa.Br:
		if err := want(3); err != nil {
			return err
		}
		a, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		b, err := parseReg(ops[1])
		if err != nil {
			return err
		}
		p.f.Br(cond, a, b, ops[2])
	case isa.BrI:
		if err := want(3); err != nil {
			return err
		}
		a, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		imm, err := parseImm(ops[1])
		if err != nil {
			return err
		}
		p.f.BrI(cond, a, imm, ops[2])
	case isa.JmpInd:
		if err := want(1); err != nil {
			return err
		}
		a, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		p.f.JmpInd(a)
	case isa.Call:
		if err := want(1); err != nil {
			return err
		}
		p.f.Call(ops[0])
	case isa.CallInd:
		if err := want(1); err != nil {
			return err
		}
		a, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		p.f.CallInd(a)
	}
	return nil
}
