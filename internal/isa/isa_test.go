package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestOpString(t *testing.T) {
	cases := []struct {
		op   Op
		want string
	}{
		{Nop, "nop"}, {MovI, "movi"}, {Add, "add"}, {Br, "br"},
		{JmpInd, "jmpind"}, {CallInd, "callind"}, {Halt, "halt"}, {RemI, "remi"},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.want {
			t.Errorf("Op(%d).String() = %q, want %q", c.op, got, c.want)
		}
	}
	if got := Op(250).String(); !strings.Contains(got, "250") {
		t.Errorf("unknown op string = %q", got)
	}
}

func TestOpValid(t *testing.T) {
	for op := Nop; op < numOps; op++ {
		if !op.Valid() {
			t.Errorf("op %v should be valid", op)
		}
	}
	if Op(numOps).Valid() || Op(255).Valid() {
		t.Error("out-of-range ops reported valid")
	}
}

func TestOpClassification(t *testing.T) {
	control := []Op{Jmp, Br, BrI, JmpInd, Call, CallInd, Ret, Halt}
	isControl := map[Op]bool{}
	for _, op := range control {
		isControl[op] = true
	}
	for op := Nop; op < numOps; op++ {
		if got := op.IsControl(); got != isControl[op] {
			t.Errorf("%v.IsControl() = %v, want %v", op, got, isControl[op])
		}
	}
	if !Br.IsConditional() || !BrI.IsConditional() {
		t.Error("Br/BrI must be conditional")
	}
	if Jmp.IsConditional() || Call.IsConditional() {
		t.Error("Jmp/Call must not be conditional")
	}
	if !JmpInd.IsIndirect() || !CallInd.IsIndirect() {
		t.Error("JmpInd/CallInd must be indirect")
	}
	if Br.IsIndirect() || Ret.IsIndirect() {
		t.Error("Br/Ret must not be indirect")
	}
}

func TestCondEval(t *testing.T) {
	cases := []struct {
		c    Cond
		a, b int64
		want bool
	}{
		{Eq, 3, 3, true}, {Eq, 3, 4, false},
		{Ne, 3, 4, true}, {Ne, 3, 3, false},
		{Lt, -1, 0, true}, {Lt, 0, 0, false},
		{Le, 0, 0, true}, {Le, 1, 0, false},
		{Gt, 1, 0, true}, {Gt, 0, 0, false},
		{Ge, 0, 0, true}, {Ge, -1, 0, false},
	}
	for _, c := range cases {
		if got := c.c.Eval(c.a, c.b); got != c.want {
			t.Errorf("%v.Eval(%d,%d) = %v, want %v", c.c, c.a, c.b, got, c.want)
		}
	}
	if Cond(99).Eval(1, 1) {
		t.Error("invalid cond must evaluate false")
	}
}

func TestCondComplementary(t *testing.T) {
	// Eq/Ne, Lt/Ge, Le/Gt are complementary on every input pair.
	pairs := [][2]Cond{{Eq, Ne}, {Lt, Ge}, {Le, Gt}}
	f := func(a, b int64) bool {
		for _, p := range pairs {
			if p[0].Eval(a, b) == p[1].Eval(a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCondTrichotomy(t *testing.T) {
	f := func(a, b int64) bool {
		lt, eq, gt := Lt.Eval(a, b), Eq.Eval(a, b), Gt.Eval(a, b)
		n := 0
		for _, v := range []bool{lt, eq, gt} {
			if v {
				n++
			}
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInstrValidate(t *testing.T) {
	good := []Instr{
		{Op: Nop},
		{Op: MovI, A: 1, Imm: 42},
		{Op: Add, A: 1, B: 2, C: 3},
		{Op: Br, Cond: Lt, A: 1, B: 2, Target: 10},
		{Op: Load, A: 0, B: 31, Imm: 100},
	}
	for _, in := range good {
		if err := in.Validate(); err != nil {
			t.Errorf("Validate(%v) = %v, want nil", in, err)
		}
	}
	bad := []Instr{
		{Op: Op(200)},
		{Op: Br, Cond: Cond(99), A: 1, B: 2},
		{Op: Add, A: 40, B: 2, C: 3},
		{Op: Add, A: 1, B: 200, C: 3},
		{Op: Add, A: 1, B: 2, C: 99},
	}
	for _, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", in)
		}
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: MovI, A: 3, Imm: -7}, "movi r3, -7"},
		{Instr{Op: Mov, A: 1, B: 2}, "mov r1, r2"},
		{Instr{Op: Add, A: 1, B: 2, C: 3}, "add r1, r2, r3"},
		{Instr{Op: AddI, A: 1, B: 2, Imm: 5}, "addi r1, r2, 5"},
		{Instr{Op: Load, A: 4, B: 5, Imm: 8}, "load r4, [r5+8]"},
		{Instr{Op: Store, A: 4, B: 5, Imm: 8}, "store [r5+8], r4"},
		{Instr{Op: Jmp, Target: 12}, "jmp @12"},
		{Instr{Op: Br, Cond: Ge, A: 1, B: 2, Target: 9}, "br.ge r1, r2, @9"},
		{Instr{Op: BrI, Cond: Lt, A: 1, Imm: 50, Target: 9}, "bri.lt r1, 50, @9"},
		{Instr{Op: JmpInd, A: 7}, "jmpind r7"},
		{Instr{Op: Call, Target: 3}, "call @3"},
		{Instr{Op: CallInd, A: 2}, "callind r2"},
		{Instr{Op: Ret}, "ret"},
		{Instr{Op: Halt}, "halt"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestIsBackward(t *testing.T) {
	cases := []struct {
		pc, target int
		taken      bool
		want       bool
	}{
		// Plain forward/backward taken transfers.
		{10, 5, true, true},
		{10, 11, true, false},
		{10, 100, true, false},
		{100, 10, true, true},
		// Not-taken transfers are never backward, whatever the target.
		{10, 5, false, false},
		{10, 10, false, false},
		{10, 11, false, false},
		// The self-branch tie-break: target == pc is backward (a loop of
		// body length one), by the <= in the definition.
		{10, 10, true, true},
		{0, 0, true, true},
	}
	for _, c := range cases {
		if got := IsBackward(c.pc, c.target, c.taken); got != c.want {
			t.Errorf("IsBackward(%d, %d, %v) = %v, want %v", c.pc, c.target, c.taken, got, c.want)
		}
	}
}

func TestIsBackwardProperties(t *testing.T) {
	f := func(pc, target int16, taken bool) bool {
		got := IsBackward(int(pc), int(target), taken)
		// Never backward when not taken; taken iff target <= pc.
		if !taken {
			return !got
		}
		return got == (int(target) <= int(pc))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKindOf(t *testing.T) {
	cases := []struct {
		op   Op
		kind BranchKind
		ok   bool
	}{
		{Br, KindCond, true}, {BrI, KindCond, true},
		{Jmp, KindJump, true}, {JmpInd, KindIndirect, true},
		{Call, KindCall, true}, {CallInd, KindCallInd, true},
		{Ret, KindReturn, true},
		{Halt, 0, false}, {Add, 0, false}, {Nop, 0, false},
	}
	for _, c := range cases {
		k, ok := KindOf(c.op)
		if ok != c.ok || (ok && k != c.kind) {
			t.Errorf("KindOf(%v) = (%v, %v), want (%v, %v)", c.op, k, ok, c.kind, c.ok)
		}
	}
}

func TestKindString(t *testing.T) {
	for k := KindCond; k < numKinds; k++ {
		if s := k.String(); s == "" || strings.Contains(s, "kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if s := BranchKind(99).String(); !strings.Contains(s, "99") {
		t.Errorf("unknown kind string = %q", s)
	}
}

func TestByNameRoundTrip(t *testing.T) {
	for op := Nop; op < numOps; op++ {
		if got, ok := OpByName(op.String()); !ok || got != op {
			t.Errorf("OpByName(%q) = %v, %v", op.String(), got, ok)
		}
	}
	for c := Eq; c < numConds; c++ {
		if got, ok := CondByName(c.String()); !ok || got != c {
			t.Errorf("CondByName(%q) = %v, %v", c.String(), got, ok)
		}
	}
	for _, bad := range []string{"", "op(5)", "ADD", "cond(9)", "lt "} {
		if _, ok := OpByName(bad); ok {
			t.Errorf("OpByName(%q) succeeded", bad)
		}
		if _, ok := CondByName(bad); ok {
			t.Errorf("CondByName(%q) succeeded", bad)
		}
	}
}

// TestDefUsesInvalid pins the behaviour on malformed instructions: an
// undefined opcode reads and writes nothing, and an out-of-range register
// contributes no Uses bit.
func TestDefUsesInvalid(t *testing.T) {
	bad := Instr{Op: numOps, A: 1, B: 2, C: 3}
	if _, ok := bad.Def(); ok || bad.Uses() != 0 {
		t.Errorf("invalid op: Def ok=%v Uses=%b", ok, bad.Uses())
	}
	if u := (Instr{Op: Add, A: 1, B: 40, C: 3}).Uses(); u != 1<<3 {
		t.Errorf("out-of-range source: Uses = %b, want only r3", u)
	}
}
