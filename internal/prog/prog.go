// Package prog defines programs for the toy machine: a flat instruction
// array partitioned into functions and basic blocks, plus initial memory
// contents. It also provides a Builder DSL used by the synthetic workload
// generators to assemble programs with symbolic labels.
package prog

import (
	"fmt"
	"sort"

	"netpath/internal/isa"
)

// Func is a contiguous range of instructions [Entry, End) forming a
// procedure. Entry is the call target address.
type Func struct {
	Name  string
	Entry int
	End   int
}

// Block is a basic block: a maximal single-entry straight-line range
// [Start, End). The instruction at End-1 is the block's terminator (always a
// control instruction after Build; fall-through blocks get an explicit
// terminator inserted by the builder).
type Block struct {
	Start int
	End   int
	Func  int // index into Program.Funcs
}

// Program is an executable program image.
type Program struct {
	Name   string
	Instrs []isa.Instr
	Funcs  []Func  // sorted by Entry, non-overlapping, covering Instrs
	Blocks []Block // sorted by Start, non-overlapping, covering Instrs

	// MemSize is the number of memory words the machine must provide.
	MemSize int
	// InitMem holds initial memory contents as (address, value) pairs;
	// unlisted words start at zero.
	InitMem []MemInit

	// Entry is the address execution starts at.
	Entry int

	blockAt     []int32 // address -> block index, built lazily by Freeze
	fingerprint uint64  // content hash, built alongside blockAt
}

// MemInit is one initial memory word.
type MemInit struct {
	Addr  int
	Value int64
}

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.Instrs) }

// Footprint is the program's retained size in words: instructions plus
// initial-memory entries. Caches that pin programs bound themselves by it,
// so a stream of large programs cannot pin unbounded memory.
func (p *Program) Footprint() int { return len(p.Instrs) + len(p.InitMem) }

// Freeze precomputes address-indexed lookup tables. It must be called after
// the program is fully constructed (the Builder does this automatically).
func (p *Program) Freeze() {
	p.blockAt = make([]int32, len(p.Instrs))
	for i := range p.blockAt {
		p.blockAt[i] = -1
	}
	for bi, b := range p.Blocks {
		for a := b.Start; a < b.End; a++ {
			p.blockAt[a] = int32(bi)
		}
	}
	p.fingerprint = p.computeFingerprint()
}

// Fingerprint returns a content hash of the executable image: instruction
// words, entry point, memory size, and initial memory. Profile snapshots
// carry it so a persisted profile can never be restored into a different
// program (same name, different code). Block/function structure is not
// hashed — it is derived metadata over the same instruction words.
func (p *Program) Fingerprint() uint64 {
	if p.blockAt == nil {
		p.Freeze()
	}
	return p.fingerprint
}

func (p *Program) computeFingerprint() uint64 {
	// FNV-1a, word-at-a-time over the fields that define execution.
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(len(p.Instrs)))
	for _, in := range p.Instrs {
		mix(uint64(in.Op) | uint64(in.Cond)<<8 | uint64(in.A)<<16 | uint64(in.B)<<24 | uint64(in.C)<<32)
		mix(uint64(in.Imm))
		mix(uint64(int64(in.Target)))
	}
	mix(uint64(int64(p.Entry)))
	mix(uint64(int64(p.MemSize)))
	mix(uint64(len(p.InitMem)))
	for _, mi := range p.InitMem {
		mix(uint64(int64(mi.Addr)))
		mix(uint64(mi.Value))
	}
	return h
}

// BlockAt returns the index of the block containing address addr, or -1.
func (p *Program) BlockAt(addr int) int {
	if p.blockAt == nil {
		p.Freeze()
	}
	if addr < 0 || addr >= len(p.blockAt) {
		return -1
	}
	return int(p.blockAt[addr])
}

// IsBlockStart reports whether addr begins a basic block. Indirect jumps may
// only target block starts.
func (p *Program) IsBlockStart(addr int) bool {
	bi := p.BlockAt(addr)
	return bi >= 0 && p.Blocks[bi].Start == addr
}

// FuncOf returns the index of the function containing addr, or -1.
func (p *Program) FuncOf(addr int) int {
	bi := p.BlockAt(addr)
	if bi < 0 {
		return -1
	}
	return p.Blocks[bi].Func
}

// FuncByName returns the function with the given name, or nil.
func (p *Program) FuncByName(name string) *Func {
	for i := range p.Funcs {
		if p.Funcs[i].Name == name {
			return &p.Funcs[i]
		}
	}
	return nil
}

// Validate checks structural invariants: every instruction validates, every
// block ends in a control instruction, control appears only at block ends,
// every direct branch target is a block start, functions and blocks tile the
// instruction array, and memory initializers are in range.
func (p *Program) Validate() error {
	if len(p.Instrs) == 0 {
		return fmt.Errorf("prog %q: empty program", p.Name)
	}
	if p.Entry < 0 || p.Entry >= len(p.Instrs) {
		return fmt.Errorf("prog %q: entry %d out of range", p.Name, p.Entry)
	}
	if p.MemSize < 0 {
		return fmt.Errorf("prog %q: negative mem size %d", p.Name, p.MemSize)
	}
	for addr, in := range p.Instrs {
		if err := in.Validate(); err != nil {
			return fmt.Errorf("prog %q @%d: %w", p.Name, addr, err)
		}
	}
	if err := p.validateTiling(); err != nil {
		return err
	}
	for _, b := range p.Blocks {
		term := p.Instrs[b.End-1]
		if !term.Op.IsControl() {
			return fmt.Errorf("prog %q: block @%d ends with non-control %v", p.Name, b.Start, term.Op)
		}
		for a := b.Start; a < b.End-1; a++ {
			if p.Instrs[a].Op.IsControl() {
				return fmt.Errorf("prog %q: control %v mid-block @%d", p.Name, p.Instrs[a].Op, a)
			}
		}
	}
	for addr, in := range p.Instrs {
		switch in.Op {
		case isa.Jmp, isa.Br, isa.BrI, isa.Call:
			t := int(in.Target)
			if !p.IsBlockStart(t) {
				return fmt.Errorf("prog %q @%d: target %d is not a block start", p.Name, addr, t)
			}
			if in.Op == isa.Call {
				fi := p.FuncOf(t)
				if fi < 0 || p.Funcs[fi].Entry != t {
					return fmt.Errorf("prog %q @%d: call target %d is not a function entry", p.Name, addr, t)
				}
			}
		}
		if in.Op.IsConditional() {
			// Fall-through must exist and begin a block.
			if addr+1 >= len(p.Instrs) || !p.IsBlockStart(addr+1) {
				return fmt.Errorf("prog %q @%d: conditional branch without fall-through block", p.Name, addr)
			}
		}
	}
	if !p.IsBlockStart(p.Entry) {
		return fmt.Errorf("prog %q: entry %d is not a block start", p.Name, p.Entry)
	}
	for _, mi := range p.InitMem {
		if mi.Addr < 0 || mi.Addr >= p.MemSize {
			return fmt.Errorf("prog %q: memory init at %d outside mem size %d", p.Name, mi.Addr, p.MemSize)
		}
	}
	return nil
}

func (p *Program) validateTiling() error {
	if !sort.SliceIsSorted(p.Funcs, func(i, j int) bool { return p.Funcs[i].Entry < p.Funcs[j].Entry }) {
		return fmt.Errorf("prog %q: functions not sorted", p.Name)
	}
	pos := 0
	for _, f := range p.Funcs {
		if f.Entry != pos {
			return fmt.Errorf("prog %q: function %q entry %d, want %d (gap or overlap)", p.Name, f.Name, f.Entry, pos)
		}
		if f.End <= f.Entry {
			return fmt.Errorf("prog %q: function %q empty", p.Name, f.Name)
		}
		pos = f.End
	}
	if pos != len(p.Instrs) {
		return fmt.Errorf("prog %q: functions cover %d of %d instructions", p.Name, pos, len(p.Instrs))
	}
	if !sort.SliceIsSorted(p.Blocks, func(i, j int) bool { return p.Blocks[i].Start < p.Blocks[j].Start }) {
		return fmt.Errorf("prog %q: blocks not sorted", p.Name)
	}
	pos = 0
	for i, b := range p.Blocks {
		if b.Start != pos {
			return fmt.Errorf("prog %q: block %d starts at %d, want %d", p.Name, i, b.Start, pos)
		}
		if b.End <= b.Start {
			return fmt.Errorf("prog %q: block %d empty", p.Name, i)
		}
		if b.Func < 0 || b.Func >= len(p.Funcs) {
			return fmt.Errorf("prog %q: block %d has bad func %d", p.Name, i, b.Func)
		}
		f := p.Funcs[b.Func]
		if b.Start < f.Entry || b.End > f.End {
			return fmt.Errorf("prog %q: block %d [%d,%d) outside function %q [%d,%d)", p.Name, i, b.Start, b.End, f.Name, f.Entry, f.End)
		}
		pos = b.End
	}
	if pos != len(p.Instrs) {
		return fmt.Errorf("prog %q: blocks cover %d of %d instructions", p.Name, pos, len(p.Instrs))
	}
	return nil
}

// Disasm renders the program as assembly text with function and block
// markers; used by cmd/pathdump and in debugging.
func (p *Program) Disasm() string {
	var out []byte
	fi := -1
	for addr, in := range p.Instrs {
		if bi := p.BlockAt(addr); bi >= 0 && p.Blocks[bi].Start == addr {
			if p.Blocks[bi].Func != fi {
				fi = p.Blocks[bi].Func
				out = append(out, fmt.Sprintf("func %s:\n", p.Funcs[fi].Name)...)
			}
			out = append(out, fmt.Sprintf(".L%d:\n", addr)...)
		}
		out = append(out, fmt.Sprintf("  %4d  %s\n", addr, in)...)
	}
	return string(out)
}
