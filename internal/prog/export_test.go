package prog

import (
	"encoding/json"
	"fmt"

	"netpath/internal/isa"
)

// Memo internals, for the external tests.
const (
	MemoMaxEntries = memoMaxEntries
	MemoMaxWords   = memoMaxWords
)

func (c *Memo[V]) Put(p *Program, v V) { c.put(p, v) }

// State returns the memoized entries, the length of the FIFO order and the
// words the entries retain.
func (c *Memo[V]) State() (m map[*Program]V, order, words int) {
	return c.m, len(c.order), c.words
}

// DecodeCanonical reports whether DecodeJSON's canonical path takes data.
func DecodeCanonical(data []byte) bool {
	_, _, ok := decodeCanonical(data)
	return ok
}

// ReferenceDecodeJSON is DecodeJSON as it was before its canonical path:
// every document through encoding/json. It is FuzzDecodeJSON's oracle, and
// lives in the package because encoding/json's errors name the package of
// the type they decode into.
func ReferenceDecodeJSON(data []byte) (*Program, error) {
	var e progJSON
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("prog: decode: %w", err)
	}
	if e.Schema != EncodeSchema {
		return nil, fmt.Errorf("prog: decode: schema %q, want %q", e.Schema, EncodeSchema)
	}
	if e.Name == "" {
		return nil, fmt.Errorf("prog: decode: empty program name")
	}
	const maxWire = 1 << 20 // instructions/blocks; submissions are tiny, bombs are not
	if len(e.Instrs) > maxWire || len(e.Blocks) > maxWire || len(e.Funcs) > maxWire || len(e.InitMem) > maxWire {
		return nil, fmt.Errorf("prog: decode: program exceeds %d elements", maxWire)
	}
	if e.MemSize > 1<<24 {
		return nil, fmt.Errorf("prog: decode: mem size %d exceeds %d words", e.MemSize, 1<<24)
	}
	p := &Program{
		Name:    e.Name,
		Entry:   e.Entry,
		MemSize: e.MemSize,
		InitMem: e.InitMem,
		Funcs:   e.Funcs,
		Blocks:  e.Blocks,
		Instrs:  make([]isa.Instr, len(e.Instrs)),
	}
	for i, in := range e.Instrs {
		p.Instrs[i] = isa.Instr{
			Op: isa.Op(in.Op), Cond: isa.Cond(in.Cond),
			A: in.A, B: in.B, C: in.C, Imm: in.Imm, Target: in.Target,
		}
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("prog: decode: %w", err)
	}
	p.Freeze()
	return p, nil
}
