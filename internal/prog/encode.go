// JSON encoding of programs: the wire form netpathd accepts alongside
// assembly text. EncodeJSON marshals the exported Program fields verbatim,
// because all trust lives in the decode gate: DecodeJSON re-runs Validate
// on the decoded image, so a hand-crafted (or fuzzed) submission can never
// smuggle a structurally invalid program past the invariants the Builder
// enforces for native construction.
//
// DecodeJSON has two paths with one outcome. A document in the canonical
// form EncodeJSON writes is decoded in one pass without reflection
// (decodeCanonical). Any other document goes to encoding/json, which alone
// decides what else is accepted and the text of every syntax or type
// error: the canonical path never fails, it only declines.
package prog

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"unicode/utf8"

	"netpath/internal/isa"
)

// progJSON is the wire schema (netpath-prog/v1).
type progJSON struct {
	Schema  string      `json:"schema"`
	Name    string      `json:"name"`
	Entry   int         `json:"entry"`
	MemSize int         `json:"mem_size"`
	InitMem []MemInit   `json:"init_mem,omitempty"`
	Funcs   []Func      `json:"funcs"`
	Blocks  []Block     `json:"blocks"`
	Instrs  []instrJSON `json:"instrs"`
}

// instrJSON flattens isa.Instr with stable field names.
type instrJSON struct {
	Op     uint8 `json:"op"`
	Cond   uint8 `json:"cond,omitempty"`
	A      uint8 `json:"a,omitempty"`
	B      uint8 `json:"b,omitempty"`
	C      uint8 `json:"c,omitempty"`
	Imm    int64 `json:"imm,omitempty"`
	Target int32 `json:"target,omitempty"`
}

// EncodeSchema is the schema tag of the JSON program encoding.
const EncodeSchema = "netpath-prog/v1"

// EncodeJSON renders p in the versioned JSON wire form.
func EncodeJSON(p *Program) ([]byte, error) {
	e := progJSON{
		Schema:  EncodeSchema,
		Name:    p.Name,
		Entry:   p.Entry,
		MemSize: p.MemSize,
		InitMem: p.InitMem,
		Funcs:   p.Funcs,
		Blocks:  p.Blocks,
		Instrs:  make([]instrJSON, len(p.Instrs)),
	}
	for i, in := range p.Instrs {
		e.Instrs[i] = instrJSON{
			Op: uint8(in.Op), Cond: uint8(in.Cond),
			A: in.A, B: in.B, C: in.C, Imm: in.Imm, Target: in.Target,
		}
	}
	return json.Marshal(e)
}

// DecodeJSON parses a JSON-encoded program and validates it. Every
// structural invariant Validate enforces for built programs holds for the
// returned program; a submission that fails them is rejected with a
// descriptive error, never a later interpreter fault.
func DecodeJSON(data []byte) (*Program, error) {
	schema, p, ok := decodeCanonical(data)
	if !ok {
		var err error
		if schema, p, err = decodeReflect(data); err != nil {
			return nil, fmt.Errorf("prog: decode: %w", err)
		}
	}
	if schema != EncodeSchema {
		return nil, fmt.Errorf("prog: decode: schema %q, want %q", schema, EncodeSchema)
	}
	if p.Name == "" {
		return nil, fmt.Errorf("prog: decode: empty program name")
	}
	const maxWire = 1 << 20 // instructions/blocks; submissions are tiny, bombs are not
	if len(p.Instrs) > maxWire || len(p.Blocks) > maxWire || len(p.Funcs) > maxWire || len(p.InitMem) > maxWire {
		return nil, fmt.Errorf("prog: decode: program exceeds %d elements", maxWire)
	}
	if p.MemSize > 1<<24 {
		return nil, fmt.Errorf("prog: decode: mem size %d exceeds %d words", p.MemSize, 1<<24)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("prog: decode: %w", err)
	}
	p.Freeze()
	return p, nil
}

// decodeReflect decodes any document with encoding/json, returning its
// schema tag and the program it describes.
func decodeReflect(data []byte) (string, *Program, error) {
	var e progJSON
	if err := json.Unmarshal(data, &e); err != nil {
		return "", nil, err
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
	return e.Schema, p, nil
}

// decodeCanonical decodes data if it is a netpath-prog/v1 document in
// canonical form, returning what decodeReflect would return for it. The
// form is a subset of JSON on which encoding/json's result is plain:
//
//   - member keys exactly as EncodeJSON writes them (no escapes, no case
//     folding), each at most once per object, in any order; no null and
//     no unknown member;
//   - integers -?(0|[1-9][0-9]*) within the field's range, with no sign on
//     an unsigned field (encoding/json's ParseUint rejects even "-0");
//   - strings of valid UTF-8 with no backslash or control byte, which
//     encoding/json would return verbatim;
//   - JSON whitespace anywhere, and nothing else after the document.
//
// ok is false for anything else, and DecodeJSON falls back to
// decodeReflect.
func decodeCanonical(data []byte) (schema string, p *Program, ok bool) {
	d := canonPool.Get().(*canonDecoder)
	d.data, d.pos, d.schema = data, 0, ""
	p = new(Program)
	ok = object(d, p, progMember) && d.end()
	schema = d.schema
	d.data, d.schema = nil, ""
	if cap(d.instrs) > maxPooled || cap(d.funcs) > maxPooled || cap(d.blocks) > maxPooled || cap(d.mem) > maxPooled {
		return schema, p, ok // too large to keep as scratch
	}
	canonPool.Put(d)
	return schema, p, ok
}

// canonDecoder is decodeCanonical's cursor over one document. Arrays are
// decoded into its scratch slices, reused across documents through
// canonPool, and the program gets an exact-length copy of each: the program
// cache retains decoded programs, and spare capacity would be retained
// with them.
type canonDecoder struct {
	data   []byte
	pos    int
	schema string

	instrs []isa.Instr
	funcs  []Func
	blocks []Block
	mem    []MemInit
}

var canonPool = sync.Pool{New: func() any { return new(canonDecoder) }}

// maxPooled is the most elements of each scratch slice a pooled decoder
// keeps, so that one large document does not pin its scratch space.
const maxPooled = 1 << 16

// progMember decodes the value of the top-level member key into p (the
// schema tag into d). It returns the key's bit in the object's set of
// seen keys, or 0 to decline.
func progMember(d *canonDecoder, p *Program, key []byte) uint {
	var ok bool
	var bit uint
	switch string(key) {
	case "schema":
		bit = 1 << 0
		var s []byte
		s, ok = d.str()
		d.schema = string(s)
	case "name":
		bit = 1 << 1
		var s []byte
		s, ok = d.str()
		p.Name = string(s)
	case "entry":
		bit = 1 << 2
		p.Entry, ok = d.int()
	case "mem_size":
		bit = 1 << 3
		p.MemSize, ok = d.int()
	case "init_mem":
		bit = 1 << 4
		d.mem, ok = objects(d, d.mem, memInitMember)
		p.InitMem = exact(d.mem)
	case "funcs":
		bit = 1 << 5
		d.funcs, ok = objects(d, d.funcs, funcMember)
		p.Funcs = exact(d.funcs)
	case "blocks":
		bit = 1 << 6
		d.blocks, ok = objects(d, d.blocks, blockMember)
		p.Blocks = exact(d.blocks)
	case "instrs":
		bit = 1 << 7
		d.instrs, ok = objects(d, d.instrs, instrMember)
		p.Instrs = exact(d.instrs)
	}
	if !ok {
		return 0
	}
	return bit
}

// instrMember, funcMember, blockMember and memInitMember are progMember
// for the elements of the arrays.
func instrMember(d *canonDecoder, in *isa.Instr, key []byte) uint {
	var v int64
	var ok bool
	var bit uint
	switch string(key) {
	case "op":
		bit = 1 << 0
		v, ok = d.integer(0, math.MaxUint8)
		in.Op = isa.Op(v)
	case "cond":
		bit = 1 << 1
		v, ok = d.integer(0, math.MaxUint8)
		in.Cond = isa.Cond(v)
	case "a":
		bit = 1 << 2
		v, ok = d.integer(0, math.MaxUint8)
		in.A = uint8(v)
	case "b":
		bit = 1 << 3
		v, ok = d.integer(0, math.MaxUint8)
		in.B = uint8(v)
	case "c":
		bit = 1 << 4
		v, ok = d.integer(0, math.MaxUint8)
		in.C = uint8(v)
	case "imm":
		bit = 1 << 5
		in.Imm, ok = d.integer(math.MinInt64, math.MaxInt64)
	case "target":
		bit = 1 << 6
		v, ok = d.integer(math.MinInt32, math.MaxInt32)
		in.Target = int32(v)
	}
	if !ok {
		return 0
	}
	return bit
}

func funcMember(d *canonDecoder, f *Func, key []byte) uint {
	var ok bool
	var bit uint
	switch string(key) {
	case "Name":
		bit = 1 << 0
		var s []byte
		s, ok = d.str()
		f.Name = string(s)
	case "Entry":
		bit = 1 << 1
		f.Entry, ok = d.int()
	case "End":
		bit = 1 << 2
		f.End, ok = d.int()
	}
	if !ok {
		return 0
	}
	return bit
}

func blockMember(d *canonDecoder, b *Block, key []byte) uint {
	var ok bool
	var bit uint
	switch string(key) {
	case "Start":
		bit = 1 << 0
		b.Start, ok = d.int()
	case "End":
		bit = 1 << 1
		b.End, ok = d.int()
	case "Func":
		bit = 1 << 2
		b.Func, ok = d.int()
	}
	if !ok {
		return 0
	}
	return bit
}

func memInitMember(d *canonDecoder, m *MemInit, key []byte) uint {
	var ok bool
	var bit uint
	switch string(key) {
	case "Addr":
		bit = 1 << 0
		m.Addr, ok = d.int()
	case "Value":
		bit = 1 << 1
		m.Value, ok = d.integer(math.MinInt64, math.MaxInt64)
	}
	if !ok {
		return 0
	}
	return bit
}

// object decodes an object into v, calling member at each member's value
// with its key. member decodes the value and returns the key's bit, or 0
// to decline; a key seen twice declines too.
func object[T any](d *canonDecoder, v *T, member func(*canonDecoder, *T, []byte) uint) bool {
	if !d.punct('{') {
		return false
	}
	if d.punct('}') {
		return true
	}
	var seen uint
	for {
		key, ok := d.str()
		if !ok || !d.punct(':') {
			return false
		}
		bit := member(d, v, key)
		if bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		if !d.punct(',') {
			return d.punct('}')
		}
	}
}

// objects decodes an array of objects into buf[:0], returning it grown.
func objects[T any](d *canonDecoder, buf []T, member func(*canonDecoder, *T, []byte) uint) ([]T, bool) {
	buf = buf[:0]
	if !d.punct('[') {
		return buf, false
	}
	if d.punct(']') {
		return buf, true
	}
	for {
		var zero T
		buf = append(buf, zero)
		if !object(d, &buf[len(buf)-1], member) {
			return buf, false
		}
		if !d.punct(',') {
			return buf, d.punct(']')
		}
	}
}

// exact returns a copy of s allocated at exactly its length: non-nil even
// when empty, as encoding/json decodes [].
func exact[T any](s []T) []T {
	c := make([]T, len(s))
	copy(c, s)
	return c
}

// punct consumes the structural byte c after any whitespace.
func (d *canonDecoder) punct(c byte) bool {
	for ; d.pos < len(d.data); d.pos++ {
		switch d.data[d.pos] {
		case c:
			d.pos++
			return true
		case ' ', '\t', '\n', '\r':
		default:
			return false
		}
	}
	return false
}

// end reports whether only whitespace is left.
func (d *canonDecoder) end() bool {
	d.ws()
	return d.pos == len(d.data)
}

// ws skips JSON whitespace.
func (d *canonDecoder) ws() {
	for ; d.pos < len(d.data); d.pos++ {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
		default:
			return
		}
	}
}

// str decodes a string and returns its bytes, which alias data: callers
// copy what they keep.
func (d *canonDecoder) str() ([]byte, bool) {
	if !d.punct('"') {
		return nil, false
	}
	ascii := true
	for i := d.pos; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			s := d.data[d.pos:i]
			d.pos = i + 1
			return s, ascii || utf8.Valid(s)
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// int decodes an integer into a field of type int.
func (d *canonDecoder) int() (int, bool) {
	v, ok := d.integer(math.MinInt, math.MaxInt)
	return int(v), ok
}

// integer decodes an integer in [lo, hi]; lo >= 0 marks an unsigned field,
// which takes no sign.
func (d *canonDecoder) integer(lo, hi int64) (int64, bool) {
	d.ws()
	i := d.pos
	neg := i < len(d.data) && d.data[i] == '-'
	if neg {
		if lo >= 0 {
			return 0, false
		}
		i++
	}
	start := i
	var u uint64
	for ; i < len(d.data) && d.data[i]-'0' < 10; i++ {
		u = u*10 + uint64(d.data[i]-'0')
	}
	// Nineteen digits cannot overflow u.
	if n := i - start; n == 0 || n > 19 || n > 1 && d.data[start] == '0' {
		return 0, false
	}
	if u > 1<<63 || u == 1<<63 && !neg {
		return 0, false
	}
	v := int64(u) // -1<<63 when u is 1<<63, which negation leaves alone
	if neg {
		v = -v
	}
	if v < lo || v > hi {
		return 0, false
	}
	d.pos = i
	return v, true
}
