// Package randprog generates random, always-terminating programs for
// cross-validation testing. Every generated program is structurally valid
// (built through prog.Builder), halts within a bounded number of steps
// (loops are counted, the call graph is acyclic), and exercises the full
// control repertoire: conditional branches driven by seeded data, counted
// loops, weighted indirect switches, direct and indirect calls.
//
// The test suites use it to cross-validate independent implementations:
// every execution tier of the mini-Dynamo against plain interpretation,
// PathProfile's profiling counters against the branch events of a plain
// run, the static analyses against their reference implementations, and
// the assembler round-trip.
package randprog

import (
	"fmt"
	"math/rand"

	"netpath/internal/isa"
	"netpath/internal/prog"
)

// Options bounds the generated program.
type Options struct {
	// MaxFuncs is the maximum number of functions (≥1; default 5).
	MaxFuncs int
	// MaxDepth bounds loop nesting per function (default 3).
	MaxDepth int
	// MaxBody bounds the number of constructs per body (default 6).
	MaxBody int
	// DataWords is the size of the random-data region driving branch
	// outcomes (default 256).
	DataWords int
}

func (o Options) withDefaults() Options {
	if o.MaxFuncs <= 0 {
		o.MaxFuncs = 5
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 3
	}
	if o.MaxBody <= 0 {
		o.MaxBody = 6
	}
	if o.DataWords <= 0 {
		o.DataWords = 256
	}
	return o
}

// Register conventions (disjoint from accumulators r0..r7).
const (
	regCursor = 31
	regVal    = 30
	regIdx    = 29
	regTgt    = 28
	loopBase  = 27 // loop registers 27, 26, 25, ...
)

type rgen struct {
	r       *rand.Rand
	b       *prog.Builder
	opts    Options
	nlabel  int
	scratch int // fixed scratch area for filler memory traffic
	memTop  int
	depth   int
	regBase int // this function's top loop register
}

// Generate builds a random program from the seed.
func Generate(seed int64, opts Options) (*prog.Program, error) {
	opts = opts.withDefaults()
	g := &rgen{
		r:       rand.New(rand.NewSource(seed)),
		b:       prog.NewBuilder(fmt.Sprintf("rand-%d", seed)),
		opts:    opts,
		scratch: opts.DataWords,
		memTop:  opts.DataWords + 16, // 16 scratch words after the data
	}
	for i := 0; i < opts.DataWords; i++ {
		g.b.SetMem(i, int64(g.r.Intn(1000)))
	}

	// Function call targets form a DAG: function i may only call j > i,
	// so the program always terminates. Function 0 is the entry.
	// Each function gets a disjoint loop-register window — the machine has
	// no callee-save, so a callee must not touch its callers' induction
	// registers.
	nf := 1 + g.r.Intn(opts.MaxFuncs)
	if loopBase-nf*opts.MaxDepth < 8 {
		return nil, fmt.Errorf("randprog: %d functions x depth %d exceeds the loop-register window", nf, opts.MaxDepth)
	}
	names := make([]string, nf)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
	}
	for i := 0; i < nf; i++ {
		f := g.b.Func(names[i])
		g.depth = 0
		g.regBase = loopBase - i*opts.MaxDepth
		if i == 0 {
			// The entry always has a main loop, so every generated program
			// executes backward branches and produces a path stream.
			g.loop(f, names[i+1:], 0)
			f.Halt()
		} else {
			g.body(f, names[i+1:], 0)
			f.Ret()
		}
	}
	g.b.SetMemSize(g.memTop)
	return g.b.Build()
}

// MustGenerate is Generate that panics on error. It exists for tests whose
// options are literal in the source (a failure there is programmer error —
// an options combination that cannot fit the register file); runtime
// callers use Generate and handle the error.
func MustGenerate(seed int64, opts Options) *prog.Program {
	p, err := Generate(seed, opts)
	if err != nil {
		panic(err)
	}
	return p
}

func (g *rgen) label(prefix string) string {
	g.nlabel++
	return fmt.Sprintf("%s_%d", prefix, g.nlabel)
}

// fresh loads the next data word into regVal.
func (g *rgen) fresh(f *prog.FuncBuilder) {
	f.AddI(regCursor, regCursor, 1)
	f.AndI(regCursor, regCursor, int64(g.opts.DataWords-1))
	f.Load(regVal, regCursor, 0)
}

func (g *rgen) filler(f *prog.FuncBuilder, n int) {
	for i := 0; i < n; i++ {
		a, b, c := uint8(g.r.Intn(8)), uint8(g.r.Intn(8)), uint8(g.r.Intn(8))
		switch g.r.Intn(6) {
		case 0:
			f.Op3(isa.Add, a, b, c)
		case 1:
			f.Op3(isa.Xor, a, b, c)
		case 2:
			f.Op3(isa.Sub, a, b, c)
		case 3:
			f.MovI(a, int64(g.r.Intn(100)))
		case 4:
			f.AddI(a, b, int64(g.r.Intn(16)))
		case 5:
			// Memory traffic confined to the scratch area (never the data
			// region or the jump tables).
			addr := g.scratch + g.r.Intn(16)
			f.MovI(regIdx, int64(addr))
			if g.r.Intn(2) == 0 {
				f.Store(a, regIdx, 0)
			} else {
				f.Load(a, regIdx, 0)
			}
		}
	}
}

// body emits a random construct sequence. callees is the set of functions
// this body may call (all later in the layout).
func (g *rgen) body(f *prog.FuncBuilder, callees []string, level int) {
	n := 1 + g.r.Intn(g.opts.MaxBody)
	for i := 0; i < n; i++ {
		switch pick := g.r.Intn(10); {
		case pick < 3:
			g.filler(f, 1+g.r.Intn(4))
		case pick < 6:
			g.diamond(f, callees, level)
		case pick < 8 && g.depth < g.opts.MaxDepth:
			g.loop(f, callees, level)
		case pick < 9 && len(callees) > 0:
			if g.r.Intn(2) == 0 {
				f.Call(callees[g.r.Intn(len(callees))])
			} else {
				g.callInd(f, callees)
			}
		default:
			g.switchTable(f)
		}
	}
}

func (g *rgen) diamond(f *prog.FuncBuilder, callees []string, level int) {
	g.fresh(f)
	lThen := g.label("t")
	lJoin := g.label("j")
	f.BrI(isa.Lt, regVal, int64(g.r.Intn(1000)), lThen)
	g.filler(f, 1+g.r.Intn(3))
	if level < 2 && g.r.Intn(3) == 0 && len(callees) > 0 {
		f.Call(callees[g.r.Intn(len(callees))])
	}
	f.Jmp(lJoin)
	f.Label(lThen)
	g.filler(f, 1+g.r.Intn(3))
	f.Label(lJoin)
}

func (g *rgen) loop(f *prog.FuncBuilder, callees []string, level int) {
	reg := uint8(g.regBase - g.depth)
	g.depth++
	top := g.label("l")
	trips := int64(1 + g.r.Intn(12))
	f.MovI(reg, 0)
	f.Label(top)
	if level < 2 {
		g.body(f, callees, level+1)
	} else {
		g.filler(f, 1+g.r.Intn(3))
	}
	f.AddI(reg, reg, 1)
	f.BrI(isa.Lt, reg, trips, top)
	g.depth--
}

func (g *rgen) switchTable(f *prog.FuncBuilder) {
	k := 2 + g.r.Intn(3)
	tbl := g.memTop
	g.memTop += 8
	labels := make([]string, k)
	for i := range labels {
		labels[i] = g.label("c")
	}
	for slot := 0; slot < 8; slot++ {
		g.b.SetMemLabel(tbl+slot, labels[slot%k])
	}
	lJoin := g.label("sj")
	g.fresh(f)
	f.AndI(regIdx, regVal, 7)
	f.AddI(regIdx, regIdx, int64(tbl))
	f.Load(regTgt, regIdx, 0)
	f.JmpInd(regTgt)
	for _, lbl := range labels {
		f.Label(lbl)
		g.filler(f, 1+g.r.Intn(2))
		f.Jmp(lJoin)
	}
	f.Label(lJoin)
}

func (g *rgen) callInd(f *prog.FuncBuilder, callees []string) {
	tbl := g.memTop
	g.memTop += 4
	for slot := 0; slot < 4; slot++ {
		g.b.SetMemLabel(tbl+slot, callees[g.r.Intn(len(callees))])
	}
	g.fresh(f)
	f.AndI(regIdx, regVal, 3)
	f.AddI(regIdx, regIdx, int64(tbl))
	f.Load(regTgt, regIdx, 0)
	f.CallInd(regTgt)
}
