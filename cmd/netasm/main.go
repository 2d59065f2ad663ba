// Command netasm assembles, runs, formats and profiles programs written in
// the toy machine's assembly format (see internal/asm for the syntax).
//
// Usage:
//
//	netasm run file.s          execute a program, print the machine state
//	netasm fmt file.s          parse and reprint in canonical form
//	netasm profile file.s      execute and print the path profile
//	netasm dump <benchmark>    emit a synthetic workload as assembly
//	netasm verify file.s       run the static CFG verifier, report issues
//	netasm analyze file.s      run the dataflow analyses, report the facts
//	netasm sample              print a sample program to get started
//
// The -verify flag makes run/fmt/profile/dump gate on the static verifier
// first: the report prints to stderr and error-class issues abort before any
// execution, the same load-time check dynamo applies. The verify and analyze
// subcommands accept a file or a benchmark name; verify exits 1 on
// error-class issues.
//
// analyze prints per-function dataflow facts — proven in-bounds memory
// accesses and statically decided branches — distilled from the range
// analysis in internal/dataflow. No run reads them. With -dot
// it instead emits each function's CFG as Graphviz DOT annotated with
// register range intervals, address bounds proofs, and branch verdicts;
// -fn restricts the DOT output to one function.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"netpath/internal/asm"
	"netpath/internal/cfg"
	"netpath/internal/dataflow"
	"netpath/internal/isa"
	"netpath/internal/profile"
	"netpath/internal/prog"
	"netpath/internal/vm"
	"netpath/internal/workload"
)

const sample = `; sample: iterative fibonacci — Mem[0] = fib(20)
.mem 8

func main:
    movi r1, 0      ; a
    movi r2, 1      ; b
    movi r3, 0      ; i
loop:
    add r4, r1, r2
    mov r1, r2
    mov r2, r4
    addi r3, r3, 1
    bri.lt r3, 19, loop
    store [r0+0], r2
    halt
`

func main() {
	log.SetFlags(0)
	log.SetPrefix("netasm: ")
	steps := flag.Int64("maxsteps", 500_000_000, "step limit for run/profile (<=0 = unlimited)")
	scale := flag.Float64("scale", 0.05, "workload scale for dump")
	top := flag.Int("top", 5, "top paths to print for profile")
	verify := flag.Bool("verify", false, "run the static CFG verifier before executing; abort on errors")
	dot := flag.Bool("dot", false, "analyze: emit range-annotated DOT instead of the text report")
	fn := flag.String("fn", "", "analyze -dot: restrict output to one function")
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: netasm run|fmt|profile|dump|verify|analyze|sample [file.s | benchmark]")
		os.Exit(2)
	}
	cmd := args[0]
	if cmd == "sample" {
		fmt.Print(sample)
		return
	}
	if len(args) != 2 {
		log.Fatalf("%s wants one argument", cmd)
	}

	switch cmd {
	case "dump":
		b, err := workload.ByName(args[1])
		if err != nil {
			log.Fatal(err)
		}
		p, err := b.Build(*scale)
		if err != nil {
			log.Fatal(err)
		}
		if *verify && !verifyProgram(os.Stderr, p) {
			os.Exit(1)
		}
		fmt.Print(asm.Format(p))
	case "verify":
		p, err := load(args[1], *scale)
		if err != nil {
			log.Fatal(err)
		}
		if !verifyProgram(os.Stdout, p) {
			os.Exit(1)
		}
	case "analyze":
		p, err := load(args[1], *scale)
		if err != nil {
			log.Fatal(err)
		}
		if err := analyze(os.Stdout, p, *dot, *fn); err != nil {
			log.Fatal(err)
		}
	case "run", "fmt", "profile":
		src, err := os.ReadFile(args[1])
		if err != nil {
			log.Fatal(err)
		}
		p, err := asm.Parse(args[1], string(src))
		if err != nil {
			log.Fatal(err)
		}
		if *verify && !verifyProgram(os.Stderr, p) {
			os.Exit(1)
		}
		switch cmd {
		case "fmt":
			fmt.Print(asm.Format(p))
		case "run":
			run(p, *steps)
		case "profile":
			prof(p, *steps, *top)
		}
	default:
		log.Fatalf("unknown command %q", cmd)
	}
}

// load resolves arg as an assembly file when one exists at that path, and
// as a synthetic benchmark name otherwise.
func load(arg string, scale float64) (*prog.Program, error) {
	if src, err := os.ReadFile(arg); err == nil {
		return asm.Parse(arg, string(src))
	}
	b, err := workload.ByName(arg)
	if err != nil {
		return nil, fmt.Errorf("%q is neither a readable file nor a benchmark: %w", arg, err)
	}
	return b.Build(scale)
}

// analyze runs the whole-program range analysis and prints the distilled
// facts per function; with dot it emits range-annotated DOT instead (every
// function, or just fnName when given).
func analyze(w io.Writer, p *prog.Program, dot bool, fnName string) error {
	facts, err := dataflow.Analyze(p)
	if err != nil {
		return err
	}
	if dot {
		emitted := false
		for fi := range p.Funcs {
			if fnName != "" && p.Funcs[fi].Name != fnName {
				continue
			}
			if err := dataflow.WriteDOT(w, facts, fi); err != nil {
				return err
			}
			emitted = true
		}
		if !emitted {
			return fmt.Errorf("program has no function %q", fnName)
		}
		return nil
	}
	proven, total := facts.InBoundsCount()
	decided, branches := facts.DecidedBranchCount()
	fmt.Fprintf(w, "%s: %d instr, %d function(s); bounds proven %d/%d, branches decided %d/%d\n",
		p.Name, p.Len(), len(p.Funcs), proven, total, decided, branches)
	for fi := range p.Funcs {
		f := p.Funcs[fi]
		fp, ft, fd, fb := 0, 0, 0, 0
		for pc := f.Entry; pc < f.End; pc++ {
			switch op := p.Instrs[pc].Op; {
			case op == isa.Load || op == isa.Store:
				ft++
				if facts.InBounds(int32(pc)) {
					fp++
				}
			case op.IsConditional():
				fb++
				if facts.Branch(int32(pc)) != dataflow.BranchUnknown {
					fd++
				}
			}
		}
		fmt.Fprintf(w, "  %-12s [%4d,%4d) bounds %d/%d  decided %d/%d\n",
			f.Name, f.Entry, f.End, fp, ft, fd, fb)
	}
	return nil
}

// verifyProgram prints the static verifier's report to w and reports
// whether the program passed (warnings alone pass; errors fail).
func verifyProgram(w io.Writer, p *prog.Program) bool {
	r := cfg.Verify(p)
	fmt.Fprint(w, r.String())
	if len(r.Issues) == 0 {
		fmt.Fprintln(w) // "verify ok" carries no trailing newline
	}
	return r.Err() == nil
}

func run(p *prog.Program, steps int64) {
	m := vm.New(p)
	err := m.Run(steps)
	if err == vm.ErrStepLimit {
		log.Fatalf("%v — the program did not halt within -maxsteps=%d; raise the limit or pass -maxsteps=0", err, steps)
	} else if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed %d instructions\n", m.Steps)
	fmt.Print("registers:")
	for i, v := range m.Reg {
		if v != 0 {
			fmt.Printf(" r%d=%d", i, v)
		}
	}
	fmt.Println()
	nonzero := 0
	for a, v := range m.Mem {
		if v != 0 && nonzero < 16 {
			fmt.Printf("mem[%d] = %d\n", a, v)
			nonzero++
		}
	}
}

func prof(p *prog.Program, steps int64, top int) {
	pr, err := profile.Collect(p, steps)
	if err != nil {
		log.Fatal(err)
	}
	hs := pr.Hot(0.001)
	fmt.Printf("flow %d, %d distinct paths, %d heads; 0.1%% hot: %d paths, %.1f%% of flow\n",
		pr.Flow, pr.NumPaths(), pr.UniqueHeads(), hs.Count, hs.FlowPct(pr))
	for _, pc := range pr.TopPaths(top) {
		fmt.Printf("  %8d x %s\n", pc.Freq, pr.Paths.Info(pc.ID).Signature())
	}
}
