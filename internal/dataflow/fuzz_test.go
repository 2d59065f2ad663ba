package dataflow

import (
	"testing"

	"netpath/internal/isa"
	"netpath/internal/randprog"
	"netpath/internal/vm"
)

// FuzzValidateSuperblock is the differential check on the validator itself:
// for random programs and random trace windows, compile a superblock and run
// it through the validator. An accepted block
// must be architecturally equivalent to stepping the interpreter — same
// registers, PC, step count, memory, and fault behavior — from the exact
// state the trace was recorded at. A rejection is allowed (the validator is
// deliberately conservative), but it must be a clean error, never a panic.
//
// This is the property the validator rests on: ValidateEmits only
// protects production if "validator accepts" really implies "translation is
// correct". The seeded-miscompile unit tests check the reject direction;
// this fuzzer hammers the accept direction.
func FuzzValidateSuperblock(f *testing.F) {
	for s := int64(0); s < 8; s++ {
		f.Add(s, uint16(s*7), uint8(10+s))
	}
	f.Fuzz(func(t *testing.T, seed int64, start uint16, n uint8) {
		p, err := randprog.Generate(seed, randprog.Options{})
		if err != nil {
			t.Skip()
		}

		// Walk the interpreter to the window start, then record the trace.
		rec := vm.New(p)
		for i := 0; i < int(start); i++ {
			if rec.Halted {
				t.Skip()
			}
			if err := rec.Step(); err != nil {
				t.Skip() // generator programs may fault; nothing to validate
			}
		}
		prefix := rec.Steps
		want := 2 + int(n)%32
		var spec []vm.SBStep
		for len(spec) < want && !rec.Halted {
			pc := rec.PC
			in := rec.Prog.Instrs[pc]
			if in.Op == isa.Halt {
				break
			}
			if err := rec.Step(); err != nil {
				break // a faulting tail still leaves a valid recorded prefix
			}
			spec = append(spec, vm.SBStep{In: in, PC: int32(pc), Next: int32(rec.PC)})
		}
		if len(spec) < 2 {
			t.Skip()
		}

		sb, _, err := vm.CompileSuperblock(spec, p.Len())
		if err != nil {
			t.Skip() // compiler refusal (too short, unsupported op) is allowed
		}
		if err := ValidateSuperblock(p, spec, sb); err != nil {
			t.Skip() // conservative rejection is allowed; panics are not
		}

		// Accepted: replay the prefix on two fresh machines and compare the
		// superblock run against pure interpretation.
		m, ref := vm.New(p), vm.New(p)
		for m.Steps < prefix {
			if err := m.Step(); err != nil {
				t.Fatalf("seed %d: prefix replay diverged: %v", seed, err)
			}
		}
		if !sb.GuardsPass(m) {
			// The entry state is the recording state, so every hoisted guard
			// held by construction; a failure means the compiler hoisted a
			// condition that did not hold and the validator missed it.
			t.Fatalf("seed %d start %d: entry guards fail at the recording state", seed, start)
		}
		x := m.RunSuperblock(sb)
		var refErr error
		for ref.Steps < m.Steps {
			if refErr = ref.Step(); refErr != nil {
				break
			}
		}
		if (x.Err == nil) != (refErr == nil) || (x.Err != nil && x.Err.Error() != refErr.Error()) {
			t.Fatalf("seed %d: fault mismatch: superblock %v, interpreter %v", seed, x.Err, refErr)
		}
		if m.Steps != ref.Steps || m.PC != ref.PC || m.Halted != ref.Halted {
			t.Fatalf("seed %d: control state diverged: steps %d/%d pc %d/%d halted %v/%v",
				seed, m.Steps, ref.Steps, m.PC, ref.PC, m.Halted, ref.Halted)
		}
		if m.Reg != ref.Reg {
			t.Fatalf("seed %d: registers diverged:\n sb  %v\n ref %v", seed, m.Reg, ref.Reg)
		}
		for i := range m.Mem {
			if m.Mem[i] != ref.Mem[i] {
				t.Fatalf("seed %d: Mem[%d] = %d, interpreter has %d", seed, i, m.Mem[i], ref.Mem[i])
			}
		}
	})
}
