package prog_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"netpath/internal/prog"
	"netpath/internal/randprog"
	"netpath/internal/vm"
	"netpath/internal/workload"
)

// TestEncodeJSONRoundTrip: encode → decode reproduces a program that runs
// step-for-step identically to the original.
func TestEncodeJSONRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		p := randprog.MustGenerate(seed, randprog.Options{})
		data, err := prog.EncodeJSON(p)
		if err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		q, err := prog.DecodeJSON(data)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if q.Name != p.Name || q.Entry != p.Entry || q.MemSize != p.MemSize ||
			len(q.Instrs) != len(p.Instrs) || len(q.Blocks) != len(p.Blocks) || len(q.Funcs) != len(p.Funcs) {
			t.Fatalf("seed %d: decoded shape differs", seed)
		}
		a, b := vm.New(p), vm.New(q)
		if err := a.Run(0); err != nil {
			t.Fatalf("seed %d: original run: %v", seed, err)
		}
		if err := b.Run(0); err != nil {
			t.Fatalf("seed %d: decoded run: %v", seed, err)
		}
		if a.Steps != b.Steps || a.Reg != b.Reg {
			t.Errorf("seed %d: decoded program diverges (steps %d vs %d)", seed, a.Steps, b.Steps)
		}
	}
}

// rejectCases are malformed wire images and a word their error must name.
var rejectCases = []struct {
	name string
	body string
	want string
}{
	{"garbage", "{", "decode"},
	{"wrong schema", `{"schema":"nope","name":"x"}`, "schema"},
	{"no name", `{"schema":"netpath-prog/v1","entry":0}`, "name"},
	{"empty program", `{"schema":"netpath-prog/v1","name":"x"}`, "empty program"},
	{"negative mem", `{"schema":"netpath-prog/v1","name":"x","mem_size":-1,
		"funcs":[{"Name":"main","Entry":0,"End":1}],
		"blocks":[{"Start":0,"End":1,"Func":0}],
		"instrs":[{"op":26}]}`, "mem size"},
	{"huge mem", `{"schema":"netpath-prog/v1","name":"x","mem_size":99999999999,
		"funcs":[{"Name":"main","Entry":0,"End":1}],
		"blocks":[{"Start":0,"End":1,"Func":0}],
		"instrs":[{"op":26}]}`, "mem size"},
	{"bad tiling", `{"schema":"netpath-prog/v1","name":"x",
		"funcs":[{"Name":"main","Entry":0,"End":2}],
		"blocks":[{"Start":0,"End":1,"Func":0}],
		"instrs":[{"op":26},{"op":26}]}`, "cover"},
}

// TestDecodeJSONRejects: malformed wire images come back as errors, never
// panics and never invalid programs.
func TestDecodeJSONRejects(t *testing.T) {
	for _, tc := range rejectCases {
		_, err := prog.DecodeJSON([]byte(tc.body))
		if err == nil {
			t.Errorf("%s: decode accepted malformed input", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// canonicalDoc is a small valid document in canonical form, with
// whitespace where JSON allows it; fallbackDocs edit it.
const canonicalDoc = ` { "schema" : "netpath-prog/v1", "name":"x","entry":0,"mem_size":4,
	"init_mem":[{"Addr":1,"Value":-5}],
	"funcs":[{"Name":"main","Entry":0,"End":2}],
	"blocks":[{"Start":0,"End":2,"Func":0}],
	"instrs":[{"op":1,"a":3,"imm":-7},{"op":26}]}` + "\r\n\t"

// fallbackDocs are edits of canonicalDoc the canonical path must decline,
// leaving them to encoding/json: some it decodes (to the same or another
// program), the rest it rejects.
var fallbackDocs = []struct{ old, new string }{
	{`"op":1`, `"op":256`},
	{`"op":1`, `"op":-0`},
	{`"op":1`, `"op":1.0`},
	{`"imm":-7`, `"imm":1e2`},
	{`"op":26}`, `"op":26,"target":2147483648}`},
	{`"entry":0`, `"entry":9223372036854775808`},
	{`"entry":0`, `"entry":00`},
	{`"op":1`, `"OP":1`},
	{`"schema"`, `"ſchema"`},
	{`"op":1`, `"\u006fp":1`},
	{`"name":"x"`, `"name":"\u0078"`},
	{`"name":"x"`, "\"name\":\"x\xff\""},
	{`"name":"x"`, "\"name\":\"x\ty\""},
	{`"init_mem":[{"Addr":1,"Value":-5}]`, `"init_mem":null`},
	{`"op":26}`, `"op":26,"a":null}`},
	{`"entry":0`, `"entry":0,"entry":0`},
	{`"op":26}`, `"op":26,"op":26}`},
	{`"End":2}]`, `"End":2,"Tail":0}]`},
	{`"entry":0`, `"entry":0,"extra":0`},
	{`"mem_size":4`, `"mem_size":"4"`},
	{`"name":"x"`, `"name":1`},
	{`"instrs":[`, `"instrs":[null,`},
	{"\r\n\t", "\r\n\t{}"},
}

// TestDecodeJSONCanonicalPath: EncodeJSON's documents take the canonical
// path, and every fallbackDocs edit leaves it.
func TestDecodeJSONCanonicalPath(t *testing.T) {
	if _, err := prog.DecodeJSON([]byte(canonicalDoc)); err != nil {
		t.Fatalf("canonicalDoc: %v", err)
	}
	fresh, bench := servedDocs(t)
	for i, doc := range append(fresh, bench, []byte(canonicalDoc)) {
		if !prog.DecodeCanonical(doc) {
			t.Errorf("document %d declined", i)
		}
	}
	for _, f := range fallbackDocs {
		doc := strings.Replace(canonicalDoc, f.old, f.new, 1)
		if doc == canonicalDoc {
			t.Fatalf("edit %q -> %q does not apply", f.old, f.new)
		}
		if prog.DecodeCanonical([]byte(doc)) {
			t.Errorf("edit %q -> %q taken", f.old, f.new)
		}
	}
}

// TestDecodeJSONConcurrent: decoders share pooled scratch space, yet
// documents decoded at once come out as they do one at a time.
func TestDecodeJSONConcurrent(t *testing.T) {
	fresh, _ := servedDocs(t)
	want := make([]*prog.Program, len(fresh))
	for i, doc := range fresh {
		p, err := prog.DecodeJSON(doc)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range fresh {
				i := (i + g*len(fresh)/4) % len(fresh)
				p, err := prog.DecodeJSON(fresh[i])
				if err != nil || !reflect.DeepEqual(p, want[i]) {
					t.Errorf("goroutine %d, document %d: decodes differently (%v)", g, i, err)
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzDecodeJSON: DecodeJSON returns what the encoding/json decoder it
// replaced returns, program and error text alike.
func FuzzDecodeJSON(f *testing.F) {
	for seed := int64(1); seed <= 20; seed++ {
		doc, err := prog.EncodeJSON(randprog.MustGenerate(seed, randprog.Options{}))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	_, bench := servedDocs(f)
	f.Add(bench)
	for _, tc := range rejectCases {
		f.Add([]byte(tc.body))
	}
	f.Add([]byte(canonicalDoc))
	for _, fd := range fallbackDocs {
		f.Add([]byte(strings.Replace(canonicalDoc, fd.old, fd.new, 1)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := prog.DecodeJSON(data)
		want, wantErr := prog.ReferenceDecodeJSON(data)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, reference %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("program %+v, reference %+v", got, want)
		}
	})
}

// servedDocs returns the documents BenchmarkDecodeJSON decodes: randprog
// programs seeded as the serve_fresh benchmark workload seeds them, and
// compress at the scale serve_repeat submits it.
func servedDocs(tb testing.TB) (fresh [][]byte, bench []byte) {
	encode := func(p *prog.Program) []byte {
		data, err := prog.EncodeJSON(p)
		if err != nil {
			tb.Fatal(err)
		}
		return data
	}
	for counter := int64(0); counter < 64; counter++ {
		fresh = append(fresh, encode(randprog.MustGenerate(1<<32+counter, randprog.Options{})))
	}
	b, err := workload.ByName("compress")
	if err != nil {
		tb.Fatal(err)
	}
	p, err := b.Build(0.01)
	if err != nil {
		tb.Fatal(err)
	}
	return fresh, encode(p)
}

var decoded *prog.Program

// BenchmarkDecodeJSON measures DecodeJSON per document: randprog is the
// mean over serve_fresh-shaped documents, compress one benchmark program.
func BenchmarkDecodeJSON(b *testing.B) {
	fresh, bench := servedDocs(b)
	for _, bc := range []struct {
		name string
		docs [][]byte
	}{{"randprog", fresh}, {"compress", [][]byte{bench}}} {
		b.Run(bc.name, func(b *testing.B) {
			var size int
			for _, d := range bc.docs {
				size += len(d)
			}
			b.SetBytes(int64(size / len(bc.docs)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := prog.DecodeJSON(bc.docs[i%len(bc.docs)])
				if err != nil {
					b.Fatal(err)
				}
				decoded = p
			}
		})
	}
}
