package snapshot

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// mergeRef is the map-based Merge that the merge-join replaced, kept as the
// differential reference: one map per section, folded with the join rules,
// then a full re-sort into canonical order.
func mergeRef(a, b *Snapshot) (*Snapshot, error) {
	if a.GroupKey() != b.GroupKey() {
		return nil, &MismatchError{A: a.GroupKey(), B: b.GroupKey()}
	}
	out := &Snapshot{
		Tenant:         a.Tenant,
		Program:        a.Program,
		Fingerprint:    a.Fingerprint,
		Scheme:         a.Scheme,
		Tau:            maxI64(a.Tau, b.Tau),
		Flow:           maxI64(a.Flow, b.Flow),
		Steps:          maxI64(a.Steps, b.Steps),
		CapturedUnixNS: a.CapturedUnixNS,
		TraceID:        a.TraceID,
	}
	if b.CapturedUnixNS > out.CapturedUnixNS ||
		(b.CapturedUnixNS == out.CapturedUnixNS && b.TraceID > out.TraceID) {
		out.CapturedUnixNS, out.TraceID = b.CapturedUnixNS, b.TraceID
	}

	heads := map[int]int64{}
	for _, s := range []*Snapshot{a, b} {
		for _, h := range s.Heads {
			heads[h.Addr] = maxI64(heads[h.Addr], satAdd(h.Count))
		}
	}
	for addr, n := range heads {
		out.Heads = append(out.Heads, HeadCount{Addr: addr, Count: n})
	}

	traces := map[int]Trace{}
	for _, s := range []*Snapshot{a, b} {
		for _, t := range s.Traces {
			t.Flow = satAdd(t.Flow)
			if cur, ok := traces[t.Start]; !ok || traceLess(cur, t) {
				t.Steps = append([]Step(nil), t.Steps...)
				traces[t.Start] = t
			}
		}
	}
	for _, t := range traces {
		out.Traces = append(out.Traces, t)
	}

	paths := map[string]PathCount{}
	for _, s := range []*Snapshot{a, b} {
		for _, p := range s.Paths {
			p.Count = satAdd(p.Count)
			if cur, ok := paths[string(p.Key)]; !ok || pathLess(cur, p) {
				p.Key = append([]byte(nil), p.Key...)
				paths[string(p.Key)] = p
			}
		}
	}
	for _, p := range paths {
		out.Paths = append(out.Paths, p)
	}

	black := map[int]int{}
	for _, s := range []*Snapshot{a, b} {
		for _, e := range s.Blacklist {
			if e.Aborts > black[e.Addr] {
				black[e.Addr] = e.Aborts
			}
		}
	}
	for addr, n := range black {
		out.Blacklist = append(out.Blacklist, BlackEntry{Addr: addr, Aborts: n})
	}

	sort.Slice(out.Heads, func(i, j int) bool { return out.Heads[i].Addr < out.Heads[j].Addr })
	sort.Slice(out.Traces, func(i, j int) bool { return out.Traces[i].Start < out.Traces[j].Start })
	sort.Slice(out.Paths, func(i, j int) bool { return string(out.Paths[i].Key) < string(out.Paths[j].Key) })
	sort.Slice(out.Blacklist, func(i, j int) bool { return out.Blacklist[i].Addr < out.Blacklist[j].Addr })
	return out, nil
}

// genRaw builds a random snapshot that is not canonical: sections may be
// unsorted or sorted, keys repeat, counts and aborts may be negative or
// zero, and traces or keys may be empty — everything Merge must tolerate
// from a hand-edited or forged input.
func genRaw(rng *rand.Rand) *Snapshot {
	s := &Snapshot{
		Program: "prog", Fingerprint: 0xfeedface, Scheme: "net",
		Tau:            int64(rng.Intn(100)),
		Flow:           int64(rng.Intn(10000)),
		Steps:          int64(rng.Intn(100000)),
		CapturedUnixNS: int64(rng.Intn(3)),
		TraceID:        [3]string{"", "aa", "bb"}[rng.Intn(3)],
	}
	count := func() int64 {
		switch rng.Intn(8) {
		case 0:
			return -int64(rng.Intn(5))
		case 1:
			return counterMax + int64(rng.Intn(3))
		}
		return int64(rng.Intn(6))
	}
	for i, n := 0, rng.Intn(12); i < n; i++ {
		s.Heads = append(s.Heads, HeadCount{Addr: rng.Intn(10), Count: count()})
	}
	for i, n := 0, rng.Intn(8); i < n; i++ {
		t := Trace{Start: rng.Intn(6), Flow: count(), Tier2: rng.Intn(2) == 0}
		for j, m := 0, rng.Intn(3); j < m; j++ {
			t.Steps = append(t.Steps, Step{PC: rng.Intn(3), Next: rng.Intn(3)})
		}
		s.Traces = append(s.Traces, t)
	}
	for i, n := 0, rng.Intn(10); i < n; i++ {
		key := make([]byte, rng.Intn(3))
		for j := range key {
			key[j] = byte(rng.Intn(3))
		}
		s.Paths = append(s.Paths, PathCount{Key: key, Start: rng.Intn(3), Branches: rng.Intn(3), Count: count()})
	}
	for i, n := 0, rng.Intn(6); i < n; i++ {
		s.Blacklist = append(s.Blacklist, BlackEntry{Addr: rng.Intn(6), Aborts: rng.Intn(5) - 1})
	}
	if rng.Intn(2) == 0 {
		s.Canonicalize()
	}
	return s
}

// checkMergeMatchesRef merges the pair with Merge and with mergeRef and
// fails on any difference between them, or on a modified input.
func checkMergeMatchesRef(t *testing.T, a, b *Snapshot) {
	t.Helper()
	a0, b0 := cloneSnap(a), cloneSnap(b)
	got, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := mergeRef(a0, b0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Merge differs from the reference:\n a %+v\n b %+v\ngot %+v\nwant %+v", a0, b0, got, want)
	}
	if !reflect.DeepEqual(a, a0) || !reflect.DeepEqual(b, b0) {
		t.Fatal("Merge modified an input")
	}
}

func cloneSnap(s *Snapshot) *Snapshot {
	c := *s
	c.Heads = slices.Clone(s.Heads)
	c.Traces = slices.Clone(s.Traces)
	for i := range c.Traces {
		c.Traces[i].Steps = slices.Clone(c.Traces[i].Steps)
	}
	c.Paths = slices.Clone(s.Paths)
	for i := range c.Paths {
		c.Paths[i].Key = slices.Clone(c.Paths[i].Key)
	}
	c.Blacklist = slices.Clone(s.Blacklist)
	return &c
}

// TestMergeMatchesReference: the merge-join is the map-based merge, entry
// for entry, on random pairs with duplicate keys, unsorted sections, and
// out-of-range counts.
func TestMergeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 20000; i++ {
		checkMergeMatchesRef(t, genRaw(rng), genRaw(rng))
	}
}

// FuzzMergeDifferential drives the same differential check from fuzzed
// generator seeds. Runs in CI's fuzz smoke.
func FuzzMergeDifferential(f *testing.F) {
	f.Add(int64(1), int64(2))
	f.Add(int64(-7), int64(7))
	f.Fuzz(func(t *testing.T, sa, sb int64) {
		checkMergeMatchesRef(t, genRaw(rand.New(rand.NewSource(sa))), genRaw(rand.New(rand.NewSource(sb))))
	})
}
