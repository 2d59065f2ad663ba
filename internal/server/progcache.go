package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"hash"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"netpath/internal/dynamo"
	"netpath/internal/prog"
	"netpath/internal/telemetry"
)

var (
	telProgHits = telemetry.NewCounter("server_prog_cache_hits_total",
		"Submissions resolved from the program cache: no decode, build, or verification.")
	telProgMisses = telemetry.NewCounter("server_prog_cache_misses_total",
		"Submissions whose program was not cached and had to be decoded or built.")
	telProgEvictions = telemetry.NewCounter("server_prog_cache_evictions_total",
		"Programs evicted from the bounded program cache (FIFO).")
	telProgWords = telemetry.NewGauge("server_prog_cache_instrs",
		"Instructions (plus initial-memory words) resident in the program cache.")
)

// Program cache bounds. The word budget holds the nine benchmarks (about
// 105K words together) for ten tenants; the entry cap bounds a stream of
// tiny programs, whose per-program overhead the word count does not see.
const (
	progCacheMaxWords   = 1 << 20
	progCacheMaxEntries = 4096
)

// progKey content-addresses a resolved program for one tenant. sum is
// SHA-256 over a form tag and every submitted byte that determines the
// program — never prog.Program.Fingerprint, a 64-bit FNV a tenant could
// collide to run an unverified program under a verified one's verdict.
// The tenant is part of the key for the same reason as in snapKey:
// byte-identical programs from two tenants share no state, not even a
// hit-or-miss timing signal.
type progKey struct {
	tenant string
	sum    [sha256.Size]byte
}

// progCache is the server's bounded cache of resolved programs: decoded or
// built, Validated, and accepted by the static verifier. Only accepted
// programs enter, so a hit needs no verification, and the pointer it returns
// is the one dynamo's verify memo already holds, so the run's load-time
// verify gate hits too. Bounded FIFO, like snapStore; an evicted program is
// simply resolved again.
type progCache struct {
	mu    sync.Mutex
	m     map[progKey]*prog.Program
	order []progKey // insertion order, for FIFO eviction
	words int       // sum of Footprint over m

	hits, misses, evictions atomic.Int64

	// The gates a miss runs, which tests wrap to count calls: verify is the
	// static verifier (dynamo.Verify), decode the prog-document decoder
	// (prog.DecodeJSON), and valid the JSON syntax check decodeRequest puts
	// the body of an uncached prog document through (json.Valid).
	verify func(*prog.Program) error
	decode func([]byte) (*prog.Program, error)
	valid  func([]byte) bool
}

func newProgCache() *progCache {
	return &progCache{
		m:      make(map[progKey]*prog.Program),
		verify: dynamo.Verify,
		decode: prog.DecodeJSON,
		valid:  json.Valid,
	}
}

// has reports whether k is cached, counting neither a hit nor a miss: the
// request's one counted lookup is resolve's get.
func (c *progCache) has(k progKey) bool {
	c.mu.Lock()
	_, ok := c.m[k]
	c.mu.Unlock()
	return ok
}

// get returns k's program, counting the lookup as a hit or a miss.
func (c *progCache) get(k progKey) (*prog.Program, bool) {
	c.mu.Lock()
	p, ok := c.m[k]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
		telProgHits.Inc()
	} else {
		c.misses.Add(1)
		telProgMisses.Inc()
	}
	return p, ok
}

// put caches the verified program p under k and returns the resident
// program for k: p, or the program a racing submission of the same bytes
// cached first, so one key keeps one pointer. The oldest entries are
// evicted until both bounds hold; the newest always stays.
func (c *progCache) put(k progKey, p *prog.Program) *prog.Program {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.m[k]; ok {
		return cur
	}
	c.m[k] = p
	c.order = append(c.order, k)
	c.words += p.Footprint()
	for len(c.order) > 1 && (len(c.order) > progCacheMaxEntries || c.words > progCacheMaxWords) {
		old := c.order[0]
		c.order = c.order[1:]
		c.words -= c.m[old].Footprint()
		delete(c.m, old)
		c.evictions.Add(1)
		telProgEvictions.Inc()
	}
	telProgWords.Set(int64(c.words))
	return p
}

// stats returns the resident program and word counts.
func (c *progCache) stats() (programs, words int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m), c.words
}

// programKey content-addresses the submission's program for its tenant.
// Each variable-length field is length-prefixed, so no two submissions
// hash the same byte stream.
func (r *runRequest) programKey() progKey {
	h := sha256.New()
	switch {
	case r.Asm != "":
		writeField(h, "asm")
		writeField(h, r.asmName())
		writeField(h, r.Asm)
	case len(r.Prog) > 0:
		writeField(h, "prog")
		h.Write(r.Prog)
	default:
		writeField(h, "bench")
		writeField(h, r.Bench)
		binary.Write(h, binary.LittleEndian, math.Float64bits(r.Scale))
	}
	k := progKey{tenant: r.Tenant}
	h.Sum(k.sum[:0])
	return k
}

func writeField(h hash.Hash, s string) {
	binary.Write(h, binary.LittleEndian, uint64(len(s)))
	io.WriteString(h, s)
}
