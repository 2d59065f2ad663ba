package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"netpath/internal/asm"
	"netpath/internal/dynamo"
	"netpath/internal/prog"
	"netpath/internal/workload"
)

// runRequest is the POST /v1/run submission envelope. Exactly one of Asm,
// Prog, or Bench names the guest program; everything else tunes the run
// within the tenant's quotas.
type runRequest struct {
	// Tenant is the submitting tenant's identity (required; admission
	// fairness, rate limits, and table shards key on it).
	Tenant string `json:"tenant"`
	// Name labels the run in results (defaults per program form).
	Name string `json:"name,omitempty"`

	// Asm is internal/asm assembly text.
	Asm string `json:"asm,omitempty"`
	// Prog is an encoded netpath-prog/v1 program document. On the request
	// path it aliases the pooled body buffer, so it is read only until
	// handleRun returns.
	Prog json.RawMessage `json:"prog,omitempty"`
	// Bench names a built-in workload benchmark; Scale sizes it.
	Bench string  `json:"bench,omitempty"`
	Scale float64 `json:"scale,omitempty"`

	// Scheme selects the prediction scheme: "net" (default), "pp", "static".
	Scheme string `json:"scheme,omitempty"`
	// Tau overrides the hot threshold (0 = scheme default).
	Tau int64 `json:"tau,omitempty"`
	// MaxSteps caps machine steps (0 = tenant default; capped by quota).
	MaxSteps int64 `json:"max_steps,omitempty"`
	// DeadlineMS caps wall-clock run time in milliseconds (0 = tenant
	// default; capped by quota).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`

	// ChaosSeed, with any nonzero rate below, runs the guest under a seeded
	// fault injector — the soak harness's knob, also open to tenants who
	// want to rehearse their guests against adversity.
	ChaosSeed     int64   `json:"chaos_seed,omitempty"`
	ChaosTrapPerM float64 `json:"chaos_trap_per_m,omitempty"`
	ChaosSoftPerM float64 `json:"chaos_soft_per_m,omitempty"`

	// resolved by decode/resolve, not wire fields
	key     progKey // programKey, hashed once by decodeRequest
	program *prog.Program
	scheme  dynamo.Scheme
}

// runResponse is the successful POST /v1/run reply.
type runResponse struct {
	Tenant string `json:"tenant"`
	Name   string `json:"name"`
	Scheme string `json:"scheme"`
	// Mode is "dynamo" or "interp"; Degraded is true when the ladder forced
	// interp-only on a guest that asked for translation.
	Mode     string `json:"mode"`
	Degraded bool   `json:"degraded,omitempty"`

	Steps     int64   `json:"steps"`
	Fragments int     `json:"fragments,omitempty"`
	Flushes   int     `json:"flushes,omitempty"`
	SpeedupPC float64 `json:"speedup_pct,omitempty"`
	CachedPC  float64 `json:"cached_pct,omitempty"`
	BailedOut bool    `json:"bailed_out,omitempty"`
	// Deopts reports published tier-2 superblocks torn down during the run.
	Deopts int64 `json:"tier2_deopts,omitempty"`
	// Restored reports fragments pre-installed from the tenant's stored
	// profile before the first guest instruction (0 = cold start).
	Restored int     `json:"restored_fragments,omitempty"`
	Regs     []int64 `json:"regs"`

	QueueNS int64 `json:"queue_ns"`
	RunNS   int64 `json:"run_ns"`
	// TraceID names the retained request trace, present when the run was
	// head-sampled or tail-promoted; fetch it via GET /v1/trace/{id}.
	TraceID string `json:"trace_id,omitempty"`
}

// bodyPool recycles request-body buffers. handleRun reads each submission
// into one, and the prog document stays a sub-slice of it until the request
// is answered, so a repeat submission copies its program nowhere.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeRequest decodes and validates a submission read in full into body;
// readErr is what ended the read (nil at EOF, a *http.MaxBytesError past the
// body quota). A body with a prog document goes through decodeProg. Every
// other body, and every one decodeProg turns down, is decoded by
// decodeEnvelope exactly as it streamed in, so each error keeps the status,
// code and message encoding/json gives it, in the same order of checks.
func decodeRequest(body []byte, readErr error, pc *progCache) (*runRequest, *apiError) {
	if readErr == nil {
		if req := decodeProg(body, pc); req != nil {
			return req, nil
		}
	}
	var src io.Reader = bytes.NewReader(body)
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	req, e := decodeEnvelope(src)
	if e == nil {
		e = req.validate()
	}
	if e != nil {
		return nil, e
	}
	req.key = req.programKey()
	return req, nil
}

// decodeProg decodes a submission of a prog document without handing the
// document to encoding/json, which would scan it twice. encoding/json gets
// only the envelope, the body with {} spliced in for the document, and the
// document is hashed once for its program-cache key.
//
// A document whose key is cached needs no check: its bytes are
// SHA-256-identical to a document that was decoded and verified before,
// inside a body that passed encoding/json's syntax check, so it is one JSON
// value, nested shallowly enough, and findProg's span for it is exact. Any
// other document is checked here, before a later check can answer first:
// the whole body must pass json.Valid (on the document alone it would allow
// one nesting level too many) and a rescan must confirm the span.
//
// decodeProg returns nil for anything irregular or failing, and
// decodeRequest decodes the whole body instead.
func decodeProg(body []byte, pc *progCache) *runRequest {
	vs, ve, ok := findProg(body)
	if !ok {
		return nil
	}
	env := make([]byte, 0, len(body)-(ve-vs)+2)
	env = append(append(append(env, body[:vs]...), "{}"...), body[ve:]...)
	req, e := decodeEnvelope(bytes.NewReader(env))
	if e != nil {
		return nil
	}
	req.Prog = body[vs:ve]
	if req.validate() != nil {
		return nil
	}
	req.key = req.programKey()
	if !pc.has(req.key) && !(pc.valid(body) && skipValue(body, vs) == ve) {
		return nil
	}
	return req
}

// decodeEnvelope decodes one JSON request object from src, which must end
// where the body does — at its end, or at the read error that cut it off.
func decodeEnvelope(src io.Reader) (*runRequest, *apiError) {
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	var req runRequest
	if err := dec.Decode(&req); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return nil, errf(CodeQuota, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", maxErr.Limit)
		}
		return nil, errf(CodeBadRequest, http.StatusBadRequest, "malformed JSON: %v", err)
	}
	// Trailing garbage after the envelope is a malformed request, not noise.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, errf(CodeBadRequest, http.StatusBadRequest, "trailing data after request object")
	}
	return &req, nil
}

// errReader replays the error that ended a body read, after its bytes.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// findProg locates the value of body's top-level "prog" member, an object,
// as body[vs:ve]. It tracks only strings, escapes and nesting, which is
// exact on well-formed JSON; whatever it reports on anything else, the
// envelope decode and the document's check in decodeProg refuse. It
// declines (ok = false) a body that is not an object, a prog that is not an
// object or not the only one, and any key that encoding/json might match
// to the prog field other than the plain "prog": one with an escape, a
// non-ASCII byte, or another case. It scans no further than the document
// when lastMember guesses where that ends; keys after it then lie inside
// the guessed bytes, which fail decodeProg's check.
func findProg(body []byte) (vs, ve int, ok bool) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return 0, 0, false
	}
	vs = -1
	for i++; ; {
		i = skipSpace(body, i)
		if i == len(body) {
			return 0, 0, false
		}
		switch body[i] {
		case '}':
			return vs, ve, vs >= 0
		case ',':
			i++
			continue
		case '"':
		default:
			return 0, 0, false
		}
		end := skipString(body, i+1)
		if end < 0 {
			return 0, 0, false
		}
		key := body[i+1 : end]
		i = skipSpace(body, end+1)
		if i == len(body) || body[i] != ':' {
			return 0, 0, false
		}
		i = skipSpace(body, i+1)
		if i == len(body) {
			return 0, 0, false
		}
		isProg := string(key) == "prog"
		if isProg && (vs >= 0 || body[i] != '{') || !isProg && !plainKey(key) {
			return 0, 0, false
		}
		if isProg {
			if ve := lastMember(body); ve > i {
				return i, ve, true
			}
		}
		end = skipValue(body, i)
		if end < 0 {
			return 0, 0, false
		}
		if isProg {
			vs, ve = i, end
		}
		i = end
	}
}

// lastMember returns the index just past body's last member value when
// that value is an object, closing just before the body's own closing
// brace; else -1. A client usually sends the prog document last, so
// findProg takes it to end there rather than scan it. decodeProg checks
// the guess: the bytes of a cached document are one JSON value, so a guess
// can only hit if it is right, and a miss rescans the document anyway.
func lastMember(body []byte) int {
	j := len(body)
	for range 2 {
		for j > 0 && isSpace(body[j-1]) {
			j--
		}
		if j == 0 || body[j-1] != '}' {
			return -1
		}
		j--
	}
	return j + 1
}

// plainKey reports whether encoding/json matches key to the prog field
// only if it is "prog" itself.
func plainKey(key []byte) bool {
	for _, c := range key {
		if c == '\\' || c >= utf8.RuneSelf {
			return false
		}
	}
	return !bytes.EqualFold(key, []byte("prog"))
}

// skipValue returns the index just past the JSON value starting at b[i], or
// -1 if b ends first.
func skipValue(b []byte, i int) int {
	switch b[i] {
	case '"':
		if i = skipString(b, i+1); i < 0 {
			return -1
		}
		return i + 1
	case '{', '[':
		depth := 0
		for ; i < len(b); i++ {
			switch b[i] {
			case '"':
				if i = skipString(b, i+1); i < 0 {
					return -1
				}
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
		}
		return -1
	}
	// A number or literal runs to the next delimiter.
	for i < len(b) && !isSpace(b[i]) && b[i] != ',' && b[i] != '}' && b[i] != ']' {
		i++
	}
	return i
}

// skipString returns the index of the quote closing the string whose body
// starts at b[i], or -1 if b ends first.
func skipString(b []byte, i int) int {
	for ; i < len(b); i++ {
		switch b[i] {
		case '"':
			return i
		case '\\':
			i++
		}
	}
	return -1
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// validate checks the envelope shape (cheap, before any admission cost).
func (r *runRequest) validate() *apiError {
	if r.Tenant == "" {
		return errf(CodeBadRequest, http.StatusBadRequest, "missing tenant")
	}
	if len(r.Tenant) > 64 || strings.ContainsAny(r.Tenant, " \t\n\r\"") {
		return errf(CodeBadRequest, http.StatusBadRequest, "invalid tenant name")
	}
	forms := 0
	if r.Asm != "" {
		forms++
	}
	if len(r.Prog) > 0 {
		forms++
	}
	if r.Bench != "" {
		forms++
	}
	if forms == 0 {
		return errf(CodeBadRequest, http.StatusBadRequest,
			"no program: provide exactly one of asm, prog, bench")
	}
	if forms > 1 {
		return errf(CodeBadRequest, http.StatusBadRequest,
			"ambiguous program: provide exactly one of asm, prog, bench")
	}
	if r.MaxSteps < 0 || r.DeadlineMS < 0 || r.Tau < 0 {
		return errf(CodeBadRequest, http.StatusBadRequest,
			"max_steps, deadline_ms, and tau must be non-negative")
	}
	if r.Scale < 0 || r.Scale > 1 {
		return errf(CodeBadRequest, http.StatusBadRequest, "scale must be in (0, 1]")
	}
	if r.ChaosTrapPerM < 0 || r.ChaosSoftPerM < 0 ||
		r.ChaosTrapPerM > 1e6 || r.ChaosSoftPerM > 1e6 {
		return errf(CodeBadRequest, http.StatusBadRequest, "chaos rates must be in [0, 1e6] per million steps")
	}
	switch r.Scheme {
	case "", "net", "pp", "pathprofile", "static":
	default:
		return errf(CodeBadRequest, http.StatusBadRequest,
			"unknown scheme %q (want net, pp, or static)", r.Scheme)
	}
	return nil
}

// resolve turns the submission into a verified program under the tenant's
// quotas. This is the expensive pre-admission stage: a program the verifier
// refuses never occupies a queue slot. A program this tenant submitted
// before comes from the program cache — no decode, no build, no
// verification — but every request still passes the quota checks. A new
// program is verified exactly once, through dynamo's memoized gate, so the
// run's own load-time gate hits the same verdict; only accepted programs
// are cached. hit reports whether the cache supplied the program.
func (r *runRequest) resolve(q Quotas, pc *progCache) (hit bool, e *apiError) {
	p, hit := pc.get(r.key)
	if !hit {
		if p, e = r.build(pc); e != nil {
			return false, e
		}
	}
	if len(p.Instrs) > q.MaxInstrs {
		return hit, errf(CodeQuota, http.StatusUnprocessableEntity,
			"program has %d instructions; tenant quota is %d", len(p.Instrs), q.MaxInstrs)
	}
	if p.MemSize > q.MaxMemWords {
		return hit, errf(CodeQuota, http.StatusUnprocessableEntity,
			"program wants %d memory words; tenant quota is %d", p.MemSize, q.MaxMemWords)
	}
	if r.MaxSteps > q.MaxSteps {
		return hit, errf(CodeQuota, http.StatusUnprocessableEntity,
			"max_steps %d exceeds tenant quota %d", r.MaxSteps, q.MaxSteps)
	}
	if time.Duration(r.DeadlineMS)*time.Millisecond > q.MaxDeadline {
		return hit, errf(CodeQuota, http.StatusUnprocessableEntity,
			"deadline_ms %d exceeds tenant quota %dms", r.DeadlineMS, q.MaxDeadline.Milliseconds())
	}
	if !hit {
		if err := pc.verify(p); err != nil {
			return false, errf(CodeVerify, http.StatusUnprocessableEntity, "verifier rejected program: %v", err)
		}
		p = pc.put(r.key, p)
	}
	if r.Name == "" {
		r.Name = p.Name
	}
	switch r.Scheme {
	case "pp", "pathprofile":
		r.scheme = dynamo.SchemePathProfile
	case "static":
		r.scheme = dynamo.SchemeStatic
	default:
		r.scheme = dynamo.SchemeNET
	}
	r.program = p
	return hit, nil
}

// build assembles, decodes, or builds the submitted program.
func (r *runRequest) build(pc *progCache) (*prog.Program, *apiError) {
	switch {
	case r.Asm != "":
		p, err := asm.Parse(r.asmName(), r.Asm)
		if err != nil {
			return nil, errf(CodeParse, http.StatusBadRequest, "assemble: %v", err)
		}
		return p, nil
	case len(r.Prog) > 0:
		p, err := pc.decode(r.Prog)
		if err != nil {
			return nil, errf(CodeParse, http.StatusBadRequest, "decode prog: %v", err)
		}
		return p, nil
	}
	b, err := workload.ByName(r.Bench)
	if err != nil {
		return nil, errf(CodeBadRequest, http.StatusBadRequest, "%v", err)
	}
	scale := r.Scale
	if scale == 0 {
		scale = 0.01
	}
	p, err := b.Build(scale)
	if err != nil {
		return nil, errf(CodeInternal, http.StatusInternalServerError, "build benchmark: %v", err)
	}
	return p, nil
}

// asmName is the name an asm submission's program takes.
func (r *runRequest) asmName() string {
	if r.Name == "" {
		return "asm"
	}
	return r.Name
}

// budgets returns the effective step and wall-clock budgets under q.
func (r *runRequest) budgets(q Quotas) (steps int64, deadline time.Duration) {
	steps = r.MaxSteps
	if steps == 0 {
		steps = q.DefaultSteps
	}
	deadline = time.Duration(r.DeadlineMS) * time.Millisecond
	if deadline == 0 {
		deadline = q.DefaultDeadline
	}
	return steps, deadline
}
