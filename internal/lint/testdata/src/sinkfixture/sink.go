// Package sinkfixture is a lint test fixture: every form of guarded and
// unguarded *telemetry.Sink call the sinkcheck analyzer understands. Lines
// carrying the want marker must be flagged; the rest must not. The file
// only needs to parse — it is never built.
package sinkfixture

import "netpath/internal/telemetry"

var counter *telemetry.Counter

type system struct {
	tel *telemetry.Sink
}

func (s *system) unguarded() {
	s.tel.Inc(counter) // want
}

func (s *system) guardedIf() {
	if s.tel != nil {
		s.tel.Inc(counter)
	}
}

func (s *system) guardedConjunction(extra bool) {
	if s.tel != nil && extra {
		s.tel.Inc(counter)
	}
}

func (s *system) guardedEarlyReturn() {
	s.work()
	if s.tel == nil {
		return
	}
	s.tel.Observe(nil, 1)
}

func (s *system) guardedElse() {
	if s.tel == nil {
		s.work()
	} else {
		s.tel.Inc(counter)
	}
}

func (s *system) wrongBranch() {
	if s.tel == nil {
		s.tel.Inc(counter) // want
	}
}

func (s *system) loopBody() {
	for i := 0; i < 3; i++ {
		s.tel.Inc(counter) // want
	}
	if s.tel != nil {
		for i := 0; i < 3; i++ {
			s.tel.Inc(counter)
		}
	}
}

func (s *system) work() {}

func param(sink *telemetry.Sink) {
	sink.Add(counter, 1) // want
	if sink != nil {
		sink.Add(counter, 1)
	}
}

func newSink() *telemetry.Sink { return nil }

func assigned() {
	s := newSink()
	s.Observe(nil, 1) // want
	if s == nil {
		return
	}
	s.Observe(nil, 1)
}
