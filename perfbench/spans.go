package main

import (
	"sync"
	"time"
)

// spans collects durations of the benchmark's calls into each layer's
// public functions, by span name. It lives in the benchmark only: the
// program under test carries no tracing of its own. A nil *spans is the
// untraced mode, in which every method is a no-op costing one nil check.
type spans struct {
	mu  sync.Mutex
	got map[string][]float64
}

func newSpans() *spans { return &spans{got: map[string][]float64{}} }

// start returns the span start time (the zero time when untraced).
func (s *spans) start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

// end records the span begun at t0 under name.
func (s *spans) end(name string, t0 time.Time) {
	if s == nil {
		return
	}
	s.add(name, time.Since(t0).Seconds())
}

// add records one span duration in seconds.
func (s *spans) add(name string, sec float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.got[name] = append(s.got[name], sec)
	s.mu.Unlock()
}

// of returns the recorded durations under name.
func (s *spans) of(name string) []float64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.got[name]...)
}

// sum returns the total duration recorded under name.
func (s *spans) sum(name string) float64 {
	t := 0.0
	for _, d := range s.of(name) {
		t += d
	}
	return t
}
