package ctrl

// Control-plane telemetry: run lifecycle counters, scheduler queue
// gauges and SSE subscriber accounting, published into an internal/obs
// registry exposed on the fleet /metrics endpoint. Follows the obs
// nil-receiver contract — a nil *Telemetry ignores every probe — and,
// like the fabric coordinator's, all updates happen under the registry
// mutex that also guards the unsynchronised obs registry.

import (
	"lpm/internal/obs"
	"lpm/internal/trace"
)

// Telemetry is the control plane's probe set.
type Telemetry struct {
	reg *obs.Registry

	pending *obs.Gauge
	running *obs.Gauge
	subs    *obs.Gauge

	submitted *obs.Counter
	done      *obs.Counter
	failed    *obs.Counter
	cancelled *obs.Counter
	rejected  *obs.Counter
	retried   *obs.Counter
	sseDrops  *obs.Counter

	// The process trace arena's counters, refreshed per scrape.
	arenaHits      *obs.Counter
	arenaMisses    *obs.Counter
	arenaSeals     *obs.Counter
	arenaEvictions *obs.Counter
	arenaSlab      *obs.Gauge
}

// NewTelemetry wires the control-plane probes into reg; a nil registry
// returns a nil Telemetry, the zero-cost off switch.
func NewTelemetry(reg *obs.Registry) *Telemetry {
	if reg == nil {
		return nil
	}
	return &Telemetry{
		reg:       reg,
		pending:   reg.Gauge("ctrl.runs_pending"),
		running:   reg.Gauge("ctrl.runs_running"),
		subs:      reg.Gauge("ctrl.sse_subscribers"),
		submitted: reg.Counter("ctrl.runs_submitted"),
		done:      reg.Counter("ctrl.runs_done"),
		failed:    reg.Counter("ctrl.runs_failed"),
		cancelled: reg.Counter("ctrl.runs_cancelled"),
		rejected:  reg.Counter("ctrl.runs_rejected"),
		retried:   reg.Counter("ctrl.runs_retried"),
		sseDrops:  reg.Counter("ctrl.sse_events_dropped"),

		arenaHits:      reg.Counter("trace.arena_hits"),
		arenaMisses:    reg.Counter("trace.arena_misses"),
		arenaSeals:     reg.Counter("trace.arena_seals"),
		arenaEvictions: reg.Counter("trace.arena_evictions"),
		arenaSlab:      reg.Gauge("trace.arena_slab_bytes"),
	}
}

// SyncArena copies the process trace arena's counters into the
// registry, so a scrape shows how well stream replay is working.
func (t *Telemetry) SyncArena(st trace.ArenaStats) {
	if t == nil {
		return
	}
	t.arenaHits.Set(st.Hits)
	t.arenaMisses.Set(st.Misses)
	t.arenaSeals.Set(st.Seals)
	t.arenaEvictions.Set(st.Evictions)
	t.arenaSlab.Set(float64(st.SlabBytes))
}

// Retried counts a transient run failure re-executed under the retry
// policy.
func (t *Telemetry) Retried() {
	if t == nil {
		return
	}
	t.retried.Inc()
}

// SyncQueue refreshes the scheduler-shape gauges.
func (t *Telemetry) SyncQueue(pending, running int) {
	if t == nil {
		return
	}
	t.pending.Set(float64(pending))
	t.running.Set(float64(running))
}

// Submitted counts an accepted run submission.
func (t *Telemetry) Submitted() {
	if t == nil {
		return
	}
	t.submitted.Inc()
}

// Rejected counts a submission refused at validation.
func (t *Telemetry) Rejected() {
	if t == nil {
		return
	}
	t.rejected.Inc()
}

// Finished counts a run reaching a terminal state.
func (t *Telemetry) Finished(state RunState) {
	if t == nil {
		return
	}
	switch state {
	case StateDone:
		t.done.Inc()
	case StateFailed:
		t.failed.Inc()
	case StateCancelled:
		t.cancelled.Inc()
	}
}

// Subscribers adjusts the live SSE subscriber gauge by delta.
func (t *Telemetry) Subscribers(delta int) {
	if t == nil {
		return
	}
	t.subs.Set(t.subs.Value() + float64(delta))
}

// EventsDropped counts SSE ring overruns.
func (t *Telemetry) EventsDropped(n uint64) {
	if t == nil {
		return
	}
	t.sseDrops.Add(n)
}
