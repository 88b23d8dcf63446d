// Package scenario is the adversarial scenario engine: a deterministic,
// composable DSL for correlated-failure timelines (regional blackouts,
// healing partitions, flash crowds, join stampedes, lossy links) plus a
// Driver that replays any scenario against any overlay.Protocol — caps-gated,
// serially on a plain network and in virtual time on one with an engine.
//
// Churn elsewhere in the repository is i.i.d. Poisson, the kindest possible
// failure model; the paper's dynamic-correctness claims (§4.4, Thm 6) are
// about surviving *adversarial* membership change. A Scenario is a seeded,
// replayable timeline of typed events; combinators (Seq, Overlay, Repeat,
// Ramp) compose timelines so suites are data, not code.
package scenario

import (
	"fmt"
	"math"
	"sort"
)

// Event is one typed scenario action. The concrete types below are the whole
// vocabulary; each carries only workload-shaped parameters (counts, rates,
// fractions) — bindings to concrete nodes, regions and objects happen inside
// the Driver from its seed, so one scenario replays against any overlay.
type Event interface {
	// validate reports a problem with the event's parameters, if any.
	validate() error
	// String renders the event for traces and docs.
	String() string
}

// Phase marks a named measurement window: the Driver reports one PhaseReport
// per Phase event, covering everything until the next Phase (or the end).
type Phase struct{ Name string }

// RegionBlackout crashes every live member of one transit-stub region — the
// Pick-th region of a seeded shuffle of the space's region labels, so
// distinct picks black out distinct regions. On spaces without region
// structure the Driver falls back to a seeded slice of the membership.
type RegionBlackout struct{ Pick int }

// RegionRestore rejoins the members crashed by the matching RegionBlackout
// (same Pick) at their original addresses and republishes the objects they
// originally served.
type RegionRestore struct{ Pick int }

// Partition splits the network into two reachability groups; messages across
// the cut fail with netsim.ErrUnreachable until a Heal. Frac in (0, 1) is the
// target minority share of the membership; the cut is region-aligned when the
// space has region structure.
type Partition struct{ Frac float64 }

// Heal removes the active partition.
type Heal struct{}

// LinkFaults sets seeded per-message loss and duplication rates at the
// netsim Send seam (Loss+Dup <= 1). Zero rates turn link faults off.
type LinkFaults struct{ Loss, Dup float64 }

// FlashCrowd is a query storm where fraction Hot of Count queries hammer one
// seeded hot object and the rest follow the background Zipf mix.
type FlashCrowd struct {
	Count int
	Hot   float64
}

// JoinStampede is a correlated arrival wave: Count back-to-back joins from
// the Driver's reserve address pool.
type JoinStampede struct{ Count int }

// Churn is one epoch of the classic i.i.d. model — Poisson joins, leaves and
// crashes — embedded so benign background churn can overlay the adversarial
// events. SpareServers exempts the objects' origin servers from departure, so
// the epoch measures routing health rather than replica loss: a draw landing
// on one moves on to the next member that serves nothing.
type Churn struct {
	JoinMean, LeaveMean, CrashMean float64
	SpareServers                   bool
}

// Queries is a plain background measurement storm of Count Zipf queries.
type Queries struct{ Count int }

// Maintain runs one protocol maintenance pass (declined without
// CapMaintain).
type Maintain struct{}

func (e Phase) String() string { return fmt.Sprintf("phase(%s)", e.Name) }
func (e Phase) validate() error {
	if e.Name == "" {
		return fmt.Errorf("scenario: phase with empty name")
	}
	return nil
}

func (e RegionBlackout) String() string { return fmt.Sprintf("blackout(region %d)", e.Pick) }
func (e RegionBlackout) validate() error {
	if e.Pick < 0 {
		return fmt.Errorf("scenario: blackout pick %d negative", e.Pick)
	}
	return nil
}

func (e RegionRestore) String() string { return fmt.Sprintf("restore(region %d)", e.Pick) }
func (e RegionRestore) validate() error {
	if e.Pick < 0 {
		return fmt.Errorf("scenario: restore pick %d negative", e.Pick)
	}
	return nil
}

func (e Partition) String() string { return fmt.Sprintf("partition(%.0f%%)", e.Frac*100) }
func (e Partition) validate() error {
	if !(e.Frac > 0 && e.Frac < 1) { // NaN fails too
		return fmt.Errorf("scenario: partition fraction %v outside (0,1)", e.Frac)
	}
	return nil
}

func (e Heal) String() string  { return "heal" }
func (e Heal) validate() error { return nil }

func (e LinkFaults) String() string {
	return fmt.Sprintf("linkfaults(loss=%.2f dup=%.2f)", e.Loss, e.Dup)
}
func (e LinkFaults) validate() error {
	sane := e.Loss >= 0 && e.Dup >= 0 && e.Loss+e.Dup <= 1 // NaN fails
	if !sane {
		return fmt.Errorf("scenario: link-fault rates loss=%v dup=%v invalid", e.Loss, e.Dup)
	}
	return nil
}

func (e FlashCrowd) String() string { return fmt.Sprintf("flashcrowd(%d, hot=%.2f)", e.Count, e.Hot) }
func (e FlashCrowd) validate() error {
	if e.Count < 0 {
		return fmt.Errorf("scenario: flash-crowd count %d negative", e.Count)
	}
	if !(e.Hot >= 0 && e.Hot <= 1) {
		return fmt.Errorf("scenario: flash-crowd hot fraction %v outside [0,1]", e.Hot)
	}
	return nil
}

func (e JoinStampede) String() string { return fmt.Sprintf("stampede(%d)", e.Count) }
func (e JoinStampede) validate() error {
	if e.Count < 0 {
		return fmt.Errorf("scenario: stampede count %d negative", e.Count)
	}
	return nil
}

func (e Churn) String() string {
	spare := ""
	if e.SpareServers {
		spare = " servers spared"
	}
	return fmt.Sprintf("churn(join=%.1f leave=%.1f crash=%.1f%s)", e.JoinMean, e.LeaveMean, e.CrashMean, spare)
}
func (e Churn) validate() error {
	for _, m := range []float64{e.JoinMean, e.LeaveMean, e.CrashMean} {
		if !(m >= 0) || math.IsInf(m, 0) {
			return fmt.Errorf("scenario: churn mean %v invalid", m)
		}
	}
	return nil
}

func (e Queries) String() string { return fmt.Sprintf("queries(%d)", e.Count) }
func (e Queries) validate() error {
	if e.Count < 0 {
		return fmt.Errorf("scenario: query count %d negative", e.Count)
	}
	return nil
}

func (e Maintain) String() string  { return "maintain" }
func (e Maintain) validate() error { return nil }

// TimedEvent anchors an event at a point of the scenario's virtual timeline.
type TimedEvent struct {
	At float64
	Ev Event
}

// Scenario is a validated, time-ordered event timeline. Build one with the
// Builder or the combinators; the zero value is an empty scenario.
type Scenario struct {
	Name   string
	Events []TimedEvent // non-decreasing At; ties keep insertion order
}

// End returns the time of the last event (0 for an empty scenario).
func (s Scenario) End() float64 {
	if len(s.Events) == 0 {
		return 0
	}
	return s.Events[len(s.Events)-1].At
}

// Validate re-checks the timeline invariants: every event parameter valid,
// times finite, non-negative and non-decreasing. Builder output always
// passes; hand-assembled scenarios can be checked before a Run.
func (s Scenario) Validate() error {
	prev := 0.0
	for i, te := range s.Events {
		if math.IsNaN(te.At) || math.IsInf(te.At, 0) || te.At < 0 {
			return fmt.Errorf("scenario %q: event %d at invalid time %v", s.Name, i, te.At)
		}
		if te.At < prev {
			return fmt.Errorf("scenario %q: event %d at %v precedes %v", s.Name, i, te.At, prev)
		}
		prev = te.At
		if te.Ev == nil {
			return fmt.Errorf("scenario %q: event %d is nil", s.Name, i)
		}
		if err := te.Ev.validate(); err != nil {
			return fmt.Errorf("scenario %q: event %d (%v): %w", s.Name, i, te.Ev, err)
		}
	}
	return nil
}

// MaxTime bounds event times accepted by the Builder. The cap keeps
// combinator arithmetic safe: Seq and Repeat shift timelines past each
// other's end, and with unbounded (but finite) times those sums overflow to
// +Inf — a timeline that would pass Build yet fail Validate after Seq.
// Validate itself only requires finiteness, so sequencing a handful of
// maximal scenarios stays valid.
const MaxTime = 1e12

// Builder accumulates a timeline. Events added out of time order are sorted
// stably at Build, so same-time events keep their insertion order — Phase
// markers added before actions at the same instant stay first.
type Builder struct {
	name   string
	events []TimedEvent
	err    error
}

// New starts a scenario under the given name.
func New(name string) *Builder { return &Builder{name: name} }

// At schedules the events at time t, in argument order.
func (b *Builder) At(t float64, evs ...Event) *Builder {
	if b.err != nil {
		return b
	}
	if math.IsNaN(t) || t < 0 || t > MaxTime {
		b.err = fmt.Errorf("scenario %q: invalid event time %v (want 0..%v)", b.name, t, MaxTime)
		return b
	}
	for _, ev := range evs {
		if ev == nil {
			b.err = fmt.Errorf("scenario %q: nil event at %v", b.name, t)
			return b
		}
		if err := ev.validate(); err != nil {
			b.err = err
			return b
		}
		b.events = append(b.events, TimedEvent{At: t, Ev: ev})
	}
	return b
}

// Build finalizes the timeline: validation errors accumulated by At surface
// here, and events sort stably by time.
func (b *Builder) Build() (Scenario, error) {
	if b.err != nil {
		return Scenario{}, b.err
	}
	evs := append([]TimedEvent(nil), b.events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return Scenario{Name: b.name, Events: evs}, nil
}

// MustBuild is Build for statically known-good timelines (the named suite).
func (b *Builder) MustBuild() Scenario {
	s, err := b.Build()
	if err != nil {
		panic(err)
	}
	return s
}

// Seq concatenates scenarios end to start: each part's timeline is shifted
// past everything before it (plus a one-unit gap so a part ending and the
// next beginning never collide).
func Seq(name string, parts ...Scenario) Scenario {
	out := Scenario{Name: name}
	offset := 0.0
	for i, p := range parts {
		if i > 0 {
			offset += 1
		}
		for _, te := range p.Events {
			out.Events = append(out.Events, TimedEvent{At: te.At + offset, Ev: te.Ev})
		}
		offset += p.End()
	}
	return out
}

// Overlay merges scenarios on a shared clock: events keep their absolute
// times, and same-time events order part-major (all of parts[0]'s, then
// parts[1]'s, ...), which the stable sort preserves.
func Overlay(name string, parts ...Scenario) Scenario {
	out := Scenario{Name: name}
	for _, p := range parts {
		out.Events = append(out.Events, p.Events...)
	}
	sort.SliceStable(out.Events, func(i, j int) bool { return out.Events[i].At < out.Events[j].At })
	return out
}

// Repeat sequences n copies of the part (n < 1 yields an empty scenario).
func Repeat(name string, n int, part Scenario) Scenario {
	parts := make([]Scenario, 0, n)
	for i := 0; i < n; i++ {
		parts = append(parts, part)
	}
	return Seq(name, parts...)
}

// Ramp emits `steps` LinkFaults events at times start, start+dt, ... with
// rates interpolated linearly from `from` to `to` — a gradually degrading
// (or recovering) network. steps < 2 emits a single event at `to`'s rates.
// Invalid interpolants surface from Build like any other bad event.
func Ramp(name string, start, dt float64, steps int, from, to LinkFaults) (Scenario, error) {
	b := New(name)
	if steps < 2 {
		return b.At(start, to).Build()
	}
	for k := 0; k < steps; k++ {
		f := float64(k) / float64(steps-1)
		b.At(start+float64(k)*dt, LinkFaults{
			Loss: from.Loss + f*(to.Loss-from.Loss),
			Dup:  from.Dup + f*(to.Dup-from.Dup),
		})
	}
	return b.Build()
}
