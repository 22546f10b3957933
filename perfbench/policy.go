package main

import (
	"fmt"
	"sync"
	"time"

	"muri/internal/engine"
	"muri/internal/job"
	"muri/internal/sched"
)

// observer is the optional completion hook the simulator probes for
// (sched.Gittins implements it).
type observer interface {
	Observe(totalService time.Duration)
}

// timedPolicy wraps a policy and times every Plan call. The engine and
// the simulator change behaviour on which optional interfaces a policy
// implements, so wrap returns a value implementing exactly the inner
// policy's set — no more, no fewer — and capsOf checks that it did.
type timedPolicy struct {
	inner sched.Policy
	rec   *recorder
	// id tags the Plan spans with the replay they belong to; parent is
	// the layer of the span that encloses them ("" in a daemon).
	id     int64
	parent string
	// plans holds every Plan call's latency in milliseconds. A daemon
	// plans on its own goroutine, hence mu.
	mu    sync.Mutex
	plans []float64
}

func (p *timedPolicy) Name() string     { return p.inner.Name() }
func (p *timedPolicy) Preemptive() bool { return p.inner.Preemptive() }

func (p *timedPolicy) Plan(now time.Duration, jobs []*job.Job, capacity int) []sched.Unit {
	t0 := time.Now()
	units := p.inner.Plan(now, jobs, capacity)
	t1 := time.Now()
	p.mu.Lock()
	p.plans = append(p.plans, ms(t1.Sub(t0)))
	p.mu.Unlock()
	p.rec.add("sched", "Policy.Plan", p.parent, p.id, t0, t1)
	return units
}

// latencies returns a copy of the Plan latencies recorded so far.
func (p *timedPolicy) latencies() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]float64(nil), p.plans...)
}

const (
	capPriorityKey = 1 << iota
	capDecisionSink
	capPlanStats
	capObserve
)

// capsOf reports which optional interfaces p implements.
func capsOf(p sched.Policy) int {
	c := 0
	if _, ok := p.(engine.PriorityKeyer); ok {
		c |= capPriorityKey
	}
	if _, ok := p.(engine.DecisionSink); ok {
		c |= capDecisionSink
	}
	if _, ok := p.(engine.PlanStatsProvider); ok {
		c |= capPlanStats
	}
	if _, ok := p.(observer); ok {
		c |= capObserve
	}
	return c
}

// wrap returns inner behind a Plan timer, forwarding PriorityKey,
// NoteDecisions, PlanStats and Observe exactly when inner has them.
func wrap(inner sched.Policy, rec *recorder, id int64, parent string) (sched.Policy, *timedPolicy, error) {
	t := &timedPolicy{inner: inner, rec: rec, id: id, parent: parent}
	pk, _ := inner.(engine.PriorityKeyer)
	ds, _ := inner.(engine.DecisionSink)
	ps, _ := inner.(engine.PlanStatsProvider)
	ob, _ := inner.(observer)
	type (
		P = engine.PriorityKeyer
		D = engine.DecisionSink
		S = engine.PlanStatsProvider
		O = observer
	)
	var out sched.Policy
	switch capsOf(inner) {
	case 0:
		out = t
	case capPriorityKey:
		out = struct {
			*timedPolicy
			P
		}{t, pk}
	case capDecisionSink:
		out = struct {
			*timedPolicy
			D
		}{t, ds}
	case capPriorityKey | capDecisionSink:
		out = struct {
			*timedPolicy
			P
			D
		}{t, pk, ds}
	case capPlanStats:
		out = struct {
			*timedPolicy
			S
		}{t, ps}
	case capPriorityKey | capPlanStats:
		out = struct {
			*timedPolicy
			P
			S
		}{t, pk, ps}
	case capDecisionSink | capPlanStats:
		out = struct {
			*timedPolicy
			D
			S
		}{t, ds, ps}
	case capPriorityKey | capDecisionSink | capPlanStats:
		out = struct {
			*timedPolicy
			P
			D
			S
		}{t, pk, ds, ps}
	case capObserve:
		out = struct {
			*timedPolicy
			O
		}{t, ob}
	case capPriorityKey | capObserve:
		out = struct {
			*timedPolicy
			P
			O
		}{t, pk, ob}
	case capDecisionSink | capObserve:
		out = struct {
			*timedPolicy
			D
			O
		}{t, ds, ob}
	case capPriorityKey | capDecisionSink | capObserve:
		out = struct {
			*timedPolicy
			P
			D
			O
		}{t, pk, ds, ob}
	case capPlanStats | capObserve:
		out = struct {
			*timedPolicy
			S
			O
		}{t, ps, ob}
	case capPriorityKey | capPlanStats | capObserve:
		out = struct {
			*timedPolicy
			P
			S
			O
		}{t, pk, ps, ob}
	case capDecisionSink | capPlanStats | capObserve:
		out = struct {
			*timedPolicy
			D
			S
			O
		}{t, ds, ps, ob}
	default:
		out = struct {
			*timedPolicy
			P
			D
			S
			O
		}{t, pk, ds, ps, ob}
	}
	if got, want := capsOf(out), capsOf(inner); got != want {
		return nil, nil, fmt.Errorf("wrapped %s implements optional interfaces %04b, inner %04b", inner.Name(), got, want)
	}
	return out, t, nil
}
