package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"muri/internal/blossom"
	"muri/internal/engine"
	"muri/internal/job"
	"muri/internal/metrics"
	"muri/internal/sched"
	"muri/internal/sim"
	"muri/internal/trace"
)

const (
	// paperJobs cuts each Philly trace for sim-paper: small enough that
	// no bucket reaches the sharding, sparsification or incremental
	// paths, so the planner runs the exact Blossom path.
	paperJobs = 250
	// paperSets is how many independently seeded sets of the eight
	// traces one sim-paper run replays; scaleSets likewise for sim-scale.
	// A run's figures average over the sets, so they depend on the
	// seed's draw much less than one set's would.
	paperSets = 4
	scaleSets = 4
	// scaleJobs cuts trace4 for sim-scale: short enough to replay every
	// set within one run, long enough that every scale mechanism
	// (shards, replay, pair cache, completion heap) engages.
	scaleJobs = 500
	// scaleShards is sim-scale's shard count.
	scaleShards = 4
	// clusterGPUs is the paper's 8×8 testbed.
	clusterGPUs = 64
	// warmJobs cuts sim-scale's warm-up trace.
	warmJobs = 250
)

var paperPolicies = []string{"srtf", "muri-s", "muri-l"}

func newPolicy(name string) sched.Policy {
	switch name {
	case "srtf":
		return sched.SRTF()
	case "muri-s":
		return sched.NewMuriS()
	case "muri-l":
		return sched.NewMuriL()
	case "muri-l-scale":
		return sched.NewMuriLScale(scaleShards)
	}
	panic("perfbench: unknown policy " + name)
}

// seededTrace generates Philly trace i (0-based) of trace.PhillyConfigs
// for input set k, seeded from the run's seed in place of the fixed
// seed, and cuts it to its first n jobs.
func seededTrace(e *env, k, i, n int) trace.Trace {
	cfg := trace.PhillyConfigs(clusterGPUs)[i]
	cfg.Seed = e.seed*1_000_000 + int64(k)*100 + cfg.Seed
	t0 := time.Now()
	tr := trace.Generate(cfg)
	e.rec.add("trace", "trace.Generate", "", int64(i), t0, time.Now())
	tr.Specs = tr.Specs[:n]
	return tr
}

// A simulator workload's input is a list of sets; one repetition
// replays every case of one set.
type simSets [][]*replayCase

func setupSimPaper(e *env) (any, error) {
	sets := make(simSets, paperSets)
	for k := range sets {
		for i := range trace.PhillyConfigs(clusterGPUs) {
			tr := seededTrace(e, k, i, paperJobs)
			for _, t := range []trace.Trace{tr, tr.ZeroSubmit()} {
				for _, p := range paperPolicies {
					sets[k] = append(sets[k], &replayCase{tr: t, policy: p})
				}
			}
		}
	}
	// Warm up on trace 1 as trace.PhillyConfigs seeds it, the same in
	// every run so the set-up's cost does not follow the seed, and its
	// zero-submit variant, under every policy.
	tr := trace.Generate(trace.PhillyConfigs(clusterGPUs)[0])
	tr.Specs = tr.Specs[:paperJobs]
	var warm []*replayCase
	for _, t := range []trace.Trace{tr, tr.ZeroSubmit()} {
		for _, p := range paperPolicies {
			warm = append(warm, &replayCase{tr: t, policy: p})
		}
	}
	return sets, warmUp(e, warm)
}

func setupSimScale(e *env) (any, error) {
	sets := make(simSets, scaleSets)
	for k := range sets {
		sets[k] = []*replayCase{{tr: seededTrace(e, k, 3, scaleJobs), policy: "muri-l-scale"}}
	}
	// Warm up on a cut of trace4 as trace.PhillyConfigs seeds it, the
	// same in every run, so the set-up's cost does not follow the seed.
	tr := trace.Generate(trace.PhillyConfigs(clusterGPUs)[3])
	tr.Specs = tr.Specs[:warmJobs]
	return sets, warmUp(e, []*replayCase{{tr: tr, policy: "muri-l-scale"}})
}

// warmUp replays cases once, unmeasured, as the last step of set-up: it
// grows the heap, faults its pages in and fills the matcher pool, so the
// first measured repetition does not pay for that alone. Its cases are
// not measured; a measured case's first replay sets the digest that its
// later replays must reproduce.
func warmUp(e *env, cases []*replayCase) error {
	out := &outcome{}
	for _, c := range cases {
		replay(e, c, false, -1, out)
	}
	if len(out.problems) > 0 {
		return errors.New(strings.Join(out.problems, "; "))
	}
	return nil
}

// replayCase is one (trace, policy) pair and what its first replay
// produced; every later replay must reproduce it exactly.
type replayCase struct {
	tr     trace.Trace
	policy string
	digest string
	// summary renders the run's summary and engine counters.
	summary string
	res     sim.Result
	// cpu and bare list the process CPU seconds of the case's measured
	// replays and of a traced run's bare ones.
	cpu, bare []float64
}

// replayed is what one replay returns to the loop.
type replayed struct {
	// cpu is the replay's process CPU time in seconds.
	cpu float64
	// policy is the bare policy instance, for its counters.
	policy sched.Policy
	// done counts the jobs that completed.
	done int
}

// replay runs one simulation and checks it against the case's first
// replay. With recorded set (traced runs only) the policy goes behind the
// Plan timer and the replay's spans are recorded; otherwise it runs bare.
func replay(e *env, c *replayCase, recorded bool, id int64, out *outcome) replayed {
	cfg := sim.DefaultConfig()
	cfg.EventDriven = c.policy == "muri-l-scale"
	h := sha256.New()
	cfg.Observer = func(d engine.Decision) {
		h.Write([]byte(d.String()))
		h.Write([]byte{'\n'})
	}
	inner := newPolicy(c.policy)
	run := inner
	if recorded {
		var err error
		if run, _, err = wrap(inner, e.rec, id, "sim"); err != nil {
			out.failf("%v", err)
			out.attempted++
			out.failed++
			return replayed{policy: inner}
		}
	}
	// Every replay starts from the same heap state, so it pays for its
	// own garbage only, and its collections fall at the same points.
	runtime.GC()
	c0, t0 := cpuSeconds(), time.Now()
	res := sim.Run(cfg, c.tr, run)
	t1, c1 := time.Now(), cpuSeconds()
	if recorded {
		e.rec.add("sim", "sim.Run", "", id, t0, t1)
	}
	digest := hex.EncodeToString(h.Sum(nil))
	summary := fmt.Sprintf("%+v %+v", res.Summary, res.Engine)
	bad := false
	if res.Summary.Jobs != len(c.tr.Specs) || len(res.Jobs) != len(c.tr.Specs) {
		out.failf("%s/%s: %d of %d jobs completed", c.tr.Name, c.policy, res.Summary.Jobs, len(c.tr.Specs))
		bad = true
	}
	if c.digest == "" {
		c.digest, c.summary, c.res = digest, summary, res
	} else if digest != c.digest || summary != c.summary {
		out.failf("%s/%s: repeated replay diverged (recorded=%v): digest %s vs %s, summary %s vs %s",
			c.tr.Name, c.policy, recorded, digest[:16], c.digest[:16], summary, c.summary)
		bad = true
	}
	out.attempted++
	if bad {
		out.failed++
	}
	r := replayed{cpu: c1 - c0, policy: inner}
	for _, j := range res.Jobs {
		if j.State == job.Done {
			r.done++
		}
	}
	return r
}

// simTally accumulates the per-layer counters of the traced replays.
type simTally struct {
	reps                  int
	engine                metrics.EngineStats
	heapPeak              int
	heapRebuilds, heapFix uint64
	plan                  metrics.ShardStats
	cacheHits, cacheLook  uint64
	jobs                  int
}

func (t *simTally) add(c *replayCase, p sched.Policy) {
	r := c.res
	t.engine.Rounds += r.Engine.Rounds
	t.engine.Decisions += r.Engine.Decisions
	t.engine.Preemptions += r.Engine.Preemptions
	t.jobs += len(c.tr.Specs)
	if r.Heap.Peak > t.heapPeak {
		t.heapPeak = r.Heap.Peak
	}
	t.heapRebuilds += r.Heap.Rebuilds
	t.heapFix += r.Heap.Fixes
	if m, ok := p.(*sched.Muri); ok {
		ps := m.PlanStats()
		t.plan.FreshSweeps += ps.FreshSweeps
		t.plan.ReplaySweeps += ps.ReplaySweeps
		t.plan.FixpointSweeps += ps.FixpointSweeps
		t.plan.ShardTasks += ps.ShardTasks
		t.plan.PairHits += ps.PairHits
		t.plan.PairMisses += ps.PairMisses
		if ps.PairEntries > t.plan.PairEntries {
			t.plan.PairEntries = ps.PairEntries
		}
		cs := m.Grouping.Cache.Stats()
		t.cacheHits += cs.Hits
		t.cacheLook += cs.Lookups()
	}
}

// setFigures are a simulator run's per-set figures: each is the sum over
// the set's cases of the case's least replay CPU time, so every set
// counts once however often it ran. The least, because the same replay
// repeats exactly and interference only ever adds time.
type setFigures struct {
	// cpu is the CPU time to replay the set, in seconds; bare is the same
	// for a traced run's bare repetitions.
	cpu, bare []float64
}

// measureSims drives the replay loop shared by both simulator
// workloads. It cycles through the sets until the run's time is up and
// every set has run. Untraced, every repetition is measured and runs
// bare. Traced, each set runs twice in a row: bare (the untraced
// reference), then recorded. Every replay must reproduce its
// case's first replay, so the repeated sets and the bare passes are
// also the determinism checks.
func measureSims(e *env, sets simSets, out *outcome) (setFigures, *simTally) {
	t := &simTally{}
	per, minReps := 1, len(sets)
	if e.rec != nil {
		per, minReps = 2, 2*len(sets)
	}
	cpus := make([][]float64, len(sets))
	var pool metrics.MatcherPoolStats
	jobsDone, jobsRun := 0, 0
	start := time.Now()
	for rep := 0; rep < minReps || time.Since(start) < e.seconds; rep++ {
		k := (rep / per) % len(sets)
		recorded := e.rec != nil && rep%2 == 1
		measured := e.rec == nil || recorded
		runtime.GC() // every repetition starts from the same heap state
		before := blossom.PoolStats()
		cpu := 0.0
		for i, c := range sets[k] {
			r := replay(e, c, recorded, int64(rep*len(sets[k])+i), out)
			cpu += r.cpu
			jobsDone += r.done
			jobsRun += len(c.tr.Specs)
			if recorded {
				t.add(c, r.policy)
			}
			if measured {
				c.cpu = append(c.cpu, r.cpu)
			} else {
				c.bare = append(c.bare, r.cpu)
			}
		}
		after := blossom.PoolStats()
		if measured {
			cpus[k] = append(cpus[k], cpu)
		}
		if recorded {
			t.reps++
			pool.Gets += after.Gets - before.Gets
			pool.News += after.News - before.News
		}
	}
	var f setFigures
	all := sha256.New()
	for _, set := range sets {
		sum, bareSum := 0.0, 0.0
		for _, c := range set {
			fmt.Fprintln(all, c.digest)
			sum += least(c.cpu)
			bareSum += least(c.bare)
		}
		f.cpu = append(f.cpu, sum)
		f.bare = append(f.bare, bareSum)
	}
	fmt.Printf("decision digest of all %d replay cases: %x\n", len(sets)*len(sets[0]), all.Sum(nil)[:12])
	fmt.Printf("set repetition CPU times (s): %.3f\n", cpus)
	out.e2e["ok_frac"] = ratio(float64(jobsDone), float64(jobsRun))
	out.layer["blossom.pool_gets"] = ratio(float64(pool.Gets), float64(t.reps))
	out.layer["blossom.pool_hit_ratio"] = pool.HitRate()
	out.e2e["cpu_s"] = mean(f.cpu)
	return f, t
}

func measureSimPaper(e *env, in any, out *outcome) error {
	sets := in.(simSets)
	f, tally := measureSims(e, sets, out)
	// The paper's quality claim: Muri-L's average JCT against SRTF's, as
	// a geometric mean over every trace of every set.
	logSum, n := 0.0, 0
	var muriJCT, muriMakespan []float64
	for _, set := range sets {
		for i := 0; i+2 < len(set); i += len(paperPolicies) {
			srtf, muriL := set[i].res.Summary, set[i+2].res.Summary
			logSum += math.Log(float64(srtf.AvgJCT) / float64(muriL.AvgJCT))
			muriJCT = append(muriJCT, muriL.AvgJCT.Hours())
			muriMakespan = append(muriMakespan, muriL.Makespan.Hours())
			n++
		}
	}
	speedup := math.Exp(logSum / float64(n))
	if !(speedup > 1) {
		out.failf("Muri-L does not beat SRTF: geomean avg-JCT speedup %.3f", speedup)
	}
	fmt.Printf("sim-paper: Muri-L avg-JCT speedup over SRTF (geomean of %d traces) %.4f\n", n, speedup)
	out.layer["sim.jct_speedup_vs_srtf"] = speedup
	out.layer["sim.avg_jct_h"] = mean(muriJCT)
	out.layer["sim.makespan_h"] = mean(muriMakespan)
	finishSims(e, "sim-paper", f, tally, out)
	return nil
}

func measureSimScale(e *env, in any, out *outcome) error {
	sets := in.(simSets)
	f, tally := measureSims(e, sets, out)
	var jct, makespan []float64
	for _, set := range sets {
		c := set[0]
		jct = append(jct, c.res.Summary.AvgJCT.Hours())
		makespan = append(makespan, c.res.Summary.Makespan.Hours())
	}
	out.layer["sim.avg_jct_h"] = mean(jct)
	out.layer["sim.makespan_h"] = mean(makespan)
	finishSims(e, "sim-scale", f, tally, out)
	return nil
}

// finishSims fills a traced run's per-layer metrics from the trace file.
func finishSims(e *env, name string, f setFigures, t *simTally, out *outcome) {
	if e.rec == nil {
		return
	}
	st, err := e.rec.flush(e, name)
	if err != nil {
		out.failf("trace export: %v", err)
		return
	}
	n := float64(t.reps)
	replayS := st.total("sim.Run") / n
	planS := st.total("Policy.Plan") / n
	selfS := st.self["sim"] / n
	// Self time is defined as replay minus its Plan children, so the two
	// must account for the traced wall time exactly — this checks that
	// the spans read back from the file nest as recorded.
	if math.Abs(planS+selfS-replayS) > 0.01*replayS {
		out.failf("sched.plan_s %.4f + sim.self_s %.4f do not account for traced wall %.4f", planS, selfS, replayS)
	}
	plans := st.durs["Policy.Plan"]
	for i := range plans {
		plans[i] *= 1000
	}
	l := out.layer
	l["sched.plan_s"] = planS
	l["sched.plan_calls"] = float64(len(plans)) / n
	l["sched.plan_p50_ms"] = median(plans)
	l["sched.plan_p99_ms"] = quantile(plans, 0.99)
	l["sim.self_s"] = selfS
	l["sim.wall_s"] = replayS
	l["sim.heap_peak"] = float64(t.heapPeak)
	l["sim.heap_rebuilds"] = float64(t.heapRebuilds) / n
	l["sim.heap_fixes"] = float64(t.heapFix) / n
	l["engine.rounds"] = float64(t.engine.Rounds) / n
	l["engine.decisions"] = float64(t.engine.Decisions) / n
	l["engine.preemptions_per_job"] = ratio(float64(t.engine.Preemptions), float64(t.jobs))
	l["core.fresh_sweeps"] = float64(t.plan.FreshSweeps) / n
	l["core.replay_sweeps"] = float64(t.plan.ReplaySweeps) / n
	l["core.fixpoint_sweeps"] = float64(t.plan.FixpointSweeps) / n
	l["core.reuse_ratio"] = t.plan.ReuseRatio()
	l["core.shard_tasks"] = float64(t.plan.ShardTasks) / n
	l["core.pair_hit_ratio"] = ratio(float64(t.plan.PairHits), float64(t.plan.PairHits+t.plan.PairMisses))
	l["core.pair_entries"] = float64(t.plan.PairEntries)
	l["interleave.effcache_lookups"] = float64(t.cacheLook) / n
	l["interleave.effcache_hit_ratio"] = ratio(float64(t.cacheHits), float64(t.cacheLook))
	l["trace.generate_s"] = st.total("trace.Generate") / float64(e.setups)
	l["trace.overhead_frac"] = mean(f.cpu)/mean(f.bare) - 1
}
