package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"muri/internal/engine"
	"muri/internal/executor"
	"muri/internal/proto"
	"muri/internal/sched"
	"muri/internal/server"
	"muri/internal/telemetry"
	"muri/internal/workload"
)

const (
	// loadRate is daemon-load's open-loop submission rate, jobs per
	// second: well below the knee of a 2-CPU host. At 100 jobs/s the two
	// executors held about 16 GPUs' worth of jobs; when the host stole
	// CPU the queue grew, preemptions per job doubled, and CPU time per
	// job and peak RSS followed them by a quarter between runs.
	loadRate = 50
	// loadIterations and loadTimeScale make each job a few tens of
	// milliseconds of executor time.
	loadIterations = 20
	loadTimeScale  = 0.005
	// executorGPUs is each in-process executor's inventory.
	executorGPUs = 8
	// loadWindow bounds unacked submissions on the one connection; a
	// stalled daemon blocks the generator, which then runs late (and
	// lateness is reported) rather than queueing without limit.
	loadWindow = 1024
	// loadWarmJobs, two blocks of the job mix, run to completion at the
	// end of set-up, before the open loop starts.
	loadWarmJobs = 48
	// loadStatJobs is how many consecutive submissions (two seconds of
	// load) share one latency or CPU-time window; see windowed.
	loadStatJobs = 2 * loadRate
)

// rig is one in-process durable daemon plus its executors.
type rig struct {
	srv    *server.Server
	addr   string
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func discard(string, ...any) {}

// startRig serves cfg on a loopback port and attaches agents executors
// (fault is each executor's per-iteration hook), then waits until every
// executor has registered.
func startRig(cfg server.Config, agents int, fault executor.FaultFunc) (*rig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &rig{srv: server.New(cfg), addr: ln.Addr().String()}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		_ = r.srv.Serve(ln)
	}()
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	for i := 0; i < agents; i++ {
		a := &executor.Agent{MachineID: "machine-" + strconv.Itoa(i), GPUs: executorGPUs, Fault: fault, Logf: discard}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			_ = a.Run(ctx, r.addr)
		}()
	}
	if agents == 0 {
		return r, nil
	}
	c, err := server.Dial(r.addr)
	if err != nil {
		r.close()
		return nil, err
	}
	defer c.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c.Status()
		if err == nil && st.Executors == agents {
			return r, nil
		}
		if time.Now().After(deadline) {
			r.close()
			return nil, fmt.Errorf("executors never registered (status err %v)", err)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// close stops the executors and the daemon and waits for all of them.
func (r *rig) close() {
	r.cancel()
	r.srv.Close()
	r.wg.Wait()
}

// loadRig is daemon-load's input: a running daemon and the jobs the
// open loop will submit.
type loadRig struct {
	*rig
	specs []proto.JobSpec
	hooks *loadHooks
	// plan times the daemon's Policy.Plan calls.
	plan *timedPolicy
	// warm is the daemon's status, metrics and Plan call count after the
	// warm-up, which the per-layer figures subtract.
	warm      proto.StatusAck
	warmProm  map[string]float64
	warmPlans int
}

// loadHooks timestamps each job's launch decision (engine Observer) and
// first iteration (executor Fault hook). Job IDs are daemon-assigned.
type loadHooks struct {
	mu     sync.Mutex
	launch map[int64]time.Time
	start  map[int64]time.Time
}

func (h *loadHooks) decision(d engine.Decision) {
	if d.Action != engine.ActLaunch {
		return
	}
	now := time.Now()
	h.mu.Lock()
	for _, id := range d.Jobs {
		if _, ok := h.launch[int64(id)]; !ok {
			h.launch[int64(id)] = now
		}
	}
	h.mu.Unlock()
}

func (h *loadHooks) fault(jobID, _ int64) error {
	now := time.Now()
	h.mu.Lock()
	if _, ok := h.start[jobID]; !ok {
		h.start[jobID] = now
	}
	h.mu.Unlock()
	return nil
}

// loadGPUs are the job sizes of daemon-load's mix.
var loadGPUs = []int{1, 2, 4}

// loadSpecs generates the open loop's n jobs. Every block of
// len(zoo)×len(loadGPUs) consecutive jobs holds each (model, size) pair
// once, in an order drawn from the seed: the seed moves which job comes
// when, not how much work a run offers.
func loadSpecs(seed int64, n int) []proto.JobSpec {
	rng := rand.New(rand.NewSource(seed))
	zoo := workload.Zoo()
	block := len(zoo) * len(loadGPUs)
	specs := make([]proto.JobSpec, 0, n)
	for len(specs) < n {
		for _, k := range rng.Perm(block) {
			if len(specs) == n {
				break
			}
			m := zoo[k%len(zoo)]
			specs = append(specs, proto.JobSpec{
				Model:      m.Name,
				Stages:     [4]time.Duration(m.Stages),
				Iterations: loadIterations,
				GPUs:       loadGPUs[k/len(zoo)],
			})
		}
	}
	return specs
}

func setupDaemonLoad(e *env) (any, error) {
	specs := loadSpecs(e.seed, loadWarmJobs+int(e.seconds.Seconds()*loadRate))
	dir, err := os.MkdirTemp(e.work, "load-")
	if err != nil {
		return nil, err
	}
	hooks := &loadHooks{launch: map[int64]time.Time{}, start: map[int64]time.Time{}}
	policy, plan, err := wrap(sched.NewMuriL(), e.rec, 0, "")
	if err != nil {
		return nil, err
	}
	r, err := startRig(server.Config{
		Policy:    policy,
		TimeScale: loadTimeScale,
		StateDir:  dir,
		Observer:  hooks.decision,
		Logf:      discard,
	}, 2, hooks.fault)
	if err != nil {
		return nil, err
	}
	lr := &loadRig{rig: r, specs: specs[loadWarmJobs:], hooks: hooks, plan: plan}
	if err := lr.warmUp(specs[:loadWarmJobs]); err != nil {
		r.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return lr, nil
}

// warmUp submits specs in one batch and waits until they are done, so
// the open loop meets a daemon whose heap, WAL segment and connections
// are already in use.
func (lr *loadRig) warmUp(specs []proto.JobSpec) error {
	c, err := server.Dial(lr.addr)
	if err != nil {
		return err
	}
	defer c.Close()
	res, err := c.SubmitBatch(specs)
	if err != nil {
		return err
	}
	for _, sr := range res {
		if sr.Err != "" {
			return fmt.Errorf("submit refused: %s", sr.Err)
		}
	}
	if lr.warm, err = c.WaitAllDone(30*time.Second, time.Millisecond); err != nil {
		return err
	}
	lr.warmPlans = len(lr.plan.latencies())
	lr.warmProm, err = scrape(lr.srv)
	return err
}

// windowed splits xs, one value per submission in due order, into
// windows of loadStatJobs and returns the median over the windows of
// each window's q-quantile: a burst of interference from outside the
// benchmark moves one window's figure, not the run's.
func windowed(xs []float64, q float64) float64 {
	var qs []float64
	for lo := 0; lo < len(xs); lo += loadStatJobs {
		qs = append(qs, quantile(xs[lo:min(lo+loadStatJobs, len(xs))], q))
	}
	return median(qs)
}

func measureDaemonLoad(e *env, in any, out *outcome) error {
	lr := in.(*loadRig)
	n := len(lr.specs)
	due := make([]time.Time, n)
	late := make([]float64, n)
	acked := make([]time.Time, n)
	ids := make([]int64, n)
	refused := 0

	c, err := server.Dial(lr.addr)
	if err != nil {
		return err
	}
	defer c.Close()
	stream := c.SubmitStream(loadWindow)
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for res := range stream.Results() {
			i := int(res.Seq) - 1
			acked[i] = time.Now()
			if res.Err != nil {
				refused++
				continue
			}
			ids[i] = res.ID
		}
	}()
	period := time.Second / loadRate
	// marks holds the process CPU time at each window's first due time.
	var marks []float64
	t0 := time.Now()
	for i, spec := range lr.specs {
		due[i] = t0.Add(time.Duration(i) * period)
		if i%loadStatJobs == 0 {
			marks = append(marks, cpuSeconds())
		}
		if d := time.Until(due[i]); d > 0 {
			time.Sleep(d)
		}
		late[i] = ms(time.Since(due[i]))
		if err := stream.Send(spec); err != nil {
			out.failf("submit %d: %v", i, err)
			break
		}
	}
	stream.CloseSend()
	marks = append(marks, cpuSeconds())
	rwg.Wait()
	if err := stream.Err(); err != nil {
		out.failf("submit stream: %v", err)
	}
	st, err := c.WaitAllDone(60*time.Second, 100*time.Millisecond)
	if err != nil {
		out.failf("waiting for jobs: %v", err)
	}

	accepted := map[int64]bool{}
	for _, id := range ids {
		accepted[id] = id != 0
	}
	done := 0
	var jct []float64
	for _, js := range st.Jobs {
		if accepted[js.ID] && js.State == "done" {
			done++
			jct = append(jct, js.JCT.Seconds()*loadTimeScale)
		}
	}
	if st.DeadLetter > 0 {
		out.failf("%d jobs dead-lettered", st.DeadLetter)
	}
	if refused > 0 {
		out.failf("%d submissions refused", refused)
	}
	if done != n {
		out.failf("%d of %d submitted jobs completed", done, n)
	}
	out.attempted = n
	out.failed = n - done

	// Per job: due → ack (front door), due → launch decision (front door
	// and schedule loop; the decision can precede the ack's arrival),
	// launch → first iteration (launch RPC and executor).
	lr.hooks.mu.Lock()
	var ack, ackStart, dueStart, toLaunch, toStart []float64
	for i := range lr.specs {
		id := ids[i]
		if id == 0 || acked[i].IsZero() {
			continue
		}
		ack = append(ack, ms(acked[i].Sub(due[i])))
		e.rec.add("proto", "submit", "", id, due[i], acked[i])
		launch, lok := lr.hooks.launch[id]
		start, sok := lr.hooks.start[id]
		if !lok || !sok {
			continue
		}
		ackStart = append(ackStart, ms(start.Sub(acked[i])))
		dueStart = append(dueStart, ms(start.Sub(due[i])))
		toLaunch = append(toLaunch, ms(launch.Sub(due[i])))
		toStart = append(toStart, ms(start.Sub(launch)))
		e.rec.add("server", "submit_to_launch", "", id, due[i], launch)
		e.rec.add("executor", "launch_to_start", "", id, launch, start)
	}
	lr.hooks.mu.Unlock()
	if len(dueStart) != done {
		out.failf("%d completed jobs, but %d observed starting", done, len(dueStart))
	}
	fmt.Printf("daemon-load: %d jobs at %d/s, generator late p99 %.3f ms, due→start p50 %.2f ms p90 %.2f ms p99 %.2f ms, JCT p50 %.3f s p90 %.3f s\n",
		n, loadRate, quantile(late, 0.99), median(dueStart), quantile(dueStart, 0.9), quantile(dueStart, 0.99), median(jct), quantile(jct, 0.9))
	if eng := st.Engine; eng != nil {
		fmt.Printf("daemon-load: %d rounds, %d decisions, %d preemptions\n", eng.Rounds, eng.Decisions, eng.Preemptions)
	}

	// cpu_s is the process's CPU time (daemon, executors and this
	// generator) per 1,000 jobs of open loop: the median over the windows
	// of submissions, leaving out a short last window. Latencies are
	// wall-clock: when the host stole CPU from this one, the median JCT
	// moved by a third and its p90 by more between runs, so they are
	// per-layer figures.
	var perWindow []float64
	for k := 1; k < len(marks); k++ {
		jobs := min(loadStatJobs, n-(k-1)*loadStatJobs)
		if jobs == loadStatJobs || len(marks) == 2 {
			perWindow = append(perWindow, (marks[k]-marks[k-1])*1000/float64(jobs))
		}
	}
	out.e2e["cpu_s"] = median(perWindow)
	out.e2e["ok_frac"] = ratio(float64(done), float64(n))
	if e.rec == nil {
		return nil
	}

	l := out.layer
	l["daemon.due_start_p50_ms"] = windowed(dueStart, 0.5)
	l["daemon.due_start_p90_ms"] = windowed(dueStart, 0.9)
	l["daemon.submit_ack_p50_ms"] = median(ack)
	l["daemon.submit_ack_p99_ms"] = quantile(ack, 0.99)
	l["daemon.submit_start_p50_ms"] = median(ackStart)
	l["daemon.submit_start_p99_ms"] = quantile(ackStart, 0.99)
	l["daemon.jct_p50_s"] = windowed(jct, 0.5)
	l["daemon.jct_p90_s"] = windowed(jct, 0.9)
	l["daemon.failed_frac"] = ratio(float64(n-done), float64(n))
	l["daemon.gen_late_p99_ms"] = quantile(late, 0.99)
	l["server.submit_to_launch_p50_ms"] = median(toLaunch)
	l["server.submit_to_launch_p99_ms"] = quantile(toLaunch, 0.99)
	l["executor.launch_to_start_p99_ms"] = quantile(toStart, 0.99)
	plans := lr.plan.latencies()[lr.warmPlans:]
	l["sched.plan_s"] = sum(plans) / 1000
	l["sched.plan_calls"] = float64(len(plans))
	l["sched.plan_p50_ms"] = median(plans)
	l["sched.plan_p99_ms"] = quantile(plans, 0.99)
	// Counters and histograms cover the open loop only: the warm-up's
	// share is subtracted.
	w := lr.warm
	if ing, wi := st.Ingest, w.Ingest; ing != nil && wi != nil {
		accepted := float64(ing.Accepted - wi.Accepted)
		l["ingest.accepted"] = accepted
		l["ingest.rejected"] = float64(ing.Rejected - wi.Rejected)
		l["ingest.throttled"] = float64(ing.Throttled - wi.Throttled)
		l["ingest.batch_mean"] = ratio(accepted, float64(ing.Batches-wi.Batches))
	}
	if eng, we := st.Engine, w.Engine; eng != nil && we != nil {
		l["engine.rounds"] = float64(eng.Rounds - we.Rounds)
		l["engine.decisions"] = float64(eng.Decisions - we.Decisions)
		l["engine.preemptions_per_job"] = ratio(float64(eng.Preemptions-we.Preemptions), float64(n))
	}
	if d, wd := st.Durability, w.Durability; d != nil && wd != nil {
		l["wal.appends_per_job"] = ratio(float64(d.Appends-wd.Appends), float64(n))
		l["wal.fsyncs"] = float64(d.Fsyncs - wd.Fsyncs)
	}
	prom, err := scrape(lr.srv)
	if err != nil {
		out.failf("metrics: %v", err)
	} else {
		for k, v := range lr.warmProm {
			prom[k] -= v
		}
		l["server.round_p50_ms"] = 1000 * histQuantile(prom, "muri_round_latency_seconds", 0.5)
		l["server.round_p99_ms"] = 1000 * histQuantile(prom, "muri_round_latency_seconds", 0.99)
		l["wal.fsync_p99_ms"] = 1000 * histQuantile(prom, "muri_wal_fsync_seconds", 0.99)
	}
	_, err = daemonSpans(e, "daemon-load", out)
	return err
}

// daemonSpans exports the daemon workloads' spans. Their tracing
// overhead is the recorder's own time as a share of the measured phase:
// a daemon cannot run a bare and a recorded repetition side by side the
// way a replay can.
func daemonSpans(e *env, name string, out *outcome) (*spanStats, error) {
	st, err := e.rec.flush(e, name)
	if err != nil {
		return nil, fmt.Errorf("trace export: %w", err)
	}
	out.layer["trace.overhead_frac"] = e.rec.cost.Seconds() / e.seconds.Seconds()
	return st, nil
}

func scrape(srv *server.Server) (map[string]float64, error) {
	var b strings.Builder
	if err := srv.Metrics().WritePrometheus(&b); err != nil {
		return nil, err
	}
	return telemetry.ParsePrometheus(b.String())
}

// histQuantile estimates a quantile of a Prometheus histogram from its
// cumulative buckets, interpolating linearly inside the bucket the
// quantile falls in (the histogram_quantile rule).
func histQuantile(prom map[string]float64, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range prom {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64)
		if err != nil {
			continue // +Inf
		}
		bs = append(bs, bucket{le, v})
	}
	total := prom[name+"_count"]
	if total == 0 || len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	rank := q * total
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if b.n == prev {
				return b.le
			}
			return lo + (b.le-lo)*(rank-prev)/(b.n-prev)
		}
		lo, prev = b.le, b.n
	}
	return bs[len(bs)-1].le
}
