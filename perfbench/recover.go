package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"muri/internal/ingest"
	"muri/internal/proto"
	"muri/internal/sched"
	"muri/internal/server"
	"muri/internal/wal"
	"muri/internal/workload"
)

const (
	// recoverJobs short jobs, submitted recoverBatch at a time, leave a
	// WAL tail of tens of thousands of records behind them.
	recoverJobs       = 2000
	recoverBatch      = 200
	recoverIterations = 5
	recoverTimeScale  = 0.001
	// electionTTL is the fixed leader lease of the failover pair: the
	// floor of every failover time. A new standby's election clock runs
	// before its first frame arrives, so the lease must outlast the
	// snapshot handshake (about 0.2 s): at 0.5 s a host slowed 2.7-fold
	// would see the standby promote itself before it ever attached.
	electionTTL = time.Second
	// restartsPerFailover is how many restarts each iteration times. A
	// restart takes a fraction of a failover's time, and cpu_s is the
	// least over the restarts, so more of them make it steadier.
	restartsPerFailover = 6
	// catchUpPoll is how often the failover polls both daemons' Status,
	// each of which carries the whole job table.
	catchUpPoll = 10 * time.Millisecond
)

// walDir is daemon-recover's input: a pristine state dir holding only a
// WAL tail (no snapshot), and the job table the daemon that wrote it
// reported before it shut down.
type walDir struct {
	dir     string
	jobs    []proto.JobStatus
	records int
	bytes   int64
}

func setupDaemonRecover(e *env) (any, error) {
	dir, err := os.MkdirTemp(e.work, "wal-")
	if err != nil {
		return nil, err
	}
	r, err := startRig(server.Config{
		Policy:        sched.NewMuriL(),
		TimeScale:     recoverTimeScale,
		StateDir:      dir,
		SnapshotEvery: time.Hour, // keep the whole history in the tail
		Logf:          discard,
	}, 2, nil)
	if err != nil {
		return nil, err
	}
	defer r.close()
	c, err := server.Dial(r.addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(e.seed))
	zoo := workload.Zoo()
	batch := make([]proto.JobSpec, 0, recoverBatch)
	for i := 0; i < recoverJobs; i++ {
		m := zoo[rng.Intn(len(zoo))]
		batch = append(batch, proto.JobSpec{
			Model:      m.Name,
			Stages:     [4]time.Duration(m.Stages),
			Iterations: recoverIterations + int64(rng.Intn(recoverIterations)),
			GPUs:       []int{1, 2, 4}[rng.Intn(3)],
		})
		if len(batch) == recoverBatch || i == recoverJobs-1 {
			res, err := c.SubmitBatch(batch)
			if err != nil {
				return nil, fmt.Errorf("submit batch: %w", err)
			}
			for _, sr := range res {
				if sr.Err != "" {
					return nil, fmt.Errorf("submit refused: %s", sr.Err)
				}
			}
			batch = batch[:0]
		}
	}
	// Each Status carries the whole job table: polling it often would
	// make garbage enough to move the run's peak RSS.
	st, err := c.WaitAllDone(60*time.Second, 100*time.Millisecond)
	if err != nil {
		return nil, fmt.Errorf("building the WAL: %w", err)
	}
	c.Close()
	r.close() // graceful: the WAL tail is flushed and fsynced
	rec, err := wal.Recover(dir)
	if err != nil {
		return nil, err
	}
	if rec.Snapshot != nil || rec.Corruption != nil {
		return nil, fmt.Errorf("pristine WAL has snapshot=%v corruption=%v", rec.Snapshot != nil, rec.Corruption)
	}
	w := &walDir{dir: dir, jobs: st.Jobs, records: len(rec.Records)}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, ent := range ents {
		if info, err := ent.Info(); err == nil && strings.HasSuffix(ent.Name(), ".seg") {
			w.bytes += info.Size()
		}
	}
	return w, nil
}

// jobTable renders a job table for comparison: what must survive a
// restart is each job's identity, state and progress.
func jobTable(jobs []proto.JobStatus) string {
	var b strings.Builder
	for _, j := range jobs {
		fmt.Fprintf(&b, "%d %s %s %d/%d\n", j.ID, j.Model, j.State, j.DoneIterations, j.Iterations)
	}
	return b.String()
}

func measureDaemonRecover(e *env, in any, out *outcome) error {
	w := in.(*walDir)
	want := jobTable(w.jobs)
	var restarts, failovers, lags []float64
	ok := 0
	start := time.Now()
	for i := int64(0); i < 2 || time.Since(start) < e.seconds; i++ {
		// (a) Restart from a pristine copy; first answered Status ends it.
		for j := int64(0); j < restartsPerFailover; j++ {
			id := i*restartsPerFailover + j
			copyA, err := copyDir(w.dir, e.work)
			if err != nil {
				return err
			}
			t0 := time.Now()
			rec, err := wal.Recover(copyA) // read-only: copyA stays pristine
			t1 := time.Now()
			if err != nil {
				return err
			}
			e.rec.add("wal", "wal.Recover", "", id, t0, t1)
			runtime.GC() // start every timed restart from the same heap state
			got, d, cpu, err := restart(copyA)
			out.attempted++
			switch {
			case err != nil:
				out.failf("restart %d: %v", id, err)
			case len(rec.Records) != w.records:
				out.failf("restart %d: wal.Recover read %d records, want %d", id, len(rec.Records), w.records)
			case jobTable(got) != want:
				out.failf("restart %d: recovered job table differs from the one the WAL was written with", id)
			default:
				ok++
				restarts = append(restarts, cpu)
				e.rec.add("server", "restart", "", id, t1, t1.Add(d))
			}
			os.RemoveAll(copyA)
		}

		// (b) Crash a caught-up leader; the standby's first accepted
		// write ends it.
		copyB, err := copyDir(w.dir, e.work)
		if err != nil {
			return err
		}
		fo, lag, err := failover(e, copyB, i)
		out.attempted++
		if err != nil {
			out.failf("failover %d: %v", i, err)
		} else {
			ok++
			failovers = append(failovers, ms(fo))
			lags = append(lags, float64(lag))
			fmt.Printf("failover %d: %.1f ms (lag %d when the standby attached)\n", i, ms(fo), lag)
		}
		os.RemoveAll(copyB)
	}
	out.failed = out.attempted - ok
	fmt.Printf("daemon-recover: %d WAL records (%d bytes); restart median %.3f CPU s, failover median %.1f ms\n",
		w.records, w.bytes, median(restarts), median(failovers))
	// Restart cost follows the job table (always recoverJobs jobs) more
	// than the record count, which the live run that wrote the WAL sets:
	// scaling it by records would add the seed's draw to the figure.
	// Failover time is the lease plus wall-clock waits, so it is the
	// per-layer repl.failover_s.
	out.e2e["cpu_s"] = least(restarts)
	out.e2e["ok_frac"] = ratio(float64(ok), float64(out.attempted))
	if e.rec == nil {
		return nil
	}
	st, err := daemonSpans(e, "daemon-recover", out)
	if err != nil {
		return err
	}
	l := out.layer
	l["wal.records"] = float64(w.records)
	l["wal.bytes"] = float64(w.bytes)
	l["wal.recover_s"] = mean(st.durs["wal.Recover"])
	restartS := mean(st.durs["restart"])
	l["server.replay_s"] = restartS - l["wal.recover_s"]
	l["wal.recover_s_per_100k"] = l["wal.recover_s"] * 1e5 / float64(w.records)
	l["repl.failover_s"] = median(failovers) / 1000
	l["repl.lag_records"] = median(lags)
	l["repl.catch_up_s"] = mean(st.durs["catch_up"])
	return nil
}

// restart starts a daemon on dir and times it to its first answered
// Status, returning the job table it recovered, the wall time and the
// process CPU seconds until that answer.
func restart(dir string) ([]proto.JobStatus, time.Duration, float64, error) {
	c0, t0 := cpuSeconds(), time.Now()
	r, err := startRig(server.Config{
		Policy:        sched.NewMuriL(),
		StateDir:      dir,
		SnapshotEvery: time.Hour,
		Logf:          discard,
	}, 0, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	defer r.close()
	c, err := server.Dial(r.addr)
	if err != nil {
		return nil, 0, 0, err
	}
	defer c.Close()
	st, err := c.Status()
	d, cpu := time.Since(t0), cpuSeconds()-c0
	if err != nil {
		return nil, 0, 0, err
	}
	return st.Jobs, d, cpu, nil
}

// failover runs a leader on dir with a warm standby, waits until the
// standby has caught up, crashes the leader and times until the standby
// accepts a write. It returns that time and the replication lag seen
// when the standby first attached.
func failover(e *env, dir string, id int64) (time.Duration, uint64, error) {
	base := server.Config{
		Policy:        sched.NewMuriL(),
		SnapshotEvery: time.Hour,
		ElectionTTL:   electionTTL,
		Logf:          discard,
	}
	cfgL := base
	cfgL.StateDir = dir
	leader, err := startRig(cfgL, 0, nil)
	if err != nil {
		return 0, 0, err
	}
	defer leader.close()
	cl, err := server.Dial(leader.addr)
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()
	// The standby starts once the leader has recovered and answers: a
	// standby that hears nothing for one lease promotes itself, and the
	// leader's recovery alone can take that long on a busy host.
	if _, err := cl.Status(); err != nil {
		return 0, 0, err
	}
	cfgS := base
	if cfgS.StateDir, err = os.MkdirTemp(e.work, "standby-"); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(cfgS.StateDir)
	cfgS.StandbyOf = leader.addr
	cfgS.StandbyID = "standby"
	standby, err := startRig(cfgS, 0, nil)
	if err != nil {
		return 0, 0, err
	}
	defer standby.close()

	// Caught up means the standby holds every record the leader has:
	// the leader sees no lag and the replica's log reaches the leader's
	// last LSN. Then one heartbeat period passes, so the lease clock the
	// crash starts is a steady-state one, not the seed handshake's.
	cs, err := server.Dial(standby.addr)
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		if cs != nil {
			cs.Close()
		}
	}()
	t0 := time.Now()
	lag, attached := uint64(0), false
	var termL uint64
	for {
		stL, err := cl.Status()
		if err != nil {
			return 0, 0, err
		}
		stS, err := cs.Status()
		if err != nil {
			return 0, 0, err
		}
		dL, dS := stL.Durability, stS.Durability
		if dL != nil && dS != nil && dL.Standbys == 1 {
			if !attached {
				lag, attached = dL.ReplLag, true
			}
			if dL.ReplLag == 0 && dS.Role == "standby" && dS.WALLSN >= dL.WALLSN {
				termL = dL.Term
				break
			}
		}
		if time.Since(t0) > 30*time.Second {
			return 0, 0, fmt.Errorf("standby never caught up: leader %+v, standby %+v", dL, dS)
		}
		time.Sleep(catchUpPoll)
	}
	e.rec.add("repl", "catch_up", "", id, t0, time.Now())
	time.Sleep(electionTTL / 3)

	runtime.GC()
	crash := time.Now()
	leader.srv.Crash()
	spec := proto.JobSpec{Model: "resnet18", Iterations: 1, GPUs: 1}
	for {
		if time.Since(crash) > 30*time.Second {
			return 0, 0, fmt.Errorf("standby never accepted a write")
		}
		if cs == nil {
			if cs, err = server.Dial(standby.addr); err != nil {
				cs = nil
				time.Sleep(time.Millisecond)
				continue
			}
		}
		if _, err := cs.SubmitSpec(spec); err != nil {
			// A standby answers with a typed not-leader rejection until it
			// promotes; anything else is the connection, so redial.
			var rej *ingest.Error
			if !errors.As(err, &rej) {
				cs.Close()
				cs = nil
			}
			time.Sleep(time.Millisecond)
			continue
		}
		break
	}
	d := time.Since(crash)
	e.rec.add("repl", "failover", "", id, crash, crash.Add(d))
	st, err := cs.Status()
	if err != nil {
		return 0, 0, err
	}
	if st.Durability == nil || st.Durability.Role != "leader" || st.Durability.Term <= termL {
		return 0, 0, fmt.Errorf("promoted standby reports %+v, want role leader above term %d", st.Durability, termL)
	}
	return d, lag, nil
}

// copyDir copies the regular files of src into a fresh directory
// under parent and returns its path.
func copyDir(src, parent string) (string, error) {
	dst, err := os.MkdirTemp(parent, "copy-")
	if err != nil {
		return "", err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return "", err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			return "", err
		}
	}
	return dst, nil
}
