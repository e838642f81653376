package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"netsamp/internal/control"
	"netsamp/internal/core"
	"netsamp/internal/daemon"
	"netsamp/internal/faults"
	"netsamp/internal/state"
)

// The geant-* workloads run the serve loop (daemon.Open + Loop.Run) on
// GEANT for a fixed number of intervals per repetition, each repetition
// in a fresh persistence directory, until the measurement time is used.
// Every repetition of one seed must journal the same bytes.

// Repetition lengths in intervals. geant-drift's per-interval cost grows
// with uptime, so its length is part of the workload's definition.
const (
	geantServeIntervals = 1000
	geantDriftIntervals = 400
	// geantTailQ is the reported tail quantile.
	geantTailQ = 0.99
)

// geantConfig is the serve loop both geant workloads run: robust
// pessimistic posture with the serve command's default knobs, monitor
// crashes and solver overruns at 5% per interval, a checkpoint every 8
// intervals, one solve worker. drift adds load drift.
func geantConfig(dir string, seed uint64, drift bool) daemon.Config {
	cfg := daemon.Config{
		Dir:             dir,
		Seed:            seed,
		Theta:           100000,
		Intervals:       geantServeIntervals,
		CheckpointEvery: 8,
		Workers:         1,
		SmoothAlpha:     0.5,
		SwitchGain:      0.01,
		ReviveAfter:     2,
		Robust: control.RobustOptions{
			Mode:            core.RobustPessimistic,
			ExplorationFrac: 0.1,
			WidenFactor:     1.3,
		},
		Faults: faults.Config{MonitorCrash: 0.05, SolverOverrun: 0.05},
	}
	if drift {
		cfg.Intervals = geantDriftIntervals
		cfg.Faults.DriftVol = 0.1
		cfg.Faults.DriftStep = 0.02
	}
	return cfg
}

// geantSeed returns the daemon seed a run of seed uses and how many
// seeds it passed over: the first seed at or after seed whose fault plan
// does not overrun interval 0's solve. Before its first solve the
// controller has no plan to fall back on, so an overrun there makes
// Loop.Run fail with control.ErrNoFallback before any interval is
// served, and a restart replays the same draw. The count is reported as
// faults.start_overrun_skips so the failure stays visible.
func geantSeed(seed uint64, drift bool) (uint64, int, error) {
	for skipped := 0; ; skipped++ {
		fc := geantConfig("", seed, drift).Faults
		fc.Seed = seed
		plan, err := faults.NewPlan(fc)
		if err != nil {
			return 0, 0, err
		}
		if !plan.SolverOverrun(0) {
			return seed, skipped, nil
		}
		seed++
	}
}

// geantRep is one repetition's measurements.
type geantRep struct {
	setup     time.Duration   // daemon.Open
	intervals []time.Duration // per interval, back to back
	records   [][]byte        // journaled decisions (traced only)
	// Traced spans: world synthesis (interval start to the loss probe,
	// which the loop reads right before the controller step), the step
	// with its journal append (probe to AfterInterval), and checkpoints
	// (AfterInterval to the progress callback).
	world, step, checkpoint []time.Duration
	checkpoints             int // counted through Logf

	journalBytes int64
	digest       float64
	decoded      int
	degraded     int
	setChanges   int
	explored     int
}

// runGeantRep opens a loop on cfg's fresh directory, runs it to
// completion and reads back its journal. traced installs the span hooks.
func runGeantRep(cfg daemon.Config, traced bool) (*geantRep, error) {
	dir, n := cfg.Dir, cfg.Intervals
	rep := &geantRep{intervals: make([]time.Duration, 0, n)}
	// An interval runs from the previous one's AfterInterval to its own,
	// so it carries the checkpoint written between them. Spans start at
	// mark, the later of the previous AfterInterval and checkpoint.
	var last, mark, probe time.Time
	cfg.AfterInterval = func(t int, rec []byte) {
		now := time.Now()
		rep.intervals = append(rep.intervals, now.Sub(last))
		if traced {
			rep.step = append(rep.step, now.Sub(probe))
			rep.records = append(rep.records, append([]byte(nil), rec...))
		}
		last, mark = now, now
	}
	var progress func()
	if traced {
		rep.world = make([]time.Duration, 0, n)
		rep.step = make([]time.Duration, 0, n)
		cfg.LossProbe = func() float64 {
			probe = time.Now()
			rep.world = append(rep.world, probe.Sub(mark))
			return 0
		}
		progress = func() {
			now := time.Now()
			rep.checkpoint = append(rep.checkpoint, now.Sub(mark))
			mark = now
		}
		cfg.Logf = func(format string, _ ...any) {
			if strings.HasPrefix(format, "daemon: checkpointed") {
				rep.checkpoints++
			}
		}
	}

	start := time.Now()
	loop, err := daemon.Open(cfg)
	if err != nil {
		return nil, err
	}
	opened := time.Now()
	rep.setup = opened.Sub(start)
	last, mark = opened, opened
	runErr := loop.Run(context.Background(), progress)
	if err := loop.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return rep, runErr
	}

	raw, err := os.ReadFile(filepath.Join(dir, "decisions.nsj"))
	if err != nil {
		return rep, err
	}
	rep.journalBytes = int64(len(raw))
	rep.digest = digestOf(raw)
	recs, err := daemon.ReadDecisions(dir)
	if err != nil {
		return rep, err
	}
	for i, r := range recs {
		if r.Interval != i {
			return rep, fmt.Errorf("journal record %d is for interval %d", i, r.Interval)
		}
		rep.decoded++
		if r.Degraded {
			rep.degraded++
		}
		if r.SetChanged {
			rep.setChanges++
		}
		rep.explored += len(r.Explored)
	}
	return rep, nil
}

// runGeant measures repetitions until the time is used. The untraced
// run times whole intervals only (one clock read per interval in
// AfterInterval). The traced run alternates untraced and traced
// repetitions, so both journals can be compared and the difference of
// their median intervals is the tracing overhead.
func runGeant(p runParams, drift bool) (*outcome, error) {
	o := newOutcome()
	seed, skipped, err := geantSeed(p.seed, drift)
	if err != nil {
		return nil, err
	}
	b := newBudget(p.seconds)
	var setups, plainP50, tracedP50 []float64
	var world, step, ckpt, appends []float64
	var plain envelope
	var first, lastTraced *geantRep
	for i := 0; i < 2 || b.left(); i++ {
		traced := p.trace && i%2 == 1
		dir := filepath.Join(p.work, fmt.Sprintf("rep-%d", i))
		cfg := geantConfig(dir, seed, drift)
		n := cfg.Intervals
		o.attempted += int64(n)
		rep, err := runGeantRep(cfg, traced)
		if rep == nil {
			return nil, err
		}
		setups = append(setups, sec(rep.setup))
		if err != nil {
			// The intervals before the failure were journaled. Every
			// repetition of a seed replays the same intervals, so a
			// failed one would fail again the same way.
			o.failed += int64(n - len(rep.intervals))
			o.check(false, "repetition %d: %v", i, err)
			break
		}
		o.failed += int64(n - rep.decoded)
		o.check(rep.decoded == n, "repetition %d journaled %d of %d intervals", i, rep.decoded, n)
		if first == nil {
			first = rep
		} else {
			o.check(rep.digest == first.digest, "repetition %d (traced %v) journal digest %v differs from %v", i, traced, rep.digest, first.digest)
		}
		lat := make([]float64, len(rep.intervals))
		for j, d := range rep.intervals {
			lat[j] = ms(d)
		}
		if !traced {
			plain.add(lat)
			plainP50 = append(plainP50, median(lat))
		} else {
			tracedP50 = append(tracedP50, median(lat))
			for _, d := range rep.world {
				world = append(world, ms(d))
			}
			for _, d := range rep.step {
				step = append(step, ms(d))
			}
			for _, d := range rep.checkpoint {
				ckpt = append(ckpt, ms(d))
			}
			times, err := timeJournalAppends(filepath.Join(p.work, fmt.Sprintf("replay-%d", i)), rep.records)
			if err != nil {
				return nil, err
			}
			appends = append(appends, times...)
			rep.records = nil
			lastTraced = rep
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}

	o.set("setup_s", median(setups))
	plain.report(o, geantTailQ, float64(len(plain.best)))

	o.set("faults.start_overrun_skips", float64(skipped))
	if first != nil {
		o.set("state.journal_bytes", float64(first.journalBytes))
		o.set("state.journal_digest", first.digest)
		o.set("control.degraded", float64(first.degraded))
		o.set("control.set_changes", float64(first.setChanges))
		o.set("control.explored", float64(first.explored))
	}
	if lastTraced != nil {
		o.set("eval.world_p50_ms", median(world))
		o.set("control.step_p50_ms", median(step))
		o.set("state.checkpoint_p50_ms", median(ckpt))
		o.set("state.journal_append_p50_us", median(appends))
		o.set("state.checkpoints", float64(lastTraced.checkpoints))
		o.set("trace.overhead_us", 1000*(median(tracedP50)-median(plainP50)))
	}
	return o, nil
}

// timeJournalAppends replays a run's decision records into a fresh
// journal in dir, on the same disk as the loop's own, and returns the
// duration of each state.Journal.Append in microseconds.
func timeJournalAppends(dir string, records [][]byte) ([]float64, error) {
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	j, _, err := state.OpenJournal(filepath.Join(dir, "replay.nsj"))
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, len(records))
	for _, rec := range records {
		start := time.Now()
		if err := j.Append(rec); err != nil {
			j.Close()
			return nil, err
		}
		out = append(out, us(time.Since(start)))
	}
	return out, j.Close()
}
