package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"time"

	"netsamp/internal/core"
	"netsamp/internal/engine"
	"netsamp/internal/plan"
	"netsamp/internal/rng"
	"netsamp/internal/topology"
)

// The scale-exact workload: a generated 600-link ISP-like instance
// solved exactly on a one-worker shard pool, cold and then for a run of
// warm intervals under lognormal load noise. Every interval is solved
// once per pass from the same inputs and timed as the envelope of its
// solves. The work is fixed, so a run takes as long as it takes
// whatever --seconds says. The instance is a fixed network, like GEANT
// for the geant-* workloads; the seed drives the per-interval loads.
const (
	scaleLinks        = 600
	scaleTopologySeed = 1
	scaleBudgetFrac   = 0.05 // θ as a share of the maximum sampled rate
	scaleNoiseSigma   = 0.1  // lognormal(0, σ) per-link load noise
	scaleSetups       = 9    // set-ups per run; setup_s is their median
	// scalePasses passes each solve the cold interval and scaleWarm warm
	// ones. Host speed drifts over tens of seconds, so the passes, not
	// back-to-back solves, give each interval its repeated samples. Warm
	// work varies with the loads: over the first 4 warm intervals the
	// median iteration count ranged 28–48 across seeds, over 16 it ranged
	// 36–43.
	scalePasses = 4
	scaleWarm   = 4
)

// stampPool wraps the shard pool and reads the clock at the entry and
// exit of every dispatch: two clock reads per dispatch, against ~1 ms of
// work in each. Solves of the same inputs dispatch identically, so
// their times compare segment by segment, a segment being one dispatch
// or the solver's own work before, between or after dispatches.
type stampPool struct {
	inner *engine.Pool
	start time.Time
	marks []time.Duration // since start: entry and exit of each dispatch
}

func newStampPool(inner *engine.Pool) *stampPool {
	// Sized for the cold solve's ~11k dispatches, so that recording a
	// mark never allocates.
	return &stampPool{inner: inner, marks: make([]time.Duration, 0, 1<<16)}
}

func (p *stampPool) Workers() int { return p.inner.Workers() }

func (p *stampPool) For(n int, fn func(int)) {
	p.marks = append(p.marks, time.Since(p.start))
	p.inner.For(n, fn)
	p.marks = append(p.marks, time.Since(p.start))
}

// begin starts timing a solve.
func (p *stampPool) begin() {
	p.marks = p.marks[:0]
	p.start = time.Now()
}

// end stops timing a solve and returns its segment times: before the
// first dispatch, each dispatch and each gap between two, after the
// last. Odd indices are dispatches. The slice is reused by the next
// begin.
func (p *stampPool) end() []time.Duration {
	segs := append(p.marks, time.Since(p.start))
	for i := len(segs) - 1; i > 0; i-- {
		segs[i] -= segs[i-1]
	}
	return segs
}

// envelope keeps, for each segment of an interval's solves, the fastest
// time any of them took. Other tenants of a shared host only ever slow a
// segment down, so the envelope estimates the solve's own cost: on the
// 2-vCPU cloud host this workload was sized on, one 12 s solve of
// identical inputs took 10.9 to 14.1 s.
type segEnvelope struct {
	best []time.Duration
}

// add folds in one solve's segments; the solves of one interval must
// dispatch identically.
func (e *segEnvelope) add(segs []time.Duration) error {
	switch {
	case e.best == nil:
		e.best = append([]time.Duration(nil), segs...)
	case len(segs) != len(e.best):
		return fmt.Errorf("a re-solve made %d dispatches, the first %d", len(segs)/2, len(e.best)/2)
	default:
		for i, d := range segs {
			e.best[i] = min(e.best[i], d)
		}
	}
	return nil
}

// sums returns the envelope's total, its dispatch segments' total and
// the number of dispatches.
func (e *segEnvelope) sums() (total, busy time.Duration, dispatches int) {
	for i, d := range e.best {
		total += d
		if i%2 == 1 {
			busy += d
		}
	}
	return total, busy, len(e.best) / 2
}

// scaleInstance is one set-up's output: a compiled solver on its pool
// and the solution its solves write into.
type scaleInstance struct {
	base   []float64 // the generated loads
	cp     *core.CSRProblem
	solver *core.Solver
	sol    core.Solution
}

// setupScale generates and compiles the instance and takes the solver
// through two iterations, so its scratch and the solution are allocated
// before the timed solves. It returns the generator and plan-build times
// too.
func setupScale(pool core.ForPool) (*scaleInstance, time.Duration, time.Duration, error) {
	start := time.Now()
	inst, err := topology.GenerateScale(topology.ScaleConfig{Seed: scaleTopologySeed, Links: scaleLinks, ECMP: true})
	if err != nil {
		return nil, 0, 0, err
	}
	generated := time.Now()
	cp, err := plan.BuildScale(inst, scaleBudgetFrac*inst.MaxSampledRate(), nil)
	if err != nil {
		return nil, 0, 0, err
	}
	built := time.Now()
	s, err := core.NewSolverCSR(cp)
	if err != nil {
		return nil, 0, 0, err
	}
	s.Shard(pool)
	si := &scaleInstance{base: append([]float64(nil), inst.Loads...), cp: cp, solver: s}
	if err := s.SolveInto(&si.sol, core.Options{MaxIter: 2}); err != nil {
		return nil, 0, 0, err
	}
	return si, generated.Sub(start), built.Sub(generated), nil
}

// warmLoads fills loads with interval k's noisy loads: base loads times
// independent lognormal factors drawn from (seed, k).
func warmLoads(loads, base []float64, seed uint64, k int) {
	r := rng.New(rng.SplitSeed(seed, uint64(k)))
	for i, u := range base {
		loads[i] = u * r.LogNormal(0, scaleNoiseSigma)
	}
}

// checkSolution verifies a solution from its rates alone: the budget is
// spent exactly, Σ p_i·U_i = θ to 1e-9 relative, and 0 ≤ p_i ≤ α_i.
func checkSolution(sol *core.Solution, loads, maxRate []float64, theta float64) error {
	if len(sol.Rates) != len(loads) {
		return fmt.Errorf("%d rates for %d links", len(sol.Rates), len(loads))
	}
	spent := 0.0
	for i, p := range sol.Rates {
		alpha := 1.0
		if maxRate != nil {
			alpha = maxRate[i]
		}
		if !(p >= 0 && p <= alpha) {
			return fmt.Errorf("rate %d is %v, outside [0, %v]", i, p, alpha)
		}
		spent += p * loads[i]
	}
	if math.Abs(spent-theta) > 1e-9*theta {
		return fmt.Errorf("spends %v of budget %v", spent, theta)
	}
	return nil
}

func runScale(p runParams) (*outcome, error) {
	o := newOutcome()
	pool := engine.NewPool(1)
	defer pool.Close()
	stamps := newStampPool(pool)

	// Set up several times; keep the last instance. Collecting the
	// previous instance first keeps peak_rss_mb from depending on when
	// the collector happens to run.
	var setups, gens, builds []float64
	var si *scaleInstance
	for i := 0; i < scaleSetups; i++ {
		si = nil
		runtime.GC()
		start := time.Now()
		var gen, build time.Duration
		var err error
		si, gen, build, err = setupScale(pool)
		if err != nil {
			return nil, err
		}
		setups = append(setups, sec(time.Since(start)))
		gens = append(gens, sec(gen))
		builds = append(builds, sec(build))
	}
	s, theta := si.solver, si.cp.Budget
	s.Shard(stamps)

	sol := &si.sol
	loads := make([]float64, len(si.base))
	buf := make([]float64, len(loads))
	// The traced run counts the program's allocations in every solve.
	var allocs uint64
	if p.trace {
		defer profileAllocs()()
	}
	// Interval 0 is the cold interval, 1..scaleWarm the warm ones. Each
	// pass solves them all in order; every pass must reach the first
	// pass's objectives bit for bit and dispatch identically.
	envs := make([]segEnvelope, scaleWarm+1)
	retunes := make([]time.Duration, scaleWarm+1)
	objs := make([]float64, scaleWarm+1)
	objectives := sha256.New()
	var bits [8]byte
	var coldIters, warmIters, removals int
	for pass := 0; pass < scalePasses; pass++ {
		for k := 0; k <= scaleWarm; k++ {
			var opt core.Options
			var retune time.Duration
			if k == 0 {
				copy(loads, si.base)
				if err := s.SetLoads(loads); err != nil {
					return nil, err
				}
			} else {
				warmLoads(loads, si.base, p.seed, k)
				start := time.Now()
				if err := s.SetLoads(loads); err != nil {
					return nil, err
				}
				init, err := s.WarmStart(sol, buf)
				if err != nil {
					return nil, err
				}
				retune = time.Since(start)
				opt.Initial = init
			}
			var before uint64
			if p.trace {
				before = programAllocs()
			}
			stamps.begin()
			err := s.SolveInto(sol, opt)
			segs := stamps.end()
			if err != nil {
				return nil, err
			}
			if p.trace {
				allocs += programAllocs() - before
			}
			if err := envs[k].add(segs); err != nil {
				return nil, fmt.Errorf("interval %d: %w", k, err)
			}
			o.attempted++
			if !sol.Stats.Converged {
				o.failed++
			}
			if err := checkSolution(sol, loads, si.cp.MaxRate, theta); err != nil {
				o.check(false, "pass %d interval %d: %v", pass, k, err)
			}
			if pass > 0 {
				retunes[k] = min(retunes[k], retune)
				//netsamp:floateq-ok a re-solve of the same inputs must be bit-identical
				o.check(sol.Objective == objs[k], "pass %d interval %d: objective %v, pass 0 %v", pass, k, sol.Objective, objs[k])
				continue
			}
			retunes[k], objs[k] = retune, sol.Objective
			binary.LittleEndian.PutUint64(bits[:], math.Float64bits(sol.Objective))
			objectives.Write(bits[:])
			removals += sol.Stats.Removals
			if k == 0 {
				coldIters = sol.Stats.Iterations
			} else {
				warmIters += sol.Stats.Iterations
			}
		}
	}
	cold, coldBusy, dispatches := envs[0].sums()
	warm := make([]float64, 0, scaleWarm)
	for k := 1; k <= scaleWarm; k++ {
		d, _, _ := envs[k].sums()
		warm = append(warm, ms(retunes[k]+d))
	}

	// The end-to-end metrics all read the cold interval, whose time
	// repeats best from run to run: on the 2-vCPU cloud host this
	// workload was sized on, the warm intervals' median spread by 0.36
	// over ten seeds (IQR/median) where the cold interval's spread by
	// 0.15. The dense-KKT work that dominates warm intervals is the most
	// sensitive to the host's load. Their median is a per-layer metric.
	o.set("setup_s", median(setups))
	o.set("interval_p50_ms", ms(cold))
	o.set("interval_tail_ms", ms(cold))
	o.set("ops_per_s", 1/sec(cold))
	o.set("core.warm_p50_ms", median(warm))

	o.set("topology.gen_s", median(gens))
	o.set("plan.build_s", median(builds))
	o.set("core.cold_iterations", float64(coldIters))
	o.set("core.warm_iterations", float64(warmIters))
	o.set("core.removals", float64(removals))
	o.set("core.objective_digest", digest48(objectives.Sum(nil)))
	if p.trace {
		o.check(allocsPerOp(allocs, o.attempted) == 0, "timed solves allocated %d times in %d solves", allocs, o.attempted)
		o.set("core.allocs", float64(allocs))
		o.set("engine.dispatches", float64(dispatches))
		o.set("engine.busy_s", sec(coldBusy))
		o.set("core.serial_s", sec(cold-coldBusy))
		o.set("trace.overhead_us", us(clockReadCost())*float64(2*dispatches))
	}
	return o, nil
}

// clockReadCost is the time one time.Since takes, the stamp pool's cost
// per mark.
func clockReadCost() time.Duration {
	const n = 1 << 16
	start := time.Now()
	var sink time.Duration
	for i := 0; i < n; i++ {
		sink += time.Since(start)
	}
	if sink < 0 {
		return 0
	}
	return time.Since(start) / n
}
