package core

import (
	"math"
	"sort"
	"testing"

	"netsamp/internal/engine"
	"netsamp/internal/rng"
)

// arcBoundCount returns how many of rates sit exactly on a bound (the
// solver snaps pinned rates onto their bounds).
func arcBoundCount(p *Problem, rates []float64) int {
	n := 0
	for i, r := range rates {
		if r == 0 || r == p.alpha(i) {
			n++
		}
	}
	return n
}

// requireArcSteps fails unless the solve that produced sol from opt took
// projected-arc steps: the one-bound rule pins at most one coordinate per
// iteration, so a solve that ends with more newly pinned coordinates
// than it took iterations pinned the surplus along the arc.
func requireArcSteps(t *testing.T, s *Solver, opt Options, sol *Solution) {
	t.Helper()
	start := make([]float64, s.n)
	if err := initialPointInto(s.p, opt, start); err != nil {
		t.Fatal(err)
	}
	pinned := arcBoundCount(s.p, sol.Rates) - arcBoundCount(s.p, start)
	if pinned <= sol.Stats.Iterations {
		t.Fatalf("solve pinned %d coordinates in %d iterations: no arc step taken", pinned, sol.Stats.Iterations)
	}
}

// TestProjectArcIsTheBoxBudgetProjection checks projectArc against its
// definition: the result lies in the box, spends the free budget, and
// every interior coordinate is shifted by the same multiple τ of its
// weight w_i. A brute-force bisection on τ must find the same point.
func TestProjectArcIsTheBoxBudgetProjection(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(40)
		p := &Problem{Loads: make([]float64, n), MaxRate: make([]float64, n)}
		s := &Solver{p: p, n: n, lower: make([]bool, n), upper: make([]bool, n),
			arcX: make([]float64, n), arcW: make([]float64, n), arcBP: make([]float64, 2*n)}
		rates := make([]float64, n)
		d := make([]float64, n)
		thetaF := 0.0
		for i := 0; i < n; i++ {
			p.Loads[i] = math.Pow(10, 1+4*r.Float64())
			p.MaxRate[i] = 0.05 + 0.95*r.Float64()
			s.arcW[i] = math.Pow(10, -3*r.Float64()) / p.Loads[i]
			switch r.Intn(5) {
			case 0:
				s.lower[i] = true
			case 1:
				s.upper[i] = true
				rates[i] = p.MaxRate[i]
			default:
				rates[i] = p.MaxRate[i] * r.Float64()
				d[i] = (r.Float64() - 0.5) * 2 * p.MaxRate[i] / (0.1 + r.Float64())
				thetaF += rates[i] * p.Loads[i]
			}
		}
		if thetaF == 0 {
			continue
		}
		tArc := math.Pow(2, -float64(r.Intn(4)))
		s.projectArc(rates, d, tArc, thetaF)
		got := s.arcX

		free := func(i int) bool { return !s.lower[i] && !s.upper[i] }
		spent, tau, haveTau := 0.0, 0.0, false
		for i := 0; i < n; i++ {
			if !free(i) {
				if got[i] != rates[i] {
					t.Fatalf("trial %d: pinned coordinate %d moved: %v → %v", trial, i, rates[i], got[i])
				}
				continue
			}
			if !(got[i] >= 0 && got[i] <= p.MaxRate[i]) {
				t.Fatalf("trial %d: coordinate %d = %v outside [0, %v]", trial, i, got[i], p.MaxRate[i])
			}
			spent += got[i] * p.Loads[i]
			if y := rates[i] + tArc*d[i]; got[i] > 0 && got[i] < p.MaxRate[i] {
				ti := (y - got[i]) / s.arcW[i]
				if haveTau && math.Abs(ti-tau) > 1e-9*(1+math.Abs(tau)) {
					t.Fatalf("trial %d: interior shifts disagree: τ %v vs %v", trial, ti, tau)
				}
				tau, haveTau = ti, true
			}
		}
		if math.Abs(spent-thetaF) > 1e-9*thetaF {
			t.Fatalf("trial %d: projection spends %v of %v", trial, spent, thetaF)
		}
		// Brute force: bisect h(τ) = θ_F over a bracket wide enough for
		// every kink, then compare points.
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			if free(i) {
				y := rates[i] + tArc*d[i]
				lo = math.Min(lo, (y-p.MaxRate[i])/s.arcW[i])
				hi = math.Max(hi, y/s.arcW[i])
			}
		}
		spentAt := func(tau float64) float64 {
			h := 0.0
			for i := 0; i < n; i++ {
				if free(i) {
					y := rates[i] + tArc*d[i]
					h += p.Loads[i] * math.Min(math.Max(y-tau*s.arcW[i], 0), p.MaxRate[i])
				}
			}
			return h
		}
		for it := 0; it < 200; it++ {
			mid := (lo + hi) / 2
			if spentAt(mid) >= thetaF {
				lo = mid
			} else {
				hi = mid
			}
		}
		tb := (lo + hi) / 2
		for i := 0; i < n; i++ {
			if !free(i) {
				continue
			}
			y := rates[i] + tArc*d[i]
			want := math.Min(math.Max(y-tb*s.arcW[i], 0), p.MaxRate[i])
			if math.Abs(got[i]-want) > 1e-9*p.MaxRate[i] {
				t.Fatalf("trial %d: coordinate %d = %v, brute-force projection %v", trial, i, got[i], want)
			}
		}
	}
}

// TestArcStepNeverLosesToTheRay drives the solver's iteration by hand
// and checks both uses of arcStep: whenever it replaces the ray step, or
// the one-bound activation when a bound blocks the ray at the start, its
// point is feasible and strictly better than the point it replaced.
func TestArcStepNeverLosesToTheRay(t *testing.T) {
	cp := csrFromInstance(t, genInstance(t, 400, 0, 1, true), 0.05)
	s, err := NewSolverCSR(cp)
	if err != nil {
		t.Fatal(err)
	}
	p := s.p
	rates := make([]float64, s.n)
	if err := initialPointInto(p, Options{}, rates); err != nil {
		t.Fatal(err)
	}
	syncActive(p, rates, s.lower, s.upper)
	var step Solution
	taken, blockedTaken := 0, 0
	checkArcPoint := func(it int, beat float64) {
		t.Helper()
		if f := s.objective(rates); !(f > beat) {
			t.Fatalf("iteration %d: arc point %v does not beat %v", it, f, beat)
		}
		spent := 0.0
		for i, r := range rates {
			if !(r >= 0 && r <= p.alpha(i)) {
				t.Fatalf("iteration %d: arc rate %d = %v outside the box", it, i, r)
			}
			spent += r * p.Loads[i]
		}
		if math.Abs(spent-p.Budget) > 1e-9*p.Budget {
			t.Fatalf("iteration %d: arc point spends %v of %v", it, spent, p.Budget)
		}
	}
	for it := 0; it < 40; it++ {
		reproject(p, rates, s.lower, s.upper)
		s.gradient(rates, s.g)
		if it%10 == 9 {
			// Free the 30 links pinned at zero whose multipliers
			// λU_i − g_i are smallest, as a removal frees the negative
			// ones. The Newton step pushes some straight back out,
			// blocking the ray at t = 0.
			lam := projectionLambda(p, s.g, s.lower, s.upper)
			var pinned []int
			for i := 0; i < s.n; i++ {
				if s.lower[i] && s.g[i] > 0 {
					pinned = append(pinned, i)
				}
			}
			sort.Slice(pinned, func(a, b int) bool {
				i, j := pinned[a], pinned[b]
				return lam*p.Loads[i]-s.g[i] < lam*p.Loads[j]-s.g[j]
			})
			for _, i := range pinned[:min(30, len(pinned))] {
				s.lower[i] = false
			}
		}
		if !s.newtonInto(s.sdir, rates, s.g, s.lower, s.upper) {
			// Links no pair crosses make the Newton system singular until
			// first-order steps have pinned them: take one solver step.
			if err := s.SolveInto(&step, Options{Initial: rates, MaxIter: 1}); err != nil {
				t.Fatal(err)
			}
			copy(rates, step.Rates)
			syncActive(p, rates, s.lower, s.upper)
			continue
		}
		tMax, blocking := maxStep(p, rates, s.sdir, s.lower, s.upper)
		if !(tMax > 0) {
			f0 := s.objective(rates)
			if s.arcStep(rates, s.g, s.sdir, 0, 0) {
				blockedTaken++
				checkArcPoint(it, f0)
			} else {
				activate(p, rates, blocking, s.lower, s.upper)
			}
			syncActive(p, rates, s.lower, s.upper)
			continue
		}
		tRay, hitMax := s.lineSearch(rates, s.sdir, tMax, Options{}, true)
		ray := make([]float64, s.n)
		for i := range ray {
			ray[i] = rates[i]
			if !s.lower[i] && !s.upper[i] {
				ray[i] += tRay * s.sdir[i]
			}
		}
		fRay := s.objective(ray)
		if tMax < 1 && s.arcStep(rates, s.g, s.sdir, tRay, tMax) {
			taken++
			checkArcPoint(it, fRay)
		} else {
			copy(rates, ray)
			if hitMax && blocking >= 0 {
				activate(p, rates, blocking, s.lower, s.upper)
			}
		}
		syncActive(p, rates, s.lower, s.upper)
	}
	if taken == 0 || blockedTaken == 0 {
		t.Fatalf("arc replaced %d ray steps and %d blocked activations in 40 iterations; want both > 0",
			taken, blockedTaken)
	}
}

// The 600-link generated instance (generator seed 1, default pairs) at
// θ = 5% of the maximum sampled rate, solved on a one-worker shard pool,
// cold and then for 4 warm intervals under lognormal(0, 0.1) load noise
// drawn from seed 1: the benchmark's scale-exact workload.
func scale600(t *testing.T) (*CSRProblem, *Solver, func()) {
	t.Helper()
	cp := csrFromInstance(t, genInstance(t, 600, 0, 1, true), 0.05)
	s, err := NewSolverCSR(cp)
	if err != nil {
		t.Fatal(err)
	}
	pool := engine.NewPool(1)
	s.Shard(pool)
	return cp, s, pool.Close
}

func scale600WarmLoads(loads, base []float64, k int) {
	r := rng.New(rng.SplitSeed(1, uint64(k)))
	for i, u := range base {
		loads[i] = u * r.LogNormal(0, 0.1)
	}
}

// scale600ParentObjectives are the one-bound rule's objectives on the
// scale600 sequence (cold, then warm 1–4).
var scale600ParentObjectives = [5]float64{
	11460.372845929736,
	11460.624199941463,
	11462.854277010665,
	11465.081712703548,
	11460.539295598051,
}

// TestArcScaleWorkCounters pins the cold solve's deterministic work on
// the 600-link instance: the one-bound rule took 242 outer iterations
// and 2 removal events; the projected-arc step takes 38 and 4. The
// counts are pure functions of the instance and identical at any worker
// count.
func TestArcScaleWorkCounters(t *testing.T) {
	_, s, done := scale600(t)
	defer done()
	var sol Solution
	if err := s.SolveInto(&sol, Options{}); err != nil {
		t.Fatal(err)
	}
	if sol.Stats.Iterations != 38 || sol.Stats.Removals != 4 || !sol.Stats.Converged {
		t.Fatalf("cold solve: %d iterations, %d removals, converged=%v; want 38, 4, true",
			sol.Stats.Iterations, sol.Stats.Removals, sol.Stats.Converged)
	}
	requireArcSteps(t, s, Options{}, &sol)
}

// TestArcScaleCertificate certifies the cold solve and 4 warm intervals
// of the 600-link instance independently of the solver, and requires
// each to reach the one-bound rule's objective to 1e-9 relative. Under
// the race detector it stops after the first warm interval.
func TestArcScaleCertificate(t *testing.T) {
	cp, s, done := scale600(t)
	defer done()
	base := append([]float64(nil), cp.Loads...)
	loads := make([]float64, len(base))
	buf := make([]float64, len(base))
	warm := 4
	if raceTest {
		warm = 1
	}
	var sol Solution
	for k := 0; k <= warm; k++ {
		var opt Options
		if k > 0 {
			scale600WarmLoads(loads, base, k)
			if err := s.SetLoads(loads); err != nil {
				t.Fatal(err)
			}
			init, err := s.WarmStart(&sol, buf)
			if err != nil {
				t.Fatal(err)
			}
			opt.Initial = init
		}
		if err := s.SolveInto(&sol, opt); err != nil {
			t.Fatal(err)
		}
		certified := *cp
		certified.Loads = s.Problem().Loads
		CertifySolutionCSR(t, &certified, &sol, 0)
		if want := scale600ParentObjectives[k]; math.Abs(sol.Objective-want) > 1e-9*want {
			t.Fatalf("interval %d: objective %v, one-bound rule %v", k, sol.Objective, want)
		}
	}
}
