package core

import (
	"math"
	"slices"
)

// Projected-Newton arc step (Bertsekas 1982). Along the Newton ray the
// active-set iteration stops at the first bound it meets, activates that
// one bound and recomputes the step, so a cold start at scale discovers
// the support one link at a time. When the full Newton step would carry
// several free coordinates across their bounds, the solver also searches
// the projected arc
//
//	x(t) = P[x + t·d],
//
// where P projects onto {0 ≤ p ≤ α, Σ p·U = θ} over the free
// coordinates. One arc point can pin many coordinates at once. P works
// in the metric of the Hessian's diagonal D_i = Σ_k −c_k·f_ki² (c_k the
// pair curvatures, as in the Newton system), the affordable stand-in for
// the Newton metric:
//
//	P[y]_i = clamp(y_i − τ·U_i/D_i, 0, α_i),  τ such that Σ P[y]_i·U_i = θ_F,
//
// so the budget shift that clamping forces lands on the coordinates the
// objective is flattest along. (The preconditioner's metric U_i², shift
// τ/U_i, bends the arc downhill: on the 450-link generated instance it
// took 78 iterations where the diagonal metric takes 32.) The arc is
// only a candidate: the solver keeps it only when its objective beats
// the point the one-bound rule would have reached, so every iteration
// gains at least as much as under that rule.

// arcMinFree is the free-set size below which the solver keeps the
// one-bound rule. With few free links that rule costs at most a few
// cheap iterations, and the arc's diagonal sweep, trial projections and
// objective sweeps cost about what they save. Measured as the arc's
// time against the one-bound rule's: GEANT's headline solve (20
// candidate links) 1.07× for 11 iterations instead of 13; random
// instances of 16–48 links 0.90–1.13×, 64 links 0.93×, 128 links 0.77×,
// 256 links 0.56×. Solvers below the gate keep the one-bound rule bit
// for bit.
const arcMinFree = 64

// arcMaxTrials caps the arc search: t = 1, 1/2, 1/4, … while t still
// exceeds the ray's first breakpoint. Each trial is one projection
// (O(nf log nf)) and at most one objective sweep.
const arcMaxTrials = 6

// arcStep searches the projected arc along the Newton direction d at
// rates, where g is the gradient, tRay the ray line search's step and
// tMax the ray's first breakpoint (both 0 when a bound blocks the ray at
// the start). The search halves t from 1 and keeps the best arc point
// until the objective stops rising; arc points that are not first-order
// ascent moves are skipped without an objective sweep. When the best arc
// point beats the ray point rates + tRay·d, arcStep writes it into rates
// and reports true; otherwise rates is untouched and the caller takes
// the one-bound step. The active flags are left for the caller to
// re-sync.
//
//netsamp:noalloc
func (s *Solver) arcStep(rates, g, d []float64, tRay, tMax float64) bool {
	p := s.p
	lower, upper := s.lower, s.upper
	crossings := 0
	thetaF := p.Budget
	for i := 0; i < s.n; i++ {
		if lower[i] || upper[i] {
			thetaF -= p.Loads[i] * rates[i]
			continue
		}
		if y := rates[i] + d[i]; y < 0 || y > p.alpha(i) {
			crossings++
		}
	}
	if crossings < 2 || !s.arcMetric(rates) {
		// One crossing is exactly what the one-bound step activates.
		return false
	}
	bestF, bestT := math.Inf(-1), 0.0
	t := 1.0
	for trial := 0; trial < arcMaxTrials && t > tMax; trial, t = trial+1, t/2 {
		s.projectArc(rates, d, t, thetaF)
		ascent := 0.0
		for i := 0; i < s.n; i++ {
			ascent += g[i] * (s.arcX[i] - rates[i])
		}
		if !(ascent > 0) {
			if bestT > 0 {
				break
			}
			continue
		}
		f := s.objective(s.arcX)
		if f <= bestF {
			break
		}
		bestF, bestT = f, t
	}
	//netsamp:floateq-ok bestT stays exactly 0 until some trial is kept
	if bestT == 0 {
		return false
	}
	ray := s.arcRay
	for i := 0; i < s.n; i++ {
		ray[i] = rates[i]
		if !lower[i] && !upper[i] {
			ray[i] += tRay * d[i]
		}
	}
	if bestF <= s.objective(ray) {
		return false
	}
	s.projectArc(rates, d, bestT, thetaF)
	copy(rates, s.arcX)
	return true
}

// arcMetric fills s.arcW with the projection's shift weights U_i/D_i at
// rates, D the Hessian diagonal, floored at 1e-12 of its largest entry
// (a link no curved pair crosses costs nothing to second order). It
// reports false when every pair's curvature vanishes.
//
//netsamp:noalloc
func (s *Solver) arcMetric(rates []float64) bool {
	diag := s.arcW
	s.hessDiag(rates, diag)
	maxD := 0.0
	for _, v := range diag {
		maxD = max(maxD, v)
	}
	if !(maxD > 0) || math.IsInf(maxD, 0) {
		return false
	}
	floor := 1e-12 * maxD
	for i, v := range diag {
		diag[i] = s.p.Loads[i] / max(v, floor)
	}
	return true
}

// hessDiag writes the diagonal of −H at rates, Σ_k −c_k·f_ki², into out.
//
//netsamp:noalloc
func (s *Solver) hessDiag(rates, out []float64) {
	if s.sh.pool != nil {
		s.shardHessDiag(rates, out)
		return
	}
	for i := range out {
		out[i] = 0
	}
	s.hessDiagRange(0, s.nPairs, rates, out)
}

// hessDiagRange accumulates the pairs [kLo, kHi)'s Hessian-diagonal
// terms into out — the shared inner kernel of the serial and sharded
// paths.
//
//netsamp:noalloc
func (s *Solver) hessDiagRange(kLo, kHi int, rates, out []float64) {
	for k := kLo; k < kHi; k++ {
		c := -s.wts[k] * s.utils[k].Curv(s.rho(k, rates))
		lo, hi := s.start[k], s.start[k+1]
		if s.fracs == nil {
			for j := lo; j < hi; j++ {
				out[s.links[j]] += c
			}
			continue
		}
		for j := lo; j < hi; j++ {
			f := s.fracs[j]
			out[s.links[j]] += c * f * f
		}
	}
}

// projectArc writes the arc point P[rates + t·d] into s.arcX. Pinned
// coordinates are copied; the free ones are projected onto the box and
// the free budget thetaF by an exact breakpoint search. With w = s.arcW,
// the spent rate h(τ) = Σ U_i·clamp(y_i − τ·w_i, 0, α_i) is continuous,
// nonincreasing and piecewise linear with kinks at τ = (y_i − α_i)/w_i
// and τ = y_i/w_i. Sorting the kinks and bisecting over them brackets
// the root in one linear piece, where τ has a closed form.
//
//netsamp:noalloc
func (s *Solver) projectArc(rates, d []float64, t, thetaF float64) {
	p := s.p
	y, w := s.arcX, s.arcW
	bp := s.arcBP
	nb := 0
	for i := 0; i < s.n; i++ {
		y[i] = rates[i]
		if s.lower[i] || s.upper[i] {
			continue
		}
		y[i] += t * d[i]
		bp[nb] = (y[i] - p.alpha(i)) / w[i]
		bp[nb+1] = y[i] / w[i]
		nb += 2
	}
	bp = bp[:nb]
	slices.Sort(bp)
	// Invariant: h(bp[lo]) ≥ θ_F > h(bp[hi]). h(bp[0]) = Σ U_i·α_i and
	// h(bp[nb−1]) = 0 bracket θ_F up to rounding, which the clamp of τ
	// into the final piece absorbs.
	lo, hi := 0, nb-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if s.arcSpent(y, bp[mid]) >= thetaF {
			lo = mid
		} else {
			hi = mid
		}
	}
	// Inside (bp[lo], bp[hi]) every coordinate's clamp pattern is fixed:
	// h(τ) = Σ_upper U_i·α_i + Σ_interior U_i·(y_i − τ·w_i).
	mid := (bp[lo] + bp[hi]) / 2
	num, slope := -thetaF, 0.0
	for i := 0; i < s.n; i++ {
		if s.lower[i] || s.upper[i] {
			continue
		}
		u, a := p.Loads[i], p.alpha(i)
		switch {
		case mid <= (y[i]-a)/w[i]:
			num += u * a
		case mid < y[i]/w[i]:
			num += u * y[i]
			slope += u * w[i]
		}
	}
	tau := bp[lo]
	if slope > 0 {
		tau = min(max(num/slope, bp[lo]), bp[hi])
	}
	for i := 0; i < s.n; i++ {
		if !s.lower[i] && !s.upper[i] {
			y[i] = min(max(y[i]-tau*w[i], 0), p.alpha(i))
		}
	}
}

// arcSpent returns h(τ) = Σ_free U_i·clamp(y_i − τ·w_i, 0, α_i), the
// free coordinates' spent rate after a shift of τ.
//
//netsamp:noalloc
func (s *Solver) arcSpent(y []float64, tau float64) float64 {
	p := s.p
	h := 0.0
	for i := 0; i < s.n; i++ {
		if !s.lower[i] && !s.upper[i] {
			h += p.Loads[i] * min(max(y[i]-tau*s.arcW[i], 0), p.alpha(i))
		}
	}
	return h
}

// objective returns Σ_k w_k·M_k(ρ_k) at rates, summed in finishInto's
// order (sharded: in fixed chunk order), so it is bit-identical at any
// worker count.
//
//netsamp:noalloc
func (s *Solver) objective(rates []float64) float64 {
	if s.sh.pool != nil {
		return s.shardObjective(rates)
	}
	obj := 0.0
	for k := 0; k < s.nPairs; k++ {
		obj += s.wts[k] * s.utils[k].Value(s.rho(k, rates))
	}
	return obj
}
