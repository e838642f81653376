package core

import (
	"math"
	"testing"
)

// An optimality certificate checked from a Solution and the problem data
// alone, sharing no code with the solver: the gradient is recomputed from
// the incidence rows, the multiplier signs from the reported λ. It holds
// for the linear rate model ρ_k = Σ f_a·p_a, which every instance it is
// run on uses.

// certRows is a problem in the shape the certificate reads: CSR pair rows
// plus the numeric data.
type certRows struct {
	loads, maxRate []float64
	budget         float64
	start, links   []int32
	fracs          []float64 // nil: every fraction is 1
	utils          []Utility
	weights        []float64 // nil: every weight is 1
}

func certFromProblem(tb testing.TB, p *Problem) certRows {
	tb.Helper()
	if p.Model != nil && p.Model != ModelLinear {
		tb.Fatalf("certificate covers the linear rate model only, got %s", p.Model.Name())
	}
	c := certRows{loads: p.Loads, maxRate: p.MaxRate, budget: p.Budget, start: []int32{0}}
	for _, pr := range p.Pairs {
		for j, l := range pr.Links {
			c.links = append(c.links, int32(l))
			f := 1.0
			if pr.Fracs != nil {
				f = pr.Fracs[j]
			}
			c.fracs = append(c.fracs, f)
		}
		c.start = append(c.start, int32(len(c.links)))
		c.utils = append(c.utils, pr.Utility)
		w := pr.Weight
		if w <= 0 {
			w = 1
		}
		c.weights = append(c.weights, w)
	}
	return c
}

func certFromCSR(tb testing.TB, p *CSRProblem) certRows {
	tb.Helper()
	if p.Model != nil && p.Model != ModelLinear {
		tb.Fatalf("certificate covers the linear rate model only, got %s", p.Model.Name())
	}
	c := certRows{loads: p.Loads, maxRate: p.MaxRate, budget: p.Budget,
		start: p.Start, links: p.Links, fracs: p.Fracs, utils: p.Utilities}
	if p.Weights != nil {
		c.weights = make([]float64, len(p.Weights))
		for k, w := range p.Weights {
			if w <= 0 {
				w = 1
			}
			c.weights[k] = w
		}
	}
	return c
}

// CertifySolution fails tb unless sol is a converged, feasible KKT point
// of p at the solver tolerance tol (0 = the solver default):
//   - 0 ≤ p_i ≤ α_i, and Σ p_i·U_i = θ to 1e-9 relative;
//   - LowerMult and UpperMult are ≥ −κ;
//   - at p_i = 0, λU_i − g_i ≥ −κ; at p_i = α_i, g_i − λU_i ≥ −κ;
//   - on the free coordinates, |g_i − λU_i| ≤ κ,
//
// where g is the gradient recomputed from the pair rows and
// κ = tol·(1 + ‖g‖∞), the solver's own stopping rule, plus 1e-9·‖g‖∞ for
// the rounding between two summation orders.
func CertifySolution(tb testing.TB, p *Problem, sol *Solution, tol float64) {
	tb.Helper()
	certify(tb, certFromProblem(tb, p), sol, tol)
}

// CertifySolutionCSR is CertifySolution for a CSR-compiled problem.
func CertifySolutionCSR(tb testing.TB, p *CSRProblem, sol *Solution, tol float64) {
	tb.Helper()
	certify(tb, certFromCSR(tb, p), sol, tol)
}

func certify(tb testing.TB, c certRows, sol *Solution, tol float64) {
	tb.Helper()
	if tol <= 0 {
		tol = 1e-6
	}
	n := len(c.loads)
	if !sol.Stats.Converged {
		tb.Fatalf("certificate: solve did not converge (%d iterations)", sol.Stats.Iterations)
	}
	if len(sol.Rates) != n || len(sol.LowerMult) != n || len(sol.UpperMult) != n {
		tb.Fatalf("certificate: %d rates, %d/%d multipliers for %d links",
			len(sol.Rates), len(sol.LowerMult), len(sol.UpperMult), n)
	}
	alpha := func(i int) float64 {
		if c.maxRate == nil {
			return 1
		}
		return c.maxRate[i]
	}
	spent := 0.0
	for i, r := range sol.Rates {
		if !(r >= 0 && r <= alpha(i)) {
			tb.Fatalf("certificate: rate %d = %v outside [0, %v]", i, r, alpha(i))
		}
		spent += r * c.loads[i]
	}
	if math.Abs(spent-c.budget) > 1e-9*c.budget {
		tb.Fatalf("certificate: spends %v of budget %v", spent, c.budget)
	}
	g := make([]float64, n)
	for k := 0; k+1 < len(c.start); k++ {
		lo, hi := c.start[k], c.start[k+1]
		frac := func(a int32) float64 {
			if c.fracs == nil {
				return 1
			}
			return c.fracs[a]
		}
		rho := 0.0
		for a := lo; a < hi; a++ {
			rho += frac(a) * sol.Rates[c.links[a]]
		}
		w := 1.0
		if c.weights != nil {
			w = c.weights[k]
		}
		d := w * c.utils[k].Deriv(rho)
		for a := lo; a < hi; a++ {
			g[c.links[a]] += d * frac(a)
		}
	}
	gInf := 0.0
	for _, v := range g {
		gInf = math.Max(gInf, math.Abs(v))
	}
	kappa := tol*(1+gInf) + 1e-9*gInf
	lam := sol.Lambda
	for i, r := range sol.Rates {
		if sol.LowerMult[i] < -kappa || sol.UpperMult[i] < -kappa {
			tb.Fatalf("certificate: link %d multipliers ν=%v μ=%v below −%v",
				i, sol.LowerMult[i], sol.UpperMult[i], kappa)
		}
		resid := g[i] - lam*c.loads[i]
		switch {
		case r == 0:
			if -resid < -kappa {
				tb.Fatalf("certificate: link %d at 0 with λU−g = %v < −%v", i, -resid, kappa)
			}
		case r == alpha(i):
			if resid < -kappa {
				tb.Fatalf("certificate: link %d at α with g−λU = %v < −%v", i, resid, kappa)
			}
		default:
			if math.Abs(resid) > kappa {
				tb.Fatalf("certificate: free link %d stationarity residual |g−λU| = %v > %v",
					i, math.Abs(resid), kappa)
			}
		}
	}
}
