package core_test

import (
	"testing"

	"netsamp/internal/core"
	"netsamp/internal/geant"
	"netsamp/internal/plan"
)

// TestCertificateGeantThetaGrid certifies the exact solver's GEANT
// optimum at every budget of the Figure 2 θ-grid, from the Solution and
// the compiled problem alone.
func TestCertificateGeantThetaGrid(t *testing.T) {
	const interval = 300
	s := geant.MustBuild(1)
	inv := s.UtilityParams(interval)
	for _, theta := range []float64{10000, 20000, 50000, 100000, 200000, 500000, 1000000} {
		prob, _, err := plan.Build(plan.Input{
			Matrix:       s.Matrix,
			Loads:        s.Loads,
			Candidates:   s.MonitorLinks,
			InvMeanSizes: inv,
			Budget:       core.BudgetPerInterval(theta, interval),
		})
		if err != nil {
			t.Fatalf("θ=%v: %v", theta, err)
		}
		sol, err := core.Solve(prob, core.Options{})
		if err != nil {
			t.Fatalf("θ=%v: %v", theta, err)
		}
		core.CertifySolution(t, prob, sol, 0)
	}
}
