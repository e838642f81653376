package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"netsamp/internal/control"
	"netsamp/internal/core"
	"netsamp/internal/ingest"
)

// The benchmark's own tests: its inputs are pure functions of the seed,
// its metric names are what BENCHMARK.json declares, and its failure
// counting counts what it says. Run with `go test` in this directory.

func TestIngestInputDeterministicPerSeed(t *testing.T) {
	a, b := makeIngestInput(7), makeIngestInput(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two inputs of seed 7 differ")
	}
	if reflect.DeepEqual(a.windows, makeIngestInput(8).windows) {
		t.Fatal("seeds 7 and 8 give the same datagram stream")
	}
	if len(a.windows) != ingestWindowsInRep {
		t.Fatalf("%d windows, want %d", len(a.windows), ingestWindowsInRep)
	}
	for w, win := range a.windows {
		want := ingestWindow
		if a.burst(w) {
			want = ingestBurst
		}
		// A reordered datagram lands after its successor, so a window
		// may run one datagram over.
		if len(win) != want && len(win) != want+1 {
			t.Fatalf("window %d has %d datagrams, want %d", w, len(win), want)
		}
	}
}

func TestScaleLoadsDeterministicPerSeed(t *testing.T) {
	base := []float64{1, 10, 100, 1000}
	a, b, c := make([]float64, 4), make([]float64, 4), make([]float64, 4)
	warmLoads(a, base, 3, 1)
	warmLoads(b, base, 3, 1)
	warmLoads(c, base, 4, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("interval 1 of seed 3 gave %v then %v", a, b)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 3 and 4 give the same loads")
	}
}

func TestGeantRepeatsItsJournal(t *testing.T) {
	dir := t.TempDir()
	cfg := geantConfig(filepath.Join(dir, "plain"), 5, false)
	cfg.Intervals = 40
	plain, err := runGeantRep(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dir = filepath.Join(dir, "traced")
	traced, err := runGeantRep(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if plain.decoded != 40 || traced.decoded != 40 {
		t.Fatalf("decoded %d and %d of 40 records", plain.decoded, traced.decoded)
	}
	if plain.digest != traced.digest {
		t.Fatalf("traced journal digest %v differs from untraced %v", traced.digest, plain.digest)
	}
	if len(traced.world) != 40 || len(traced.step) != 40 || traced.checkpoints != 40/8+1 {
		t.Fatalf("traced %d world and %d step spans, %d checkpoints", len(traced.world), len(traced.step), traced.checkpoints)
	}
}

func TestGeantSeedPassesOverStartOverruns(t *testing.T) {
	// Seed 10's fault plan overruns interval 0's solve: the loop cannot
	// start on it.
	dir := t.TempDir()
	cfg := geantConfig(filepath.Join(dir, "raw"), 10, false)
	cfg.Intervals = 8
	if _, err := runGeantRep(cfg, false); !errors.Is(err, control.ErrNoFallback) {
		t.Fatalf("seed 10 ran with error %v, want control.ErrNoFallback", err)
	}
	for _, drift := range []bool{false, true} {
		seed, skipped, err := geantSeed(10, drift)
		if err != nil {
			t.Fatal(err)
		}
		if seed != 10+uint64(skipped) || skipped < 1 {
			t.Fatalf("drift %v: seed 10 maps to %d after %d skips", drift, seed, skipped)
		}
		cfg := geantConfig(filepath.Join(dir, fmt.Sprintf("mapped-%v", drift)), seed, drift)
		cfg.Intervals = 8
		if _, err := runGeantRep(cfg, false); err != nil {
			t.Fatalf("drift %v: mapped seed %d: %v", drift, seed, err)
		}
	}
	if seed, skipped, err := geantSeed(5, false); err != nil || seed != 5 || skipped != 0 {
		t.Fatalf("seed 5 maps to %d after %d skips (%v), want itself", seed, skipped, err)
	}
}

func TestIngestFailureCounting(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    ingest.View
		want int64
	}{
		{"scheduled drops only", ingest.View{Dropped: ingest.DropStats{Overload: 340}}, 0},
		{"extra drop", ingest.View{Dropped: ingest.DropStats{Overload: 374}}, 34},
		{"missing drop", ingest.View{Dropped: ingest.DropStats{Overload: 306}}, 34},
		{"malformed records", ingest.View{Dropped: ingest.DropStats{Overload: 340, Malformed: 34}}, 34},
		{"malformed datagram", ingest.View{Dropped: ingest.DropStats{Overload: 340}, MalformedDatagrams: 1}, recordsPerDatagram},
	} {
		if got := ingestFailures(tc.v, 340); got != tc.want {
			t.Errorf("%s: %d failures, want %d", tc.name, got, tc.want)
		}
	}
}

func TestIngestBurstShedsOnSchedule(t *testing.T) {
	in := makeIngestInput(2)
	in.windows = in.windows[:ingestBurstEvery] // one burst cycle
	rep, err := runIngestRep(in, true)
	if err != nil {
		t.Fatal(err)
	}
	v := rep.view
	if err := v.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if rep.expectedDrop == 0 || v.Dropped.Overload != rep.expectedDrop {
		t.Fatalf("shed %d records, schedule says %d", v.Dropped.Overload, rep.expectedDrop)
	}
	if f := ingestFailures(v, rep.expectedDrop); f != 0 {
		t.Fatalf("%d failed records", f)
	}
	if v.LostRecords == 0 || v.Duplicates == 0 {
		t.Fatalf("stream carries %d lost records and %d duplicates, want both", v.LostRecords, v.Duplicates)
	}
}

func TestCheckSolutionCountsViolations(t *testing.T) {
	loads := []float64{10, 20}
	ok := &core.Solution{Rates: []float64{0.5, 0.25}}
	if err := checkSolution(ok, loads, nil, 10); err != nil {
		t.Fatal(err)
	}
	for name, sol := range map[string]*core.Solution{
		"overspend":   {Rates: []float64{0.5, 0.3}},
		"above alpha": {Rates: []float64{1.5, -0.25}},
		"short":       {Rates: []float64{0.5}},
	} {
		if checkSolution(sol, loads, nil, 10) == nil {
			t.Errorf("%s: checker accepted %v", name, sol.Rates)
		}
	}
	if checkSolution(ok, loads, []float64{0.4, 1}, 10) == nil {
		t.Error("checker ignored MaxRate")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(kind string, defs []metricDef, declared []struct{ Name, Unit string }) {
		if len(defs) != len(declared) {
			t.Fatalf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(defs), len(declared))
		}
		for i, d := range defs {
			if !nameRE.MatchString(d.name) || seen[d.name] {
				t.Errorf("%s: bad or repeated name %q", kind, d.name)
			}
			seen[d.name] = true
			if d.name != declared[i].Name || d.unit != declared[i].Unit {
				t.Errorf("%s %d: %s [%s] here, %s [%s] in BENCHMARK.json", kind, i, d.name, d.unit, declared[i].Name, declared[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads here, %d in BENCHMARK.json", len(workloads), len(spec.Workloads))
	}
	for i, w := range workloads {
		if !nameRE.MatchString(w.name) || w.name != spec.Workloads[i].Name {
			t.Errorf("workload %d: %q here, %q in BENCHMARK.json", i, w.name, spec.Workloads[i].Name)
		}
	}
}

func TestUsageErrorsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "geant-serve", "--trace", "2"},
		{"--workload", "geant-serve", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

func TestQuantileAndAllocsPerOp(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if median(xs) != 3 || quantile(xs, 0.99) != 5 || quantile(xs, 0) != 1 || quantile(nil, 0.5) != 0 {
		t.Fatal("nearest-rank quantiles wrong")
	}
	if xs[0] != 5 {
		t.Fatal("quantile sorted its input")
	}
	if allocsPerOp(9, 10) != 0 || allocsPerOp(10, 10) != 1 || allocsPerOp(3, 0) != 3 {
		t.Fatal("allocsPerOp wrong")
	}
}

func TestEnvelopesKeepTheFastestOfEachOperation(t *testing.T) {
	var e envelope
	e.add([]float64{3, 1, 4})
	e.add([]float64{2, 7, 1})
	if !reflect.DeepEqual(e.best, []float64{2, 1, 1}) {
		t.Fatalf("envelope %v, want [2 1 1]", e.best)
	}
	o := newOutcome()
	e.report(o, 1, 8) // 8 operations in 4 ms
	if o.values["interval_p50_ms"] != 1 || o.values["interval_tail_ms"] != 2 || o.values["ops_per_s"] != 2000 {
		t.Fatalf("reported %v", o.values)
	}

	var s segEnvelope
	if err := s.add([]time.Duration{5, 10, 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.add([]time.Duration{4, 12, 6}); err != nil {
		t.Fatal(err)
	}
	if total, busy, n := s.sums(); total != 19 || busy != 10 || n != 1 {
		t.Fatalf("sums %v %v %v, want 19 10 1", total, busy, n)
	}
	if s.add([]time.Duration{1, 2, 3, 4, 5}) == nil {
		t.Fatal("a re-solve with another dispatch count was accepted")
	}
}
