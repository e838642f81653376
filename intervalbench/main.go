// Command intervalbench is netsamp's interval-pipeline benchmark. It
// drives four workloads through the public functions of the daemon,
// eval, faults, control, core, engine, state, ingest, topology and plan
// layers, times them from outside, checks their outputs, and prints one
// JSON result line:
//
//	intervalbench --workload geant-serve --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, recorded as spans around
// each layer call in a separate traced run. --workload all runs every
// workload in turn and prefixes each metric with its workload's name.
// The process exits 1 when an output check fails and 2 on a usage or
// set-up error. README.md explains the workloads and the metrics.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"interval_p50_ms", "ms"},
	{"interval_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, reported by every workload with
// --trace 1. A layer a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"failed_frac", "ratio"},
	{"trace.overhead_us", "us"},
	{"eval.world_p50_ms", "ms"},
	{"faults.start_overrun_skips", "count"},
	{"control.step_p50_ms", "ms"},
	{"control.degraded", "count"},
	{"control.set_changes", "count"},
	{"control.explored", "count"},
	{"state.journal_append_p50_us", "us"},
	{"state.checkpoint_p50_ms", "ms"},
	{"state.journal_bytes", "bytes"},
	{"state.checkpoints", "count"},
	{"state.journal_digest", "hash48"},
	{"engine.dispatches", "count"},
	{"engine.busy_s", "s"},
	{"core.serial_s", "s"},
	{"core.cold_iterations", "count"},
	{"core.warm_iterations", "count"},
	{"core.warm_p50_ms", "ms"},
	{"core.removals", "count"},
	{"core.allocs", "count"},
	{"core.objective_digest", "hash48"},
	{"topology.gen_s", "s"},
	{"plan.build_s", "s"},
	{"ingest.inject_s", "s"},
	{"ingest.process_s", "s"},
	{"ingest.merge_p50_us", "us"},
	{"ingest.useful_frac", "ratio"},
	{"ingest.dropped", "count"},
	{"ingest.coarse_batches", "count"},
	{"ingest.lost_upstream", "count"},
	{"ingest.duplicates", "count"},
	{"ingest.allocs", "count"},
	{"ingest.estimates_digest", "hash48"},
}

// outcome is what one workload run hands back: operation counts, the
// metric values it measured, and the output checks that failed.
type outcome struct {
	attempted, failed int64
	values            map[string]float64
	problems          []string
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

// set records a metric value.
func (o *outcome) set(name string, v float64) { o.values[name] = v }

// check records a failed output check when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// runParams are the command-line settings every workload receives.
type runParams struct {
	seed    uint64
	seconds float64
	trace   bool
	// work is a private scratch directory on the checkout's disk.
	work string
}

type workload struct {
	name string
	run  func(p runParams) (*outcome, error)
}

var workloads = []workload{
	{"geant-serve", func(p runParams) (*outcome, error) { return runGeant(p, false) }},
	{"geant-drift", func(p runParams) (*outcome, error) { return runGeant(p, true) }},
	{"scale-exact", runScale},
	{"ingest-burst", runIngest},
}

// metricJSON and resultJSON are the printed result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// metricsFor picks the metric set of the mode out of o, prefixing each
// name with prefix. An end-to-end metric the workload did not measure is
// a bug in the benchmark; a per-layer metric it did not measure is 0.
func metricsFor(o *outcome, trace bool, prefix string, into map[string]metricJSON) error {
	defs, required := endToEnd, true
	if trace {
		defs, required = perLayer, false
	}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok && required {
			return fmt.Errorf("workload did not measure %s", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		into[prefix+d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("intervalbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "geant-serve, geant-drift, scale-exact, ingest-burst or all")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 15, "measurement time per workload in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "intervalbench: --trace %d, want 0 or 1\n", *trace)
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintf(stderr, "intervalbench: --seconds %v, want > 0\n", *seconds)
		return 2
	}
	var chosen []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(stderr, "intervalbench: unknown workload %q\n", *name)
		return 2
	}
	// Every workload stays within two threads of CPU, the size of the
	// box the sizing numbers in README.md were taken on.
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "intervalbench: %v\n", err)
		return 2
	}
	base := filepath.Join(cwd, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintf(stderr, "intervalbench: %v\n", err)
		return 2
	}
	work, err := os.MkdirTemp(base, "work-")
	if err != nil {
		fmt.Fprintf(stderr, "intervalbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(work)

	res := resultJSON{Correct: true, Metrics: make(map[string]metricJSON)}
	for _, w := range chosen {
		p := runParams{seed: *seed, seconds: *seconds, trace: *trace == 1, work: filepath.Join(work, w.name)}
		if err := os.Mkdir(p.work, 0o755); err != nil {
			fmt.Fprintf(stderr, "intervalbench: %v\n", err)
			return 2
		}
		o, err := w.run(p)
		if err != nil {
			fmt.Fprintf(stderr, "intervalbench: %s: %v\n", w.name, err)
			return 2
		}
		o.set("peak_rss_mb", peakRSSMB())
		if o.attempted > 0 {
			o.set("failed_frac", float64(o.failed)/float64(o.attempted))
		}
		prefix := ""
		if len(chosen) > 1 {
			prefix = w.name + "."
		}
		if err := metricsFor(o, p.trace, prefix, res.Metrics); err != nil {
			fmt.Fprintf(stderr, "intervalbench: %s: %v\n", w.name, err)
			return 2
		}
		for _, msg := range o.problems {
			fmt.Fprintf(stderr, "intervalbench: %s: check failed: %s\n", w.name, msg)
		}
		res.Correct = res.Correct && len(o.problems) == 0
		res.Attempted += o.attempted
		res.Failed += o.failed
		if len(chosen) > 1 {
			printTable(stdout, w.name, o, p.trace)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "intervalbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printTable writes one workload's metrics as "workload name value unit"
// lines, for reading a --workload all run by eye.
func printTable(w io.Writer, name string, o *outcome, trace bool) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-13s %-28s %14.6g %s\n", name, d.name, o.values[d.name], d.unit)
	}
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// budget tracks a run's measurement time.
type budget struct {
	start time.Time
	limit time.Duration
}

func newBudget(seconds float64) budget {
	return budget{start: time.Now(), limit: time.Duration(seconds * float64(time.Second))}
}

// left reports whether measurement time remains.
func (b budget) left() bool { return time.Since(b.start) < b.limit }

// envelope keeps, for each operation of a repetition, the fastest time
// any repetition of the run took for it. Every repetition of a seed does
// the same work operation by operation (the outputs are checked to be
// identical), and other tenants of a shared host only ever slow an
// operation down, so the envelope estimates the program's own cost. On
// the 2-vCPU cloud host these workloads were sized on, a fixed
// arithmetic loop's speed swung by 2× from one second to the next and
// stretches of 28% CPU steal lasted minutes; a run's median interval
// moved by up to 60% from run to run.
type envelope struct {
	best []float64 // ms per operation
}

// add folds in one repetition's per-operation latencies in ms.
func (e *envelope) add(lat []float64) {
	if e.best == nil {
		e.best = append([]float64(nil), lat...)
		return
	}
	for i := range e.best {
		if i < len(lat) && lat[i] < e.best[i] {
			e.best[i] = lat[i]
		}
	}
}

// report sets the latency and throughput end-to-end metrics: the median
// and the tailQ quantile of the envelope, and ops operations (one
// repetition's worth) over the envelope's total time.
func (e *envelope) report(o *outcome, tailQ, ops float64) {
	if len(e.best) == 0 {
		// Nothing completed; the failed checks say why.
		o.set("interval_p50_ms", 0)
		o.set("interval_tail_ms", 0)
		o.set("ops_per_s", 0)
		return
	}
	total := 0.0
	for _, v := range e.best {
		total += v
	}
	o.set("interval_p50_ms", median(e.best))
	o.set("interval_tail_ms", quantile(e.best, tailQ))
	o.set("ops_per_s", 1000*ops/total)
}

// quantile returns the q-quantile of xs by the nearest-rank rule (0 for
// an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// profileAllocs makes the allocation profile record every heap
// allocation until the returned function restores the previous rate.
// The traced runs read their allocation counts from it.
func profileAllocs() (restore func()) {
	prev := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	return func() { runtime.MemProfileRate = prev }
}

// programAllocs is the number of heap allocations recorded so far with a
// netsamp package on the stack. Allocations the runtime makes for itself
// are left out: new threads and timer heaps carry no netsamp frame, and
// the sudog that parks a goroutine blocking in program code is the
// runtime's own, re-made after every collection empties its cache. Read
// through runtime.MemStats, these made a zero-allocation pin fail at
// random. Two collections publish the most recent allocations.
func programAllocs() uint64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	var total uint64
	for i := range recs {
		frames := runtime.CallersFrames(recs[i].Stack())
		for first := true; ; first = false {
			f, more := frames.Next()
			if first && f.Function == "runtime.acquireSudog" {
				break
			}
			if strings.HasPrefix(f.Function, "netsamp/internal/") {
				total += uint64(recs[i].AllocObjects)
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}

// allocsPerOp is the whole number of heap allocations per operation, the
// figure testing.AllocsPerRun reports and the repository's zero-alloc
// pins compare with 0.
func allocsPerOp(allocs uint64, ops int64) uint64 {
	if ops <= 0 {
		return allocs
	}
	return allocs / uint64(ops)
}

// ms, us and sec convert a duration to the reported units.
func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
func sec(d time.Duration) float64 { return d.Seconds() }

// digestOf reports the SHA-256 of b as its first 48 bits, which a JSON
// number carries exactly.
func digestOf(b []byte) float64 {
	h := sha256.Sum256(b)
	return digest48(h[:])
}

// digest48 is the first 48 bits of a hash as a number.
func digest48(h []byte) float64 {
	var buf [8]byte
	copy(buf[2:], h[:6])
	return float64(binary.BigEndian.Uint64(buf[:]))
}
