package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"netsamp/internal/ingest"
	"netsamp/internal/netflow"
	"netsamp/internal/packet"
	"netsamp/internal/rng"
)

// The ingest-burst workload: the sharded collector tier in step mode,
// fed full export datagrams window by window. After every window the
// shards drain and merge into the estimator; every burstEvery-th window
// offers twice the tier's ring capacity before draining, so drop-newest
// sheds load on a schedule fixed by the seed.
const (
	ingestShards       = 2
	ingestRing         = 1024 // datagrams per shard ring
	ingestExporters    = 64
	ingestTemplates    = 8 // distinct record payloads per exporter
	ingestODs          = 32
	ingestInterval     = 300 // estimator interval in seconds
	ingestBins         = 4   // intervals the records' start times span
	ingestWindow       = 256 // datagrams per steady window
	ingestBurstEvery   = 64
	ingestWindowsInRep = 32 * ingestBurstEvery
	ingestBurst        = 2 * ingestShards * ingestRing // datagrams per burst window
	ingestGap          = 0.01                          // a datagram lost upstream
	ingestDup          = 0.01                          // a datagram sent twice
	ingestReorder      = 0.01                          // a datagram held back one
	recordsPerDatagram = netflow.MaxRecordsPerDatagram
)

// ingestEvent is one datagram offered to the tier: exporter exp's
// template tmpl stamped with flow sequence seq.
type ingestEvent struct {
	exp, tmpl uint16
	seq       uint32
}

// ingestInput is everything one seed determines: estimator rates, the
// datagram templates and the window-by-window datagram stream.
type ingestInput struct {
	rho       []float64
	templates [][]byte // exporter-major: templates[exp*ingestTemplates+tmpl]
	windows   [][]ingestEvent
}

func (in *ingestInput) burst(w int) bool { return w%ingestBurstEvery == ingestBurstEvery-1 }

// makeIngestInput builds the seed's inputs. Each exporter numbers its
// records the way an exporter's flow sequence does; upstream losses skip
// a datagram's worth of sequence, duplicates resend a datagram, and a
// reordered datagram arrives after its exporter's next one.
func makeIngestInput(seed uint64) *ingestInput {
	r := rng.New(seed)
	in := &ingestInput{rho: make([]float64, ingestODs)}
	for k := range in.rho {
		in.rho[k] = 0.01 + 0.99*r.Float64()
	}
	for e := 0; e < ingestExporters; e++ {
		for t := 0; t < ingestTemplates; t++ {
			h := packet.Header{Count: recordsPerDatagram, Exporter: uint32(e)}
			b := h.AppendTo(make([]byte, 0, packet.HeaderSize+recordsPerDatagram*packet.RecordSize))
			for i := 0; i < recordsPerDatagram; i++ {
				pkts := uint64(1 + r.Intn(64))
				start := uint32(r.Intn(ingestBins * ingestInterval))
				rec := packet.Record{
					Key: packet.FiveTuple{
						Src: packet.Addr(0x0a000000 | uint32(e)), Dst: packet.Addr(r.Uint64()),
						SrcPort: uint16(r.Intn(65536)), DstPort: uint16(r.Intn(65536)), Proto: packet.ProtoTCP,
					},
					MonitorID: uint16(e),
					Packets:   pkts,
					Bytes:     pkts * uint64(40+r.Intn(1460)),
					Start:     start,
					End:       start + 1,
				}
				b = rec.AppendTo(b)
			}
			in.templates = append(in.templates, b)
		}
	}

	next := make([]uint32, ingestExporters)
	held := make([]*ingestEvent, ingestExporters)
	for w := 0; w < ingestWindowsInRep; w++ {
		size := ingestWindow
		if in.burst(w) {
			size = ingestBurst
		}
		win := make([]ingestEvent, 0, size+1)
		for len(win) < size {
			e := r.Intn(ingestExporters)
			if r.Bernoulli(ingestGap) {
				next[e] += recordsPerDatagram
			}
			ev := ingestEvent{exp: uint16(e), tmpl: uint16(r.Intn(ingestTemplates)), seq: next[e]}
			next[e] += recordsPerDatagram
			switch {
			case held[e] != nil:
				win = append(win, ev, *held[e])
				held[e] = nil
			case r.Bernoulli(ingestReorder):
				held[e] = &ev
			case r.Bernoulli(ingestDup):
				win = append(win, ev, ev)
			default:
				win = append(win, ev)
			}
		}
		in.windows = append(in.windows, win)
	}
	return in
}

// ingestRep is one repetition's measurements.
type ingestRep struct {
	setup        time.Duration
	windows      []time.Duration
	inject       time.Duration // traced: total inject time
	process      time.Duration // traced: total drain time
	merges       []time.Duration
	allocs       uint64 // traced: after the first burst cycle
	view         ingest.View
	expectedDrop uint64 // records the schedule must shed
	digest       float64
}

// runIngestRep feeds one fresh collector the whole stream.
func runIngestRep(in *ingestInput, traced bool) (*ingestRep, error) {
	rep := &ingestRep{windows: make([]time.Duration, 0, len(in.windows))}
	if traced {
		rep.merges = make([]time.Duration, 0, len(in.windows))
	}
	start := time.Now()
	col, err := ingest.New(ingest.Config{
		Shards:          ingestShards,
		RingSize:        ingestRing,
		Policy:          ingest.DropNewest,
		IntervalSeconds: ingestInterval,
		Rho:             in.rho,
		Classifier: func(key packet.FiveTuple) (int, bool) {
			return int(key.DstPort) % ingestODs, true
		},
	})
	if err != nil {
		return nil, err
	}
	rep.setup = time.Since(start)

	// The traced run counts allocations once every exporter has been
	// seen and every interval bin exists: after the first burst cycle.
	var before uint64
	for w, win := range in.windows {
		if traced && w == ingestBurstEvery {
			before = programAllocs()
		}
		t0 := time.Now()
		for _, ev := range win {
			b := in.templates[int(ev.exp)*ingestTemplates+int(ev.tmpl)]
			binary.LittleEndian.PutUint32(b[4:], ev.seq)
			col.Inject(b)
		}
		var t1, t2 time.Time
		if traced {
			t1 = time.Now()
		}
		col.ProcessAllAvailable()
		if traced {
			t2 = time.Now()
		}
		if err := col.MergeNow(); err != nil {
			return nil, err
		}
		t3 := time.Now()
		rep.windows = append(rep.windows, t3.Sub(t0))
		if traced {
			rep.inject += t1.Sub(t0)
			rep.process += t2.Sub(t1)
			rep.merges = append(rep.merges, t3.Sub(t2))
		}
	}
	if traced {
		rep.allocs = programAllocs() - before
	}

	if err := col.Close(); err != nil {
		return nil, err
	}
	rep.view = col.Snapshot()
	rep.expectedDrop = expectedDrops(in, rep.view)
	rep.digest = estimatesDigest(col.Estimates())
	return rep, nil
}

// expectedDrops is the number of records drop-newest must shed: each
// burst starts on drained rings, so every shard keeps its first
// ingestRing datagrams of the burst and drops the rest.
func expectedDrops(in *ingestInput, v ingest.View) uint64 {
	shardOf := make(map[uint32]int, len(v.Exporters))
	for _, e := range v.Exporters {
		shardOf[e.ID] = e.Shard
	}
	var dropped uint64
	for w, win := range in.windows {
		if !in.burst(w) {
			continue
		}
		var perShard [ingestShards]int
		for _, ev := range win {
			perShard[shardOf[uint32(ev.exp)]]++
		}
		for _, n := range perShard {
			if n > ingestRing {
				dropped += uint64(n-ingestRing) * recordsPerDatagram
			}
		}
	}
	return dropped
}

// ingestFailures counts a repetition's failed records: malformed ones,
// and drops beyond (or short of) what the burst schedule must shed.
// Records a burst sheds are the drop-newest policy at work, not
// failures.
func ingestFailures(v ingest.View, expectedDrop uint64) int64 {
	failed := int64(v.Dropped.Total()-v.Dropped.Malformed) - int64(expectedDrop)
	if failed < 0 {
		failed = -failed
	}
	return failed + int64(v.Dropped.Malformed) + int64(v.MalformedDatagrams)*recordsPerDatagram
}

// estimatesDigest hashes every merged per-interval estimate.
func estimatesDigest(ests []netflow.BinEstimate) float64 {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, e := range ests {
		put(uint64(e.Start))
		for k := range e.Sampled {
			put(e.Sampled[k])
			put(math.Float64bits(e.Estimate[k]))
			put(math.Float64bits(e.RelStdErr[k]))
			if e.LowConfidence[k] {
				put(1)
			} else {
				put(0)
			}
		}
	}
	return digest48(h.Sum(nil))
}

func runIngest(p runParams) (*outcome, error) {
	o := newOutcome()
	in := makeIngestInput(p.seed)
	b := newBudget(p.seconds)
	var setups, plainP50, tracedP50, injects, processes, merges []float64
	var plain envelope
	var first *ingestRep
	var allocs uint64 // the most any traced repetition allocated
	if p.trace {
		defer profileAllocs()()
	}
	for i := 0; i < 2 || b.left(); i++ {
		traced := p.trace && i%2 == 1
		rep, err := runIngestRep(in, traced)
		if err != nil {
			return nil, err
		}
		v := rep.view
		o.attempted += int64(v.Records)
		o.failed += ingestFailures(v, rep.expectedDrop)
		o.check(v.CheckInvariant() == nil, "repetition %d: %v", i, v.CheckInvariant())
		o.check(v.Queued == 0 && v.Records == v.Delivered+v.Dropped.Total(),
			"repetition %d: received %d != delivered %d + dropped %d (queued %d)", i, v.Records, v.Delivered, v.Dropped.Total(), v.Queued)
		o.check(v.Dropped.Overload == rep.expectedDrop, "repetition %d: shed %d records, the burst schedule sheds %d", i, v.Dropped.Overload, rep.expectedDrop)
		if first == nil {
			first = rep
		} else {
			o.check(rep.digest == first.digest, "repetition %d (traced %v) estimates digest %v differs from %v", i, traced, rep.digest, first.digest)
			o.check(v.Dropped == first.view.Dropped && v.LostRecords == first.view.LostRecords,
				"repetition %d accounting differs from repetition 0", i)
		}
		if rep.allocs > allocs {
			allocs = rep.allocs
		}
		setups = append(setups, sec(rep.setup))
		lat := make([]float64, len(rep.windows))
		for j, d := range rep.windows {
			lat[j] = ms(d)
		}
		if !traced {
			plain.add(lat)
			plainP50 = append(plainP50, median(lat))
		} else {
			tracedP50 = append(tracedP50, median(lat))
			injects = append(injects, sec(rep.inject))
			processes = append(processes, sec(rep.process))
			for _, d := range rep.merges {
				merges = append(merges, us(d))
			}
		}
	}

	o.set("setup_s", median(setups))
	// p99 falls among the burst windows, 1 in 64.
	plain.report(o, 0.99, float64(first.view.Delivered))

	v := first.view
	var coarse uint64
	for _, s := range v.Shards {
		coarse += s.CoarseBatches
	}
	o.set("ingest.useful_frac", float64(v.Delivered)/float64(v.Records))
	o.set("ingest.dropped", float64(v.Dropped.Total()))
	o.set("ingest.coarse_batches", float64(coarse))
	o.set("ingest.lost_upstream", float64(v.LostRecords))
	o.set("ingest.duplicates", float64(v.Duplicates))
	o.set("ingest.estimates_digest", first.digest)
	if p.trace {
		steady := int64(ingestWindowsInRep - ingestBurstEvery)
		o.check(allocsPerOp(allocs, steady) == 0, "%d windows after the first burst cycle allocated %d times", steady, allocs)
		o.set("ingest.allocs", float64(allocs))
		o.set("ingest.inject_s", median(injects))
		o.set("ingest.process_s", median(processes))
		o.set("ingest.merge_p50_us", median(merges))
		o.set("trace.overhead_us", 1000*(median(tracedP50)-median(plainP50)))
	}
	if o.attempted == 0 {
		return nil, fmt.Errorf("no records offered")
	}
	return o, nil
}
