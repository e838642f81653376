package core

// Sharded pair-loop kernels. Every hot sweep of the solver — gradient,
// line-search derivatives, Hessian curvature, products and diagonal,
// objective, solution assembly — is a reduction over the CSR pair rows.
// At 10⁶ pairs one core is the bottleneck, so a Solver can attach a
// persistent worker pool (engine.Pool via the ForPool interface) and fan
// each sweep out over pair chunks.
//
// Determinism contract: results are bit-identical at ANY worker count,
// including 1. The chunk partition is a pure function of the problem
// shape (never of the worker count), every chunk accumulates into its
// own partial buffer in ascending pair order, and the cross-chunk
// reduction runs sequentially in ascending chunk order on the
// dispatching goroutine. Worker scheduling therefore affects wall-clock
// only. (The sharded sum groups additions differently from the serial
// kernel, so sharded-vs-unsharded agreement is to rounding, not bitwise;
// tests pin both properties.)
//
// Dispatch is allocation-free: the chunk closure is created once in
// Shard, arguments travel through solver-owned fields, and the pool's
// For loop sends plain ints.

// ForPool is the worker-pool surface the sharded kernels need.
// engine.Pool satisfies it; core deliberately does not import engine.
type ForPool interface {
	// Workers reports the pool size (informational).
	Workers() int
	// For runs fn(i) for every i in [0, n), possibly concurrently, and
	// returns when all calls completed.
	For(n int, fn func(int))
}

// shardChunkPairs is the target pairs-per-chunk. Small enough that mid-
// size problems split into several chunks (load balance, and the tests
// exercise real multi-chunk reductions), large enough that per-chunk
// dispatch overhead stays negligible.
const shardChunkPairs = 4096

// shardMaxChunks caps the chunk count: the cross-chunk reduction costs
// O(nChunks·n), which must stay well below the O(nnz) sweep it reduces.
const shardMaxChunks = 64

// Task opcodes for the chunk worker.
const (
	shardTaskGrad = iota
	shardTaskLine
	shardTaskCurv
	shardTaskHess
	shardTaskFinish
	shardTaskObj
	shardTaskDiag
)

type shardState struct {
	pool    ForPool
	nChunks int
	chunkSz int
	// runChunk is the single closure handed to pool.For, created once in
	// Shard so dispatch never allocates.
	runChunk func(int)
	// partials holds one n-wide accumulator row per chunk (gradient and
	// Hessian-product tasks); pd1/pd2 hold per-chunk scalar partials.
	partials []float64
	pd1, pd2 []float64
	// Per-dispatch arguments.
	task            int
	vecA, vecB      []float64
	t               float64
	rhoOut, utilOut []float64
}

// Shard attaches a worker pool to the solver's pair-loop kernels; nil
// detaches and restores the serial kernels. The chunk partition depends
// only on the compiled pair count, so two solvers of the same problem
// produce bit-identical results regardless of their pools' worker
// counts. Shard allocates the chunk buffers; call it at setup time, not
// between solves on the hot path.
func (s *Solver) Shard(pool ForPool) {
	if pool == nil {
		s.sh = shardState{}
		return
	}
	nChunks := (s.nPairs + shardChunkPairs - 1) / shardChunkPairs
	if nChunks > shardMaxChunks {
		nChunks = shardMaxChunks
	}
	if nChunks < 1 {
		nChunks = 1
	}
	s.sh.nChunks = nChunks
	s.sh.chunkSz = (s.nPairs + nChunks - 1) / nChunks
	if len(s.sh.partials) < nChunks*s.n {
		s.sh.partials = make([]float64, nChunks*s.n)
		s.sh.pd1 = make([]float64, nChunks)
		s.sh.pd2 = make([]float64, nChunks)
	}
	if s.curv == nil {
		// The sharded Newton path caches curvatures even when n is small
		// enough that initScratch skipped the CG buffers.
		s.curv = make([]float64, s.nPairs)
	}
	s.sh.runChunk = s.shardChunk
	s.sh.pool = pool
}

// Sharded reports whether a worker pool is attached.
func (s *Solver) Sharded() bool { return s.sh.pool != nil }

// shardChunk executes one chunk of the current task. Chunks own disjoint
// pair ranges and disjoint output slots, so chunk bodies never touch
// shared state; the pool's completion barrier publishes their writes
// back to the dispatcher.
func (s *Solver) shardChunk(c int) {
	kLo := c * s.sh.chunkSz
	kHi := kLo + s.sh.chunkSz
	if kHi > s.nPairs {
		kHi = s.nPairs
	}
	if kLo > kHi {
		kLo = kHi
	}
	switch s.sh.task {
	case shardTaskGrad:
		part := s.sh.partials[c*s.n : (c+1)*s.n]
		for i := range part {
			part[i] = 0
		}
		rates := s.sh.vecA
		for k := kLo; k < kHi; k++ {
			lo, hi := s.start[k], s.start[k+1]
			links, fracs := s.links[lo:hi], s.csrFracs(lo, hi)
			rho := s.model.pairRhoCSR(links, fracs, rates)
			d := s.wts[k] * s.utils[k].Deriv(rho)
			s.model.accumGradCSR(links, fracs, rates, rho, d, part)
		}
	case shardTaskLine:
		d1, d2 := 0.0, 0.0
		for k := kLo; k < kHi; k++ {
			lo, hi := s.start[k], s.start[k+1]
			e1, e2 := s.model.lineTermsCSR(s.links[lo:hi], s.csrFracs(lo, hi),
				s.sh.vecA, s.sh.vecB, s.sh.t, s.utils[k], s.wts[k])
			d1 += e1
			d2 += e2
		}
		s.sh.pd1[c], s.sh.pd2[c] = d1, d2
	case shardTaskCurv:
		rates := s.sh.vecA
		for k := kLo; k < kHi; k++ {
			s.curv[k] = s.wts[k] * s.utils[k].Curv(s.rho(k, rates))
		}
	case shardTaskHess:
		part := s.sh.partials[c*s.n : (c+1)*s.n]
		for i := range part {
			part[i] = 0
		}
		s.hessMulRange(kLo, kHi, s.sh.vecB, part)
	case shardTaskFinish:
		rates := s.sh.vecA
		obj := 0.0
		for k := kLo; k < kHi; k++ {
			rho := s.rho(k, rates)
			u := s.utils[k].Value(rho)
			s.sh.rhoOut[k] = rho
			s.sh.utilOut[k] = u
			obj += s.wts[k] * u
		}
		s.sh.pd1[c] = obj
	case shardTaskDiag:
		part := s.sh.partials[c*s.n : (c+1)*s.n]
		for i := range part {
			part[i] = 0
		}
		s.hessDiagRange(kLo, kHi, s.sh.vecA, part)
	case shardTaskObj:
		rates := s.sh.vecA
		obj := 0.0
		for k := kLo; k < kHi; k++ {
			obj += s.wts[k] * s.utils[k].Value(s.rho(k, rates))
		}
		s.sh.pd1[c] = obj
	}
}

// reducePartials adds the chunk accumulator rows into out, in ascending
// chunk order — the worker-count-independent reduction.
//netsamp:noalloc
func (s *Solver) reducePartials(out []float64) {
	n := s.n
	for c := 0; c < s.sh.nChunks; c++ {
		part := s.sh.partials[c*n : (c+1)*n]
		for i := 0; i < n; i++ {
			out[i] += part[i]
		}
	}
}

// shardGradient is the sharded form of gradient.
//netsamp:noalloc
func (s *Solver) shardGradient(rates, out []float64) {
	s.sh.task = shardTaskGrad
	s.sh.vecA = rates
	s.sh.pool.For(s.sh.nChunks, s.sh.runChunk) //netsamp:allocflow-ok sole impl engine.Pool.For is noalloc-checked in its package
	s.sh.vecA = nil
	for i := range out {
		out[i] = 0
	}
	s.reducePartials(out)
}

// shardLineDerivs is the sharded form of lineDerivs.
//netsamp:noalloc
func (s *Solver) shardLineDerivs(rates, dir []float64, t float64) (d1, d2 float64) {
	s.sh.task = shardTaskLine
	s.sh.vecA, s.sh.vecB, s.sh.t = rates, dir, t
	s.sh.pool.For(s.sh.nChunks, s.sh.runChunk) //netsamp:allocflow-ok sole impl engine.Pool.For is noalloc-checked in its package
	s.sh.vecA, s.sh.vecB = nil, nil
	for c := 0; c < s.sh.nChunks; c++ {
		d1 += s.sh.pd1[c]
		d2 += s.sh.pd2[c]
	}
	return d1, d2
}

// shardCurvFill is the sharded form of curvFill; chunks write disjoint
// s.curv ranges, so there is no reduction.
//netsamp:noalloc
func (s *Solver) shardCurvFill(rates []float64) {
	s.sh.task = shardTaskCurv
	s.sh.vecA = rates
	s.sh.pool.For(s.sh.nChunks, s.sh.runChunk) //netsamp:allocflow-ok sole impl engine.Pool.For is noalloc-checked in its package
	s.sh.vecA = nil
}

// shardHessMul is the sharded form of hessMulInto.
//netsamp:noalloc
func (s *Solver) shardHessMul(v, out []float64) {
	s.sh.task = shardTaskHess
	s.sh.vecB = v
	s.sh.pool.For(s.sh.nChunks, s.sh.runChunk) //netsamp:allocflow-ok sole impl engine.Pool.For is noalloc-checked in its package
	s.sh.vecB = nil
	for i := range out {
		out[i] = 0
	}
	s.reducePartials(out)
	for i := 0; i < s.n; i++ {
		if s.freePos[i] < 0 {
			out[i] = 0
		}
	}
}

// shardFinish is the sharded form of finishInto's per-pair sweep: rho
// and utility slots are written per pair (disjoint), the objective is
// reduced over the chunk partials in order.
//netsamp:noalloc
func (s *Solver) shardFinish(rates, rhoOut, utilOut []float64) float64 {
	s.sh.task = shardTaskFinish
	s.sh.vecA, s.sh.rhoOut, s.sh.utilOut = rates, rhoOut, utilOut
	s.sh.pool.For(s.sh.nChunks, s.sh.runChunk) //netsamp:allocflow-ok sole impl engine.Pool.For is noalloc-checked in its package
	s.sh.vecA, s.sh.rhoOut, s.sh.utilOut = nil, nil, nil
	obj := 0.0
	for c := 0; c < s.sh.nChunks; c++ {
		obj += s.sh.pd1[c]
	}
	return obj
}

// shardHessDiag is the sharded form of hessDiag.
//netsamp:noalloc
func (s *Solver) shardHessDiag(rates, out []float64) {
	s.sh.task = shardTaskDiag
	s.sh.vecA = rates
	s.sh.pool.For(s.sh.nChunks, s.sh.runChunk) //netsamp:allocflow-ok sole impl engine.Pool.For is noalloc-checked in its package
	s.sh.vecA = nil
	for i := range out {
		out[i] = 0
	}
	s.reducePartials(out)
}

// shardObjective is the sharded form of objective: per-chunk partial
// sums reduced in ascending chunk order.
//netsamp:noalloc
func (s *Solver) shardObjective(rates []float64) float64 {
	s.sh.task = shardTaskObj
	s.sh.vecA = rates
	s.sh.pool.For(s.sh.nChunks, s.sh.runChunk) //netsamp:allocflow-ok sole impl engine.Pool.For is noalloc-checked in its package
	s.sh.vecA = nil
	obj := 0.0
	for c := 0; c < s.sh.nChunks; c++ {
		obj += s.sh.pd1[c]
	}
	return obj
}
