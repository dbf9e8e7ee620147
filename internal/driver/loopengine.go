package driver

import (
	"miniamr/internal/forkjoin"
	"miniamr/internal/membuf"
	"miniamr/internal/mpi"
)

// LoopEngine is the execution engine of the two loop-parallel variants:
// parallel regions with static or dynamic scheduling, per-worker scratch
// buffers and arena caches, and the master thread's reused waitset and
// in-flight send list (all MPI communication stays on the master, as the
// hybrid MPI+OpenMP reference does). MPI-only is this engine with one
// worker: its regions run inline on the calling goroutine, the way the
// reference's OpenMP build without threads is its MPI code. The per-stage
// hot path must not allocate, so every piece is constructed once and
// recycled across stages.
type LoopEngine struct {
	arena     *membuf.Arena
	pool      *forkjoin.Pool // nil with one worker: regions run inline
	dynamic   bool
	scratches [][]float64     // per-worker staging for cross-level copies
	caches    []*membuf.Cache // per-worker arena fronts
	ws        *mpi.WaitSet    // reused across stages by the master thread
	sendReqs  []*mpi.Request  // the stage's in-flight sends
}

// NewLoopEngine builds the engine for the given worker count with
// per-worker scratch buffers of scratchLen float64s. More than one worker
// starts a pool; dynamic then selects work-stealing chunked scheduling
// for its parallel loops instead of static per-worker partitioning.
func NewLoopEngine(a *membuf.Arena, workers, scratchLen int, dynamic bool) *LoopEngine {
	e := &LoopEngine{
		arena:     a,
		dynamic:   dynamic,
		scratches: make([][]float64, workers),
		caches:    make([]*membuf.Cache, workers),
		ws:        mpi.NewWaitSet(),
	}
	if workers > 1 {
		e.pool = forkjoin.MustNew(workers)
	}
	for i := range e.scratches {
		e.scratches[i] = a.GetFloat64(scratchLen)
		e.caches[i] = membuf.NewCache(a)
	}
	return e
}

// ParFor runs a parallel region; body receives the iteration index and
// the executing worker. A one-worker engine has nobody to hand work to,
// so it decides from its own worker count — not from an option — to run
// the region inline: no goroutine, no channel hand-off, no allocation.
func (e *LoopEngine) ParFor(n int, body func(i, w int)) {
	switch {
	case e.pool == nil:
		RunInline(n, body)
	case e.dynamic:
		e.pool.ForDynamic(n, 1, body)
	default:
		e.pool.ForWorker(n, body)
	}
}

// RunInline is a parallel region on one worker: the iterations in order
// on the calling goroutine, as worker 0.
func RunInline(n int, body func(i, w int)) {
	for i := 0; i < n; i++ {
		body(i, 0)
	}
}

// Scratch returns worker w's staging buffer.
func (e *LoopEngine) Scratch(w int) []float64 { return e.scratches[w] }

// Cache returns worker w's arena front.
func (e *LoopEngine) Cache(w int) *membuf.Cache { return e.caches[w] }

// Wait returns the master thread's reused waitset.
func (e *LoopEngine) Wait() *mpi.WaitSet { return e.ws }

// TrackSend records an in-flight send request.
func (e *LoopEngine) TrackSend(req *mpi.Request) {
	e.sendReqs = append(e.sendReqs, req)
}

// FlushSends waits for the tracked sends to complete, recycles their
// requests and resets the list. On a wait error the requests are not
// freed (in-flight operations may still reference them); the run is over
// anyway.
func (e *LoopEngine) FlushSends() error {
	err := mpi.Waitall(e.sendReqs)
	if err == nil {
		for _, req := range e.sendReqs {
			req.Free()
		}
	}
	e.sendReqs = e.sendReqs[:0]
	return err
}

// ClosePool stops the workers. Safe to call twice; Close calls it too, so
// error paths can stop the pool without releasing buffers the run may
// still reference.
func (e *LoopEngine) ClosePool() {
	if e.pool != nil {
		e.pool.Close()
		e.pool = nil
	}
}

// Close stops the workers and returns every pooled buffer. Called after a
// successful run.
func (e *LoopEngine) Close() {
	e.ClosePool()
	for i := range e.scratches {
		e.arena.PutFloat64(e.scratches[i])
		e.caches[i].Flush()
	}
	e.scratches = nil
	e.caches = nil
}
