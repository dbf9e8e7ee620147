package mpi

import "sync"

// Request represents an in-flight non-blocking operation. A Request is
// created by Isend or Irecv and completes exactly once; after completion
// its Status and error are immutable (until Free recycles it).
//
// Requests come from an internal pool: callers that have observed
// completion (via Wait, Test, Waitall or a WaitSet) may hand them back
// with Free so the hot paths run allocation-free. Freeing is optional —
// an un-freed request is simply collected by the GC.
type Request struct {
	mu   sync.Mutex
	done bool
	//amr:chan owner=settle,Done
	doneCh    chan struct{} // lazily created by Wait/Done on incomplete requests
	status    Status
	err       error
	callbacks []func()
	bound     Completion // at most one; notified after the callbacks
	ws        *WaitSet   // at most one waitset owns an incomplete request
	wsIdx     int

	// Sanitizer identity, set at creation only while a Monitor is attached
	// to the world (see irecv) and cleared by Free. With no monitor both
	// fields stay zero and Wait takes its original path.
	mon   Monitor
	binfo BlockInfo
}

// Completion is the closure-free counterpart of OnComplete: a value bound
// to a request is told when the request completes. It is what the
// Task-Aware MPI layer binds a task's release to; one Completion may be
// bound to many requests.
type Completion interface {
	// RequestDone runs once per bound request, on the completing goroutine
	// (on Bind's caller if the request had already completed), after the
	// request's OnComplete callbacks, with the operation's error.
	RequestDone(err error)
}

var requestPool = sync.Pool{New: func() any { return new(Request) }}

func newRequest() *Request { return requestPool.Get().(*Request) }

// complete records the outcome, fires callbacks and notifies the owning
// waitset. It must be called at most once per pooled lifetime.
func (r *Request) complete(st Status, err error) { r.settle(st, err, false) }

// settle marks the request done with the given outcome and tells everyone
// waiting on it, in this order: Done/Wait, the OnComplete callbacks, the
// bound Completion, the owning waitset. On a request that is already done
// a genuine completion panics and an abort does nothing.
//
//amr:hot allocs=1
func (r *Request) settle(st Status, err error, abort bool) {
	r.mu.Lock()
	if r.done {
		r.mu.Unlock()
		if abort {
			return
		}
		panic("mpi: request completed twice")
	}
	r.done = true
	r.status = st
	r.err = err
	cbs, bound := r.callbacks, r.bound
	r.callbacks, r.bound = nil, nil
	if r.doneCh != nil {
		close(r.doneCh)
	}
	ws, wsIdx := r.ws, r.wsIdx
	r.ws = nil
	r.mu.Unlock()
	for _, cb := range cbs {
		cb()
	}
	if bound != nil {
		bound.RequestDone(err)
	}
	if ws != nil {
		ws.deliver(wsIdx)
	}
}

// Wait blocks until the operation completes and returns its status. The
// completed-request fast path takes no channel and performs no allocation.
//
//amr:hot allocs=1
func (r *Request) Wait() (Status, error) {
	r.mu.Lock()
	if r.done {
		st, err := r.status, r.err
		r.mu.Unlock()
		return st, err
	}
	if r.doneCh == nil {
		r.doneCh = make(chan struct{})
	}
	ch := r.doneCh
	mon := r.mon
	r.mu.Unlock()
	if mon != nil {
		token := mon.BlockEnter(r.binfo, r.abort)
		<-ch
		mon.BlockExit(token)
	} else {
		<-ch
	}
	r.mu.Lock()
	st, err := r.status, r.err
	r.mu.Unlock()
	return st, err
}

// abort force-completes an in-flight request on behalf of the deadlock
// monitor; it is a no-op on an already-completed request. A genuine
// completion arriving after an abort panics in complete, which is
// acceptable only because aborts fire solely on provably dead jobs.
func (r *Request) abort(err error) { r.settle(Status{}, err, true) }

// Test reports whether the operation has completed, without blocking.
// When it returns true the status and error are those of the completion.
func (r *Request) Test() (bool, Status, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return true, r.status, r.err
	}
	return false, Status{}, nil
}

// Done returns a channel that is closed when the request completes.
func (r *Request) Done() <-chan struct{} {
	r.mu.Lock()
	if r.doneCh == nil {
		r.doneCh = make(chan struct{})
		if r.done {
			close(r.doneCh)
		}
	}
	ch := r.doneCh
	r.mu.Unlock()
	return ch
}

// OnComplete registers fn to run when the request completes. If the request
// has already completed, fn runs immediately on the calling goroutine.
func (r *Request) OnComplete(fn func()) {
	r.mu.Lock()
	if r.done {
		r.mu.Unlock()
		fn()
		return
	}
	r.callbacks = append(r.callbacks, fn)
	r.mu.Unlock()
}

// Bind registers c to be notified when the request completes; a request
// takes one binding. If the request has already completed, c is notified
// immediately on the calling goroutine.
func (r *Request) Bind(c Completion) {
	r.mu.Lock()
	if r.done {
		err := r.err
		r.mu.Unlock()
		c.RequestDone(err)
		return
	}
	if r.bound != nil {
		r.mu.Unlock()
		panic("mpi: request already bound")
	}
	r.bound = c
	r.mu.Unlock()
}

// Free returns a completed request to the pool. The caller asserts that
// completion has been observed and that no other goroutine still holds the
// request; any channel obtained from Done stays valid (and closed). Using
// the request after Free corrupts whichever operation reuses it.
//
//amr:hot allocs=1
func (r *Request) Free() {
	r.mu.Lock()
	if !r.done {
		r.mu.Unlock()
		panic("mpi: Free of incomplete request")
	}
	r.done = false
	r.doneCh = nil
	r.status = Status{}
	r.err = nil
	r.ws = nil
	r.mon = nil
	r.binfo = BlockInfo{}
	r.mu.Unlock()
	requestPool.Put(r)
}

// Waitall blocks until every request completes and returns the first error
// encountered (in slice order), if any.
//
//amr:hot allocs=0
func Waitall(reqs []*Request) error {
	var firstErr error
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if _, err := r.Wait(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Waitany blocks until at least one of the requests completes and returns
// its index and status. Requests that are nil (or already consumed by a
// previous Waitany, conventionally nil-ed out by the caller) are skipped.
// If all requests are nil, Waitany returns index -1 immediately, matching
// MPI_Waitany's MPI_UNDEFINED result.
func Waitany(reqs []*Request) (int, Status, error) {
	live := 0
	for _, r := range reqs {
		if r != nil {
			live++
		}
	}
	if live == 0 {
		return -1, Status{}, nil
	}
	type hit struct{ idx int }
	ch := make(chan hit, live)
	for i, r := range reqs {
		if r == nil {
			continue
		}
		i := i
		r.OnComplete(func() { ch <- hit{i} })
	}
	h := <-ch
	st, err := reqs[h.idx].Wait() // already complete; fetch outcome
	return h.idx, st, err
}

// WaitSet is an allocation-free alternative to repeated Waitany calls over
// the same request batch: a long-lived set that requests report into as
// they complete. Where a Waitany loop re-registers a callback per live
// request on every call (O(n²) closures for n arrivals), a WaitSet attaches
// each request once with no closure at all.
//
// Usage is single-consumer: Add every request of a round, call Next exactly
// Len times, then Reset for the next round. The set takes ownership of
// added requests — Next recycles each one (see Request.Free) as its
// completion is consumed. Reset must not run while an attached request can
// still complete; abandon the set instead on error paths that leave
// operations in flight.
type WaitSet struct {
	mu    sync.Mutex
	cond  sync.Cond
	reqs  []*Request
	ready []int // completed, not yet consumed (order irrelevant, LIFO pop)
}

// NewWaitSet returns an empty set, ready for Add.
func NewWaitSet() *WaitSet {
	ws := &WaitSet{}
	ws.cond.L = &ws.mu
	return ws
}

// Len is the number of requests added since the last Reset.
func (ws *WaitSet) Len() int { return len(ws.reqs) }

// Add attaches a request to the set and returns its index (the add order,
// restarting at 0 after Reset). Already-completed requests are accepted and
// become immediately available to Next.
//
//amr:hot allocs=1
func (ws *WaitSet) Add(r *Request) int {
	idx := len(ws.reqs)
	ws.reqs = append(ws.reqs, r)
	r.mu.Lock()
	if r.done {
		r.mu.Unlock()
		ws.deliver(idx)
		return idx
	}
	if r.ws != nil {
		r.mu.Unlock()
		panic("mpi: request already in a WaitSet")
	}
	r.ws, r.wsIdx = ws, idx
	r.mu.Unlock()
	return idx
}

// deliver marks index idx consumable; called by Add or Request.complete.
func (ws *WaitSet) deliver(idx int) {
	ws.mu.Lock()
	ws.ready = append(ws.ready, idx)
	ws.mu.Unlock()
	ws.cond.Signal()
}

// Next blocks until some added request has completed, consumes it, and
// returns its index and outcome. Each index is returned exactly once;
// calling Next more times than Len since the last Reset blocks forever.
// The request itself is recycled before Next returns.
//
//amr:hot allocs=0
func (ws *WaitSet) Next() (int, Status, error) {
	ws.mu.Lock()
	for len(ws.ready) == 0 {
		ws.cond.Wait()
	}
	n := len(ws.ready) - 1
	idx := ws.ready[n]
	ws.ready = ws.ready[:n]
	ws.mu.Unlock()
	r := ws.reqs[idx]
	ws.reqs[idx] = nil
	_, st, err := r.Test() // completed; fetch outcome under the request lock
	r.Free()
	return idx, st, err
}

// Reset empties the set for a new round, detaching any request that was
// never consumed (without recycling it) and dropping undelivered
// completions. The backing storage is retained.
func (ws *WaitSet) Reset() {
	ws.mu.Lock()
	reqs := ws.reqs
	ws.mu.Unlock()
	for _, r := range reqs {
		if r == nil {
			continue
		}
		r.mu.Lock()
		if r.ws == ws {
			r.ws = nil
		}
		r.mu.Unlock()
	}
	ws.mu.Lock()
	ws.reqs = ws.reqs[:0]
	ws.ready = ws.ready[:0]
	ws.mu.Unlock()
}
