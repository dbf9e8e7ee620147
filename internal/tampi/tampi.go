// Package tampi reproduces the Task-Aware MPI library: it integrates MPI
// operations with the data-flow tasking runtime so communications can be
// issued safely and efficiently from inside tasks.
//
// Two families of operations are provided, mirroring the TAMPI API the
// paper builds on:
//
//   - Blocking operations (Send, Recv) pause the calling task until the
//     operation completes. The task's virtual core is released in the
//     meantime, so the runtime keeps executing other ready tasks — the
//     task is suspended, not the worker.
//   - Non-blocking binding (Isend, Irecv, Iwait) starts a standard
//     non-blocking operation and binds its completion to the calling
//     task: the task's dependencies are released only once the task body
//     has returned and every bound request has completed. Successor tasks
//     therefore observe fully transferred buffers without anybody
//     spinning on MPI_Test.
//
// Errors on bound requests complete asynchronously, possibly after the
// issuing task body has returned; they are recorded in the Context and
// surfaced by Err, which drivers check at phase boundaries.
package tampi

import (
	"sync"
	"sync/atomic"

	"miniamr/internal/membuf"
	"miniamr/internal/mpi"
	"miniamr/internal/task"
)

// Context couples one rank's communicator with asynchronous error
// tracking. All methods are safe for concurrent use by tasks of the rank.
type Context struct {
	comm *mpi.Comm

	mu   sync.Mutex
	err  error
	free []*binding // guarded by mu too
}

// New builds a task-aware context over a communicator.
func New(c *mpi.Comm) *Context { return &Context{comm: c} }

// await finishes a blocking operation: unless starting it failed, it parks
// t until req completes and returns the outcome. An attached transport
// monitor sees the pause as a soft block: the rank's other tasks keep
// running, so it is context for deadlock reports, never a detection input.
func (x *Context) await(t *task.Task, req *mpi.Request, err error, op string, peer, tag int) (mpi.Status, error) {
	if err != nil {
		return mpi.Status{}, err
	}
	if mon := x.comm.World().Monitor(); mon != nil {
		token := mon.BlockEnter(mpi.BlockInfo{
			Rank: x.comm.Rank(), Peer: peer, Tag: tag, Op: op, Soft: true,
		}, nil)
		defer mon.BlockExit(token)
	}
	t.Suspend(req.Done())
	return req.Wait()
}

// bind finishes a non-blocking operation: unless starting it failed, it
// binds req's completion to t.
func (x *Context) bind(t *task.Task, req *mpi.Request, err error) error {
	if err == nil {
		x.Iwait(t, req)
	}
	return err
}

// Err returns the first asynchronous error observed on a bound request, or
// nil. Drivers call it at synchronisation points.
func (x *Context) Err() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.err
}

// binding ties the requests of one Iwait call to the calling task: each
// completion records its error and consumes one of the task's events, the
// last one putting the task's successors straight on the ready queue. It
// counts the requests still outstanding and goes back to the context's
// free list after the last one's completion.
type binding struct {
	x    *Context
	t    *task.Task
	left atomic.Int32
}

// RequestDone implements mpi.Completion. It runs on Iwait's goroutine for a
// request that had already completed.
func (b *binding) RequestDone(err error) {
	x, t := b.x, b.t
	if last := b.left.Add(-1) == 0; last || err != nil {
		x.mu.Lock()
		if x.err == nil {
			x.err = err
		}
		if last {
			x.free = append(x.free, b) // nothing reads b any more
		}
		x.mu.Unlock()
	}
	t.CompleteEvent()
}

// Iwait binds the completion of the given requests to t: t will not
// release its dependencies until all of them complete. It never blocks.
// Corresponds to TAMPI_Iwait/TAMPI_Iwaitall. The pin is AddEvents' panic
// message.
//
//amr:hot allocs=1
func (x *Context) Iwait(t *task.Task, reqs ...*mpi.Request) {
	live := 0 // a null request is complete
	for _, r := range reqs {
		if r != nil {
			live++
		}
	}
	if live == 0 {
		return
	}
	t.AddEvents(live)
	b := x.binding(t, live)
	for _, r := range reqs {
		if r != nil {
			r.Bind(b) // b may be back on the free list after the last one
		}
	}
}

// binding takes a binding for n requests of t from the free list, or makes
// one.
//
//amr:hot allocs=1
func (x *Context) binding(t *task.Task, n int) *binding {
	x.mu.Lock()
	var b *binding
	if k := len(x.free); k > 0 {
		b, x.free = x.free[k-1], x.free[:k-1]
	}
	x.mu.Unlock()
	if b == nil {
		b = &binding{x: x}
	}
	b.t = t
	b.left.Store(int32(n))
	return b
}

// Isend starts a non-blocking send and binds it to t (TAMPI_Isend). The
// send buffer is copied eagerly by the MPI layer, so the caller may reuse
// it; the binding still delays dependency release until the message is on
// the wire, preserving TAMPI's completion semantics.
//
//amr:hot allocs=0
func (x *Context) Isend(t *task.Task, buf any, dest, tag int) error {
	req, err := x.comm.Isend(buf, dest, tag)
	return x.bind(t, req, err)
}

// IsendOwned starts a non-blocking ownership-transfer send and binds it to
// t: the lease passes to the MPI layer without a copy, and the receiving
// side returns the buffer to the arena. The caller must not touch the
// lease after a successful call; on error it retains ownership.
//
//amr:hot allocs=0
func (x *Context) IsendOwned(t *task.Task, pay *membuf.Lease, dest, tag int) error {
	req, err := x.comm.IsendOwned(pay, dest, tag)
	return x.bind(t, req, err)
}

// SendOwned performs a blocking ownership-transfer send from inside a
// task: the task pauses until the message has been delivered, releasing
// its core meanwhile. Lease ownership follows IsendOwned's rules.
//
//amr:hot allocs=0
func (x *Context) SendOwned(t *task.Task, pay *membuf.Lease, dest, tag int) error {
	req, err := x.comm.IsendOwned(pay, dest, tag)
	_, err = x.await(t, req, err, "tampi.SendOwned", dest, tag)
	return err
}

// Irecv starts a non-blocking receive into buf and binds it to t
// (TAMPI_Irecv). The buffer must not be consumed inside the task: it is
// valid only for successor tasks that depend on the task's out-access.
//
//amr:hot allocs=0
func (x *Context) Irecv(t *task.Task, buf any, source, tag int) error {
	req, err := x.comm.Irecv(buf, source, tag)
	return x.bind(t, req, err)
}

// Send performs a blocking send from inside a task: the task pauses until
// the message has been delivered, releasing its core meanwhile.
//
//amr:hot allocs=0
func (x *Context) Send(t *task.Task, buf any, dest, tag int) error {
	req, err := x.comm.Isend(buf, dest, tag)
	_, err = x.await(t, req, err, "tampi.Send", dest, tag)
	return err
}

// Recv performs a blocking receive from inside a task: the task pauses
// until a matching message has been copied into buf, releasing its core
// meanwhile.
//
//amr:hot allocs=0
func (x *Context) Recv(t *task.Task, buf any, source, tag int) (mpi.Status, error) {
	req, err := x.comm.Irecv(buf, source, tag)
	return x.await(t, req, err, "tampi.Recv", source, tag)
}
