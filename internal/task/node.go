package task

import (
	"runtime"
	"sync/atomic"
	"time"
)

// See Execution in the package comment.
const yieldEvery = 500 * time.Microsecond
const backlog = 8

// Task is the runtime's record of one task and the handle passed to its
// body. The handle is valid until the task has finished (body returned and
// every bound event completed); then the record may be recycled for a later
// Spawn. A WaitAccess pseudo-task is never executed: its caller is woken
// when its dependencies release.
type Task struct {
	// Guarded by rt.mu, and first because other tasks' spawns and
	// retirements touch exactly these: one cache line, not three.
	pending   int32 // unsatisfied predecessor count
	refs      int32 // mentions in the dependency map
	finished  bool
	suspended bool    // queued by Suspend, waiting for a worker to free a core
	waiter    bool    // a WaitAccess pseudo-task
	next      *Task   // ready-queue or free-list link
	succs     []*Task // backed by inline until a fifth successor arrives, then kept across recycling
	inline    [4]*Task

	// events counts outstanding completion obligations: 1 for the body
	// plus one per bound external event. The task finishes (releases its
	// dependencies) when events reaches zero.
	events atomic.Int32
	core   int    // virtual core executing the body
	id     uint64 // spawn-ordered task id; 0 for WaitAccess pseudo-tasks
	rt     *Runtime
	body   func(t *Task)
}

// push appends a ready or resuming task to the FIFO queue. Caller holds rt.mu.
func (rt *Runtime) push(n *Task) {
	n.next = nil
	*rt.tail = n
	rt.tail = &n.next
	rt.queued++
	rt.wake()
}

// wake signals a parked worker when a queued task and a free core wait to
// be paired. With no core free nobody needs waking: a worker giving one up
// looks at the queue itself. Caller holds rt.mu.
func (rt *Runtime) wake() {
	if rt.head != nil && len(rt.cores) > 0 {
		rt.workCond.Signal()
	}
}

// worker is the loop of one worker goroutine: pair the head of the ready
// queue with a free core, run the task and then the chain of immediate
// successors it releases on that core, give the core back. One hold of
// rt.mu covers a task's retirement and the fetch of the next.
func (rt *Runtime) worker() {
	defer rt.wg.Done()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var yielded time.Time
	for {
		for rt.head == nil || len(rt.cores) == 0 {
			if rt.closed {
				return
			}
			rt.workCond.Wait()
		}
		n, k := rt.head, len(rt.cores)-1
		if rt.queued--; rt.queued == rt.lowWater() {
			rt.spawnCond.Broadcast()
		}
		if rt.head = n.next; rt.head == nil {
			rt.tail = &rt.head
		}
		core := rt.cores[k]
		rt.cores = rt.cores[:k]
		if n.suspended { // a resuming task: the core is all it waits for
			n.suspended, n.core = false, core
			rt.cond.Broadcast()
			continue
		}
		for n != nil {
			n.core = core
			rt.mu.Unlock()
			if now := time.Now(); now.Sub(yielded) > yieldEvery {
				yielded = now
				runtime.Gosched()
			}
			p := n.run()
			rt.mu.Lock()
			core = n.core // Suspend may have exchanged the core
			if p != nil && rt.firstPanic == nil {
				rt.firstPanic = p
			}
			if n.events.Add(-1) == 0 {
				n = rt.finish(n, rt.imsucc)
			} else {
				n = nil // the last bound event's CompleteEvent finishes it
			}
		}
		rt.cores = append(rt.cores, core)
	}
}

// run invokes the task body, converting a panic into a value the worker
// records, so the graph still drains and Wait can rethrow deterministically.
func (n *Task) run() (p any) {
	defer func() { p = recover() }()
	n.body(n)
	return nil
}

// finish marks n done and releases its dependency edges: successors whose
// last predecessor was n join the ready queue, except that with keep set
// the first of them is returned for the caller to run next on its core.
// n must not be used afterwards. Caller holds rt.mu.
func (rt *Runtime) finish(n *Task, keep bool) (next *Task) {
	n.finished = true
	if rt.obs != nil {
		rt.obs.TaskFinished(n.id)
	}
	for _, s := range n.succs {
		if s.pending--; s.pending > 0 {
			continue
		}
		switch {
		case s.waiter:
			rt.cond.Broadcast()
		case keep && next == nil:
			next = s
		default:
			rt.push(s)
		}
	}
	// Drop the edges, not a grown list: a record keeps no later task reachable.
	clear(n.succs)
	n.succs, n.inline = n.succs[:0], [len(n.inline)]*Task{}
	if rt.live--; rt.live == 0 {
		rt.cond.Broadcast()
	}
	if n.refs == 0 {
		n.next, rt.free = rt.free, n
	}
	return next
}

// ID returns the task's runtime-unique id (positive, in spawn order), the
// identity the sanitizer's access notes attach to.
func (t *Task) ID() uint64 { return t.id }

// Worker returns the virtual core currently executing the task.
func (t *Task) Worker() int { return t.core }

// AddEvents binds k additional external events to the task, which will not
// release its dependencies until CompleteEvent has been called once per
// bound event (and the body has returned). It must be called from the task
// body. This is the OmpSs-2 external-events API that TAMPI builds Iwait on.
func (t *Task) AddEvents(k int) {
	if k <= 0 {
		panic("task: AddEvents requires a positive count")
	}
	t.events.Add(int32(k))
}

// CompleteEvent consumes one bound event, from any goroutine (typically an
// MPI completion). The final one releases the task's dependencies, putting
// its ready successors on the queue; the handle is dead from then on.
func (t *Task) CompleteEvent() {
	if t.events.Add(-1) == 0 {
		rt := t.rt
		rt.mu.Lock()
		rt.finish(t, false)
		rt.mu.Unlock()
	}
}

// Suspend parks the task until ch is closed (or receives), giving up its
// virtual core so other tasks can run — the mechanism behind blocking
// TAMPI operations. On resume it takes a free core or queues for one
// behind the ready tasks. If ch is already ready, the task keeps its core.
func (t *Task) Suspend(ch <-chan struct{}) {
	select {
	case <-ch:
		return
	default:
	}
	rt := t.rt
	rt.mu.Lock()
	rt.cores = append(rt.cores, t.core)
	rt.wake()
	// Until it holds a core again this goroutine can carry none, not even
	// while it queues for one on resume. Workers others must be able to, so
	// the first suspensions each add a spare worker.
	if rt.able--; rt.able < cap(rt.cores) {
		rt.able++
		rt.wg.Add(1)
		go rt.worker()
	}
	rt.mu.Unlock()
	<-ch
	rt.mu.Lock()
	if k := len(rt.cores) - 1; k >= 0 {
		t.core, rt.cores = rt.cores[k], rt.cores[:k]
	} else {
		t.suspended = true
		rt.push(t)
		for t.suspended {
			rt.cond.Wait()
		}
	}
	rt.able++
	rt.mu.Unlock()
}
