// Package task implements the data-flow tasking runtime the reproduction
// uses in place of OmpSs-2.
//
// Tasks are units of work annotated with dependencies — in (read), out
// (write) or inout accesses on opaque comparable keys, the analogue of
// OmpSs-2/OpenMP dependency clauses over memory regions. The runtime builds
// the task graph incrementally as tasks are spawned and runs a task once
// every predecessor has released its dependencies. Multidependencies are
// simply access lists with several keys.
//
// Features mirrored from OmpSs-2 because the paper relies on them:
//
//   - External events: a task may bind outstanding events (in-flight MPI
//     requests, via the tampi package); it releases its dependencies only
//     once its body has returned and every bound event has completed,
//     which makes non-blocking TAMPI operations safe inside tasks.
//   - Blocking suspension: a task may suspend until a channel closes
//     (tampi's blocking operations), giving up its core to other tasks.
//   - Taskwait and taskwait-with-dependencies (WaitAccess/WaitKeys), the
//     feature behind the paper's delayed checksum validation.
//   - An immediate-successor scheduling policy: when a task finishes and
//     unblocks successors, the same virtual core continues with one of
//     them, exploiting temporal locality (the paper credits it for the
//     data-flow variant's IPC); it can be turned off for ablation runs.
//
// Execution: Options.Workers long-lived worker goroutines pair the head of
// one FIFO ready queue with a free virtual core (no per-worker queues, no
// stealing), behind one mutex taken once per spawn and once per retired
// task. A suspending task gives its core back (a spare worker goroutine
// stands in for its own) and on resume takes a free core or queues for one.
// Finished task records are recycled once the dependency map drops them.
//
// A worker with tasks queued never blocks, and Go preempts a goroutine only
// after 10 ms: with no idle CPU the rest of the process would wait that long
// (the timers and socket readers that deliver messages and so complete bound
// events, other ranks' runtimes). So a worker yields to the Go scheduler
// between two tasks every yieldEvery, and Spawn yields while more than
// backlog ready tasks per core are queued: spawning further ahead feeds no
// core sooner and only grows the set of buffers in flight.
package task

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
)

// Mode distinguishes the access kinds of a dependency clause.
type Mode uint8

const (
	// ModeIn declares a read access: the task runs after the last writer
	// of the key, concurrently with other readers.
	ModeIn Mode = iota
	// ModeOut declares a write access: the task runs after the last
	// writer and all readers since. (No renaming is attempted, so ModeOut
	// and ModeInOut order identically, as in OpenMP.)
	ModeOut
	// ModeInOut declares a read-write access.
	ModeInOut
)

// Access is one dependency clause entry: a mode over a key. Keys may be any
// comparable value; two accesses conflict when their keys are equal.
type Access struct {
	Key  any
	Mode Mode
}

// In builds read accesses over keys.
func In(keys ...any) []Access { return accesses(ModeIn, keys) }

// Out builds write accesses over keys.
func Out(keys ...any) []Access { return accesses(ModeOut, keys) }

// InOut builds read-write accesses over keys.
func InOut(keys ...any) []Access { return accesses(ModeInOut, keys) }

func accesses(m Mode, keys []any) []Access {
	out := make([]Access, len(keys))
	for i, k := range keys {
		out[i] = Access{Key: k, Mode: m}
	}
	return out
}

// Merge concatenates access lists, a convenience for combining In(...) and
// Out(...) clauses on one task.
func Merge(lists ...[]Access) []Access { return slices.Concat(lists...) }

// Options configure a Runtime.
type Options struct {
	// Workers is the number of virtual cores. Must be positive.
	Workers int
	// DisableImmediateSuccessor turns off the locality policy: finished
	// tasks always push ready successors to the global queue instead of
	// continuing with one on the same core. For ablation measurements.
	DisableImmediateSuccessor bool
	// Observer, when set, receives task-graph lifecycle events; the runtime
	// sanitizer is one. nil costs nothing.
	Observer Observer
}

// Runtime schedules tasks over a fixed set of virtual cores.
type Runtime struct {
	mu         sync.Mutex
	cond       sync.Cond      // broadcast to Wait/WaitAccess callers and resuming tasks
	workCond   sync.Cond      // idle workers park here
	wg         sync.WaitGroup // the worker goroutines
	deps       map[any]*depState
	live       int    // spawned but not yet fully finished tasks
	spawned    int    // total tasks ever spawned; also the task id source
	closed     bool   // Shutdown called
	head       *Task  // FIFO ready queue, linked through Task.next
	tail       **Task // its last link
	free       *Task  // recycled task records, linked through Task.next
	cores      []int  // virtual cores no task is running on; cap is Workers
	able       int    // worker goroutines not inside a suspended task: they can carry a core
	queued     int    // length of the ready queue
	imsucc     bool
	obs        Observer // nil unless a sanitizer is attached
	firstPanic any
}

// depState tracks the most recent writer and subsequent readers of a key.
// Every task it names holds one reference (Task.refs) per mention.
type depState struct {
	lastWriter *Task
	readers    []*Task // readers since lastWriter
}

// NewRuntime creates a runtime with the given options and starts its
// workers; Shutdown stops them.
func NewRuntime(opts Options) (*Runtime, error) {
	if opts.Workers <= 0 {
		return nil, fmt.Errorf("task: Workers must be positive, got %d", opts.Workers)
	}
	rt := &Runtime{
		deps:   make(map[any]*depState),
		cores:  make([]int, opts.Workers),
		able:   opts.Workers,
		imsucc: !opts.DisableImmediateSuccessor,
		obs:    opts.Observer,
	}
	rt.cond.L, rt.workCond.L, rt.tail = &rt.mu, &rt.mu, &rt.head
	for i := range rt.cores {
		rt.cores[i] = i
	}
	rt.wg.Add(opts.Workers)
	for range rt.cores {
		go rt.worker()
	}
	return rt, nil
}

// MustNewRuntime is NewRuntime but panics on invalid options.
func MustNewRuntime(opts Options) *Runtime {
	rt, err := NewRuntime(opts)
	if err != nil {
		panic(err)
	}
	return rt
}

// SpawnCount returns the total number of tasks spawned so far.
func (rt *Runtime) SpawnCount() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.spawned
}

// Spawn submits a task with a label (for tracing), a body and dependency
// accesses (not retained). The task becomes ready once all conflicting
// predecessors have released their dependencies, and releases its own when
// the body has returned and all bound events have completed.
func (rt *Runtime) Spawn(label string, body func(t *Task), accs ...Access) {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		panic("task: Spawn after Shutdown")
	}
	n := rt.free
	if n == nil {
		n = new(Task)
		n.succs = n.inline[:0]
	} else {
		rt.free = n.next
	}
	rt.spawned++
	rt.live++
	*n = Task{rt: rt, body: body, id: uint64(rt.spawned), succs: n.succs}
	n.events.Store(1) // the body itself
	if rt.obs != nil {
		rt.obs.TaskSpawned(n.id, label, accs)
	}
	for _, a := range accs {
		st := rt.deps[a.Key]
		if st == nil {
			st = &depState{}
			rt.deps[a.Key] = st
		}
		rt.addEdge(st.lastWriter, n)
		n.refs++
		if a.Mode == ModeIn {
			st.readers = append(st.readers, n)
			continue
		}
		for _, r := range st.readers {
			rt.addEdge(r, n)
			rt.unref(r)
		}
		rt.unref(st.lastWriter)
		st.lastWriter, st.readers = n, st.readers[:0]
	}
	if n.pending == 0 {
		rt.push(n)
	}
	throttle := rt.queued > backlog*cap(rt.cores)
	rt.mu.Unlock()
	if throttle {
		runtime.Gosched()
	}
}

// addEdge makes succ depend on pred unless pred is absent, finished, or
// identical to succ (a task reading and writing the same key must not
// depend on itself). Caller holds rt.mu.
func (rt *Runtime) addEdge(pred, succ *Task) {
	if pred == nil || pred == succ || pred.finished {
		return
	}
	pred.succs = append(pred.succs, succ)
	succ.pending++
	if rt.obs != nil && succ.id != 0 {
		rt.obs.TaskDependence(pred.id, succ.id)
	}
}

// unref drops one dependency-map mention of n and recycles its record once
// it has finished and nothing names it any more. Caller holds rt.mu.
func (rt *Runtime) unref(n *Task) {
	if n == nil {
		return
	}
	if n.refs--; n.refs == 0 && n.finished {
		n.next, rt.free = rt.free, n
	}
}

// Wait blocks until every spawned task has finished (an OmpSs-2/OpenMP
// taskwait). If any task panicked, Wait re-panics with the first panic
// value after the graph drains.
func (rt *Runtime) Wait() { rt.quiesce(false) }

// quiesce is Wait, and with stop set the rest of Shutdown before the rethrow.
func (rt *Runtime) quiesce(stop bool) {
	rt.mu.Lock()
	for rt.live > 0 {
		rt.cond.Wait()
	}
	// All dependency state now names finished tasks: recycle their records and
	// drop it, bounding memory across refinement epochs that retire block keys.
	for _, st := range rt.deps {
		rt.unref(st.lastWriter)
		for _, r := range st.readers {
			rt.unref(r)
		}
	}
	clear(rt.deps)
	if rt.obs != nil {
		rt.obs.Quiesced()
	}
	if stop {
		rt.closed = true
		rt.workCond.Broadcast()
	}
	p := rt.firstPanic
	rt.mu.Unlock()
	if stop {
		rt.wg.Wait()
	}
	if p != nil {
		panic(p)
	}
}

// WaitAccess blocks until the given accesses could be satisfied — the
// OmpSs-2 "taskwait with dependencies". An in-access waits only for the
// last writer of the key; an out/inout access also waits for readers.
// Unlike Wait, unrelated tasks keep running and new tasks may be spawned
// by other goroutines concurrently. It rethrows a recorded task panic.
func (rt *Runtime) WaitAccess(accs ...Access) {
	w := &Task{waiter: true}
	rt.mu.Lock()
	for _, a := range accs {
		st := rt.deps[a.Key]
		if st == nil {
			continue
		}
		rt.addEdge(st.lastWriter, w)
		if a.Mode != ModeIn {
			for _, r := range st.readers {
				rt.addEdge(r, w)
			}
		}
	}
	for w.pending > 0 {
		rt.cond.Wait()
	}
	p := rt.firstPanic
	rt.mu.Unlock()
	if p != nil {
		panic(p)
	}
}

// WaitKeys blocks until the last writers of all keys have finished.
func (rt *Runtime) WaitKeys(keys ...any) { rt.WaitAccess(In(keys...)...) }

// Shutdown drains all outstanding tasks, closes the runtime (further Spawns
// panic) and returns once every worker goroutine has exited, rethrowing a
// task's panic like Wait only then. It is safe to call more than once.
func (rt *Runtime) Shutdown() { rt.quiesce(true) }
