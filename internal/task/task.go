// Package task implements the data-flow tasking runtime the reproduction
// uses in place of OmpSs-2.
//
// Tasks are units of work annotated with dependencies — in (read), out
// (write) or inout accesses on regions, the analogue of OmpSs-2/OpenMP
// dependency clauses over memory regions. The runtime builds the task graph
// incrementally as tasks are spawned and runs a task once every predecessor
// has released its dependencies. Multidependencies are simply access lists
// naming several regions.
//
// A region is a Region handle reserved from the runtime: an index into one
// slab holding every region's last writer and readers (OmpSs-2 keeps this
// state in the registered region too), so an access by handle costs Spawn one
// index. Region state is reset, not reallocated, at Wait; handles stay valid
// until ResetRegions. In, Out and InOut over comparable keys are a front door
// onto the same engine, for callers that build access lists before a runtime
// exists: Spawn interns each key to a handle through one table that handle
// accesses never touch.
//
// Features mirrored from OmpSs-2 because the paper relies on them:
//
//   - External events: a task may bind outstanding events (in-flight MPI
//     requests, via the tampi package); it releases its dependencies only
//     once its body has returned and every bound event has completed,
//     which makes non-blocking TAMPI operations safe inside tasks.
//   - Blocking suspension: a task may suspend until a channel closes
//     (tampi's blocking operations), giving up its core to other tasks.
//   - Taskwait and taskwait-with-dependencies (Wait/WaitAccess), the
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
// Finished task records are recycled once no region names them any more.
//
// A worker with tasks queued never blocks, and Go preempts a goroutine only
// after 10 ms: with no idle CPU the rest of the process would wait that long
// (the timers and socket readers that deliver messages and so complete bound
// events, other ranks' runtimes). So a worker yields to the Go scheduler
// between two tasks every yieldEvery. Spawn instead parks its caller, as
// OmpSs-2's main task gives up its core, once a spawn leaves more than backlog
// ready tasks (or queued resumes) per core, until the workers have dequeued
// down to half of that: spawning further ahead feeds no core sooner and a
// runnable spawner takes CPU from them. So the caller must not occupy every
// core with bodies waiting on something it does only after more spawns; note
// that a task body calling Spawn parks holding its core.
package task

import (
	"fmt"
	"slices"
	"sync"
)

// Region is a handle on a dependency region of one Runtime. The handles of
// one reservation are consecutive, so callers address a table of regions by
// arithmetic on the first. A runtime with an Observer stamps its reset
// generation into the bits above regionBits, which is how the sanitizer tells
// a handle that outlived a ResetRegions from a current one.
type Region uint32

// regionBits is the width of a handle's slab index: 16 M regions.
const regionBits = 24

// Index returns the handle's position in the runtime's region slab.
func (r Region) Index() int { return int(r & (1<<regionBits - 1)) }

// Generation returns the reset generation stamped on the handle, modulo 256.
func (r Region) Generation() uint8 { return uint8(r >> regionBits) }

// Mode distinguishes the access kinds of a dependency clause.
type Mode uint8

const (
	// ModeIn declares a read access: the task runs after the last writer
	// of the region, concurrently with other readers.
	ModeIn Mode = iota
	// ModeOut declares a write access: the task runs after the last
	// writer and all readers since. (No renaming is attempted, so ModeOut
	// and ModeInOut order identically, as in OpenMP.)
	ModeOut
	// ModeInOut declares a read-write access.
	ModeInOut
)

// Access is one dependency clause entry: a mode over a region. The region is
// the handle in Region, unless Key is set: then the access comes through the
// front door and names the region Spawn interns the key to (any comparable
// value but nil; equal keys name one region), and Region is ignored.
type Access struct {
	Key    any
	Mode   Mode
	Region Region
}

// In builds read accesses over front-door keys.
func In(keys ...any) []Access { return accesses(ModeIn, keys) }

// Out builds write accesses over front-door keys.
func Out(keys ...any) []Access { return accesses(ModeOut, keys) }

// InOut builds read-write accesses over front-door keys.
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
	spawnCond  sync.Cond      // Spawn callers parked on a full ready queue
	wg         sync.WaitGroup // the worker goroutines
	regions    []depState     // the region slab, indexed by Region.Index; clean beyond its length
	keys       map[any]Region // the front door's intern table
	resolved   []Access       // the access list as the observer sees it, reused
	gen        Region         // reset generation in handle position; zero without an observer
	live       int            // spawned but not yet fully finished tasks
	spawned    int            // total tasks ever spawned; also the task id source
	closed     bool           // Shutdown called
	head       *Task          // FIFO ready queue, linked through Task.next
	tail       **Task         // its last link
	free       *Task          // recycled task records, linked through Task.next
	cores      []int          // virtual cores no task is running on; cap is Workers
	able       int            // worker goroutines not inside a suspended task: they can carry a core
	queued     int            // length of the ready queue
	imsucc     bool
	obs        Observer // nil unless a sanitizer is attached
	firstPanic any
}

// depState tracks the most recent writer and subsequent readers of a region.
// Every task it names holds one reference (Task.refs) per mention. The reader
// list keeps its storage across resets and ResetRegions.
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
		keys:   make(map[any]Region),
		cores:  make([]int, opts.Workers),
		able:   opts.Workers,
		imsucc: !opts.DisableImmediateSuccessor,
		obs:    opts.Observer,
	}
	rt.cond.L, rt.workCond.L, rt.spawnCond.L, rt.tail = &rt.mu, &rt.mu, &rt.mu, &rt.head
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

// Reserve registers n new regions and returns the handle of the first; the
// others follow it. It may be called while tasks run.
func (rt *Runtime) Reserve(n int) Region {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.reserve(n)
}

// reserve is Reserve with rt.mu held.
func (rt *Runtime) reserve(n int) Region {
	first := len(rt.regions)
	if first+n > 1<<regionBits {
		panic(fmt.Sprintf("task: cannot reserve %d regions on top of %d", n, first))
	}
	// Entries beyond the length were reset before they were dropped and still
	// own their reader lists.
	rt.regions = slices.Grow(rt.regions, n)[:first+n]
	return Region(first) | rt.gen
}

// ResetRegions drops every region, reserved or interned: the handles handed
// out so far must not be used again. It panics while tasks are in flight.
func (rt *Runtime) ResetRegions() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.live > 0 {
		panic(fmt.Sprintf("task: ResetRegions with %d tasks in flight", rt.live))
	}
	rt.resetStates()
	rt.regions = rt.regions[:0]
	clear(rt.keys)
	if rt.obs != nil {
		rt.gen += 1 << regionBits // wraps after 256 resets
		rt.obs.RegionsReset()
	}
}

// resetStates empties every region's state once the graph has drained: all
// of it names finished tasks, whose records it recycles. Caller holds rt.mu.
func (rt *Runtime) resetStates() {
	for i := range rt.regions {
		st := &rt.regions[i]
		rt.unref(st.lastWriter)
		for _, r := range st.readers {
			rt.unref(r)
		}
		st.lastWriter, st.readers = nil, st.readers[:0]
	}
}

// intern returns the handle of a front-door key, reserved at the key's first
// use since the last ResetRegions. Caller holds rt.mu.
func (rt *Runtime) intern(key any) Region {
	r, ok := rt.keys[key]
	if !ok {
		r = rt.reserve(1)
		rt.keys[key] = r
	}
	return r
}

// Intern returns the handle Spawn resolves a front-door key to, for code
// that is handed a key and must name its region (the sanitizer's notes).
func (t *Task) Intern(key any) Region {
	t.rt.mu.Lock()
	defer t.rt.mu.Unlock()
	return t.rt.intern(key)
}

// unreserved returns the panic message for the first handle access naming a
// region beyond the slab. Spawn and WaitAccess ask before they change any
// state, so the runtime stays usable after the panic. Caller holds rt.mu.
func (rt *Runtime) unreserved(accs []Access) string {
	for i := range accs {
		if a := &accs[i]; a.Key == nil && a.Region.Index() >= len(rt.regions) {
			return fmt.Sprintf("task: region %d not reserved (have %d)", a.Region.Index(), len(rt.regions))
		}
	}
	return ""
}

// Spawn submits a task with a label (for tracing), a body and dependency
// accesses (not retained). The task becomes ready once all conflicting
// predecessors have released their dependencies, and releases its own when
// the body has returned and all bound events have completed. Spawn may park
// the caller while the ready queue is full (see Execution above). The pin
// counts the two panics and the task record (recycled in the steady state):
// naming a region by handle must not add a site.
//
//amr:hot allocs=3
func (rt *Runtime) Spawn(label string, body func(t *Task), accs ...Access) {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		panic("task: Spawn after Shutdown")
	}
	if msg := rt.unreserved(accs); msg != "" {
		rt.mu.Unlock()
		panic(msg)
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
		// The observer sees every access by handle; a keyed one keeps its key,
		// which is its name.
		rt.resolved = append(rt.resolved[:0], accs...)
		for i := range rt.resolved {
			if a := &rt.resolved[i]; a.Key != nil {
				a.Region = rt.intern(a.Key)
			}
		}
		rt.obs.TaskSpawned(n.id, label, rt.resolved)
	}
	for i := range accs {
		a := &accs[i]
		r := a.Region
		if a.Key != nil {
			r = rt.intern(a.Key)
		}
		st := &rt.regions[r.Index()]
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
	if rt.queued > backlog*cap(rt.cores) {
		for rt.queued > rt.lowWater() { // the dequeue reaching it broadcasts
			rt.spawnCond.Wait()
		}
	}
	rt.mu.Unlock()
}

// lowWater is the queue length down to which a parked Spawn waits.
func (rt *Runtime) lowWater() int { return backlog * cap(rt.cores) / 2 }

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

// unref drops one region's mention of n and recycles its record once it has
// finished and nothing names it any more. Caller holds rt.mu.
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
	rt.resetStates()
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
// last writer of the region; an out/inout access also waits for readers.
// Unlike Wait, unrelated tasks keep running and new tasks may be spawned
// by other goroutines concurrently. It rethrows a recorded task panic.
func (rt *Runtime) WaitAccess(accs ...Access) {
	w := &Task{waiter: true}
	rt.mu.Lock()
	if msg := rt.unreserved(accs); msg != "" {
		rt.mu.Unlock()
		panic(msg)
	}
	if rt.obs != nil {
		rt.obs.TaskSpawned(0, "taskwait", accs)
	}
	for i := range accs {
		a := &accs[i]
		r := a.Region
		if a.Key != nil {
			var ok bool
			if r, ok = rt.keys[a.Key]; !ok {
				continue // a key no task has named: nothing to wait for
			}
		}
		st := &rt.regions[r.Index()]
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

// Shutdown drains all outstanding tasks, closes the runtime (further Spawns
// panic) and returns once every worker goroutine has exited, rethrowing a
// task's panic like Wait only then. It is safe to call more than once.
func (rt *Runtime) Shutdown() { rt.quiesce(true) }
