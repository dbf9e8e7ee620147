package task

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// These tests pin the execution core: fixed workers, one FIFO ready queue,
// the immediate-successor slot, core hand-off around Suspend, and worker
// exit at Shutdown.

// gated spawns a task that holds the runtime's only core until release is
// closed, so that everything spawned meanwhile queues up behind it.
func gated(rt *Runtime, release <-chan struct{}, accs ...Access) {
	started := make(chan struct{})
	rt.Spawn("gate", func(*Task) {
		close(started)
		<-release
	}, accs...)
	<-started
}

// eventually fails the test unless cond holds within 10 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
		time.Sleep(time.Millisecond)
	}
}

// parksAt fails the test unless SpawnCount stops at want: a spawner parked
// inside its Spawn with want tasks spawned. It returns once the count has
// stayed there for a while.
func parksAt(t *testing.T, rt *Runtime, want int) {
	t.Helper()
	eventually(t, "the spawner never reached the spawn that parks", func() bool { return rt.SpawnCount() >= want })
	time.Sleep(20 * time.Millisecond)
	if got := rt.SpawnCount(); got != want {
		t.Fatalf("spawner went on to %d spawns, want it parked at %d", got, want)
	}
}

// The ready tasks queued behind a gate run in spawn order. The spawner parks
// on the spawn that leaves backlog+1 of them queued behind the gate's core,
// and the gate opens only then: the order also holds across the park and the
// resume.
func TestReadyTasksStartInFIFOOrder(t *testing.T) {
	rt := MustNewRuntime(Options{Workers: 1}) // Shutdown is not deferred: it would hang on failure
	release := make(chan struct{})
	gated(rt, release)
	var order []int // one worker: bodies never overlap
	const n = 50
	spawned := make(chan struct{})
	go func() {
		for i := 0; i < n; i++ {
			rt.Spawn("t", func(*Task) { order = append(order, i) })
		}
		close(spawned)
	}()
	parksAt(t, rt, 1+backlog+1)
	close(release)
	<-spawned
	rt.Wait()
	for i, v := range order {
		if v != i {
			t.Fatalf("ready tasks ran out of spawn order: %v", order)
		}
	}
	if len(order) != n {
		t.Fatalf("ran %d tasks, want %d", len(order), n)
	}
	rt.Shutdown()
}

// queueLog is an Observer that records the ready-queue length each Spawn
// found on entry, and counts finished tasks.
type queueLog struct {
	rt       *Runtime
	before   []int // indexed by task id - 1
	finished atomic.Int32
}

func (l *queueLog) TaskSpawned(uint64, string, []Access) { l.before = append(l.before, l.rt.queued) }
func (l *queueLog) TaskDependence(uint64, uint64)        {}
func (l *queueLog) TaskFinished(uint64)                  { l.finished.Add(1) }
func (l *queueLog) Quiesced()                            {}
func (l *queueLog) RegionsReset()                        {}

// The throttle in numbers. With every core held, the spawner parks on the
// spawn that leaves backlog*W+1 tasks queued. The cores are then let through
// one task at a time: a finish and the dequeue it is followed by share one
// hold of the lock, so the queue length is known after each. The spawner
// must sleep until the dequeue that leaves backlog*W/2 queued, and no Spawn
// may ever start on a queue longer than backlog*W.
func TestSpawnParksAtBacklogAndResumesAtHalf(t *testing.T) {
	const workers, n = 2, 40
	log := &queueLog{}
	rt := MustNewRuntime(Options{Workers: workers, Observer: log}) // Shutdown is not deferred: it would hang on failure
	log.rt = rt
	release := make(chan struct{})
	var held sync.WaitGroup
	held.Add(workers)
	for range workers {
		rt.Spawn("gate", func(*Task) { held.Done(); <-release })
	}
	held.Wait()
	step := make(chan struct{}) // each send lets one running task finish
	spawned := make(chan struct{})
	go func() {
		for range n {
			rt.Spawn("t", func(*Task) { <-step })
		}
		close(spawned)
	}()
	high, low := backlog*workers, backlog*workers/2
	parked := workers + high + 1
	parksAt(t, rt, parked)
	close(release) // the gates finish; each core dequeues a task that waits for a step
	finishes := workers
	for queued := high + 1 - workers; queued > low; queued-- {
		eventually(t, "a task let through did not finish", func() bool { return int(log.finished.Load()) >= finishes })
		if got := rt.SpawnCount(); got != parked {
			t.Fatalf("spawner resumed with more than %d tasks queued (%d spawns)", queued, got)
		}
		step <- struct{}{}
		finishes++
	}
	// That step's finish brings the queue to the low-water mark.
	eventually(t, "the spawner stayed parked at the low-water mark", func() bool { return rt.SpawnCount() > parked })
	close(step)
	<-spawned
	rt.Wait()
	if got := log.before[parked-1]; got != high {
		t.Errorf("the spawn that parked found %d tasks queued, want %d", got, high)
	}
	if got := log.before[parked]; got != low {
		t.Errorf("the spawner resumed with %d tasks queued, want %d", got, low)
	}
	for id, q := range log.before {
		if q > high {
			t.Errorf("spawn %d started on %d queued tasks, more than %d", id+1, q, high)
		}
	}
	rt.Shutdown()
}

// A variant of TestAllWorkersSuspendedStillDrains in which the resumes fill
// the queue: more suspended tasks than backlog per core resume while every
// core is held, so their resume records alone exceed the spawner's cap, and
// a spawner then spawns more than that many tasks. Its first spawn parks;
// the dequeues that must wake it are all of resume records, which wait ahead
// of its task.
func TestParkedSpawnerWokenByResumes(t *testing.T) {
	const workers, suspenders, extra = 2, backlog*2 + 4, backlog*2 + 12
	rt := MustNewRuntime(Options{Workers: workers}) // Shutdown is not deferred: it would hang on failure
	inLock := func(f func() bool) func() bool {
		return func() bool {
			rt.mu.Lock()
			defer rt.mu.Unlock()
			return f()
		}
	}
	wake := make(chan struct{})
	var resumed atomic.Int32
	for range suspenders {
		rt.Spawn("suspender", func(tk *Task) {
			tk.Suspend(wake)
			resumed.Add(1)
		})
	}
	eventually(t, "the suspenders did not all give their cores back", inLock(func() bool {
		return rt.live == suspenders && rt.queued == 0 && len(rt.cores) == workers
	}))
	release := make(chan struct{})
	for range workers {
		gated(rt, release)
	}
	close(wake)
	eventually(t, "the resumed suspenders did not all queue for a core", inLock(func() bool { return rt.queued == suspenders }))
	var ran atomic.Int32
	done := make(chan struct{})
	go func() {
		for range extra {
			rt.Spawn("work", func(*Task) { ran.Add(1) })
		}
		rt.Wait()
		close(done)
	}()
	parksAt(t, rt, suspenders+workers+1)
	close(release)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("spawner parked behind resume records was never woken")
	}
	if resumed.Load() != suspenders || ran.Load() != extra {
		t.Fatalf("%d of %d suspenders resumed, %d of %d tasks ran", resumed.Load(), suspenders, ran.Load(), extra)
	}
	rt.Shutdown()
}

// With the policy on, a finishing task's successor runs next on the same
// core, ahead of older ready work; with it off the successor queues behind
// that work like any other ready task.
func TestImmediateSuccessorSlot(t *testing.T) {
	for _, tc := range []struct {
		disable bool
		want    []string
	}{
		{false, []string{"succ", "older"}},
		{true, []string{"older", "succ"}},
	} {
		rt := MustNewRuntime(Options{Workers: 1, DisableImmediateSuccessor: tc.disable})
		release := make(chan struct{})
		gated(rt, release, Out("k")...)
		var order []string
		rt.Spawn("older", func(*Task) { order = append(order, "older") })
		rt.Spawn("succ", func(*Task) { order = append(order, "succ") }, In("k")...)
		close(release)
		rt.Shutdown()
		if !slices.Equal(order, tc.want) {
			t.Errorf("DisableImmediateSuccessor=%v: ran %v, want %v", tc.disable, order, tc.want)
		}
	}
}

// Every worker's task suspends at once while more ready tasks than cores
// are queued: the lent cores must run that work (it is what releases the
// suspended tasks), every suspended task must get a core back, and no two
// running bodies may ever share a core.
func TestAllWorkersSuspendedStillDrains(t *testing.T) {
	const workers, extra = 3, 12
	rt := MustNewRuntime(Options{Workers: workers})
	defer rt.Shutdown()
	var busy [workers]atomic.Int32
	enter := func(tk *Task) int {
		c := tk.Worker()
		if c < 0 || c >= workers {
			t.Errorf("core %d out of range", c)
		} else if busy[c].Add(1) != 1 {
			t.Errorf("core %d runs two bodies at once", c)
		}
		return c
	}
	var gates [workers]chan struct{}
	var suspended sync.WaitGroup
	suspended.Add(workers)
	for i := range gates {
		gates[i] = make(chan struct{})
		rt.Spawn("suspender", func(tk *Task) {
			busy[enter(tk)].Add(-1) // the core is lent out while suspended
			suspended.Done()
			tk.Suspend(gates[i])
			busy[enter(tk)].Add(-1)
		})
	}
	suspended.Wait() // all cores are now held by tasks about to suspend
	var ran atomic.Int32
	for i := 0; i < extra; i++ {
		rt.Spawn("work", func(tk *Task) {
			c := enter(tk)
			if int(ran.Add(1)) == extra {
				for _, g := range gates {
					close(g)
				}
			}
			busy[c].Add(-1)
		})
	}
	done := make(chan struct{})
	go func() { rt.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("runtime did not drain with every worker suspended")
	}
	// The cores all came back: a full-width batch runs in parallel again.
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		rt.Spawn("after", func(*Task) { wg.Done(); wg.Wait() })
	}
	rt.Wait()
}

// A resumed task queues for a core because the only one is busy; the task
// holding that core then suspends on something only the resumed task will
// release. The freed core has to reach the queued task although neither
// goroutine involved can carry it: one waits for the core, one is blocked.
func TestCoreReachesTaskResumedWhileAnotherSuspends(t *testing.T) {
	rt := MustNewRuntime(Options{Workers: 1}) // Shutdown is not deferred: it would hang on failure
	chA, chB := make(chan struct{}), make(chan struct{})
	var ranBehind atomic.Bool
	rt.Spawn("A", func(tk *Task) {
		tk.Suspend(chA)
		close(chB)
	})
	rt.Spawn("B", func(tk *Task) {
		close(chA)
		time.Sleep(20 * time.Millisecond) // A resumes and queues for the core B holds
		rt.Spawn("behind", func(*Task) { ranBehind.Store(true) })
		tk.Suspend(chB)
	})
	done := make(chan struct{})
	go func() { rt.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("core freed by a suspending task never reached the task queued to resume")
	}
	if !ranBehind.Load() {
		t.Fatal("ready task queued behind the resuming one never ran")
	}
	rt.Shutdown()
}

// Many tasks that each release an earlier suspended task and then suspend
// themselves on a later one: resumes and suspensions interleave on every
// core, far more suspended tasks than cores. Nothing may be left without
// a core or without a goroutine to carry it.
func TestSuspendChainsDrain(t *testing.T) {
	for workers := 1; workers <= 3; workers++ {
		rt := MustNewRuntime(Options{Workers: workers}) // Shutdown is not deferred: it would hang on failure
		const n = 300
		waker := func(i int) int { return i + 1 + i%3 } // the task that releases task i
		gates := make([]chan struct{}, n)
		for i := range gates {
			gates[i] = make(chan struct{})
		}
		for i := 0; i < n; i++ {
			rt.Spawn("link", func(tk *Task) {
				for j := max(i-3, 0); j < i; j++ {
					if waker(j) == i {
						close(gates[j])
					}
				}
				if waker(i) < n {
					tk.Suspend(gates[i])
				}
			})
		}
		done := make(chan struct{})
		go func() { rt.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("Workers=%d: chains of suspending tasks did not drain", workers)
		}
		rt.Shutdown()
	}
}

// An external event completed by a foreign goroutine while every worker is
// busy: the released successor must wait in the queue and run as soon as a
// core frees up.
func TestForeignCompleteEventWithNoIdleWorker(t *testing.T) {
	rt := MustNewRuntime(Options{Workers: 1})
	defer rt.Shutdown()
	handle := make(chan *Task, 1)
	rt.Spawn("bind", func(tk *Task) {
		tk.AddEvents(1)
		handle <- tk
	}, Out("k")...)
	var succRan atomic.Bool
	rt.Spawn("succ", func(*Task) { succRan.Store(true) }, In("k")...)
	tk := <-handle
	release := make(chan struct{})
	gated(rt, release) // the only core is busy from here on
	tk.CompleteEvent() // from the test goroutine: readies succ, nobody to wake
	if succRan.Load() {
		t.Fatal("successor ran without a core")
	}
	close(release)
	rt.Wait()
	if !succRan.Load() {
		t.Fatal("successor released by a foreign CompleteEvent never ran")
	}
}

// goroutinesReturnTo fails the test unless the goroutine count falls back to
// before. Shutdown waits for every worker's exit to begin; the last of them
// may need a moment to be unlinked from the scheduler's count.
func goroutinesReturnTo(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before NewRuntime, %d after Shutdown", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestShutdownStopsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	rt := MustNewRuntime(Options{Workers: 4})
	gate := make(chan struct{})
	for i := 0; i < 8; i++ { // suspensions add spare workers; they must exit too
		rt.Spawn("s", func(tk *Task) { tk.Suspend(gate) })
	}
	close(gate)
	rt.Shutdown()
	goroutinesReturnTo(t, before)
}

// The usual `defer rt.Shutdown()` after a task panicked: Shutdown rethrows
// the panic like Wait, but only once the workers are gone.
func TestShutdownAfterTaskPanicStopsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	rt := MustNewRuntime(Options{Workers: 3})
	rt.Spawn("boom", func(*Task) { panic("boom") })
	caught := func() (p any) {
		defer func() { p = recover() }()
		rt.Shutdown()
		return nil
	}()
	if caught != "boom" {
		t.Fatalf("Shutdown rethrew %v, want boom", caught)
	}
	goroutinesReturnTo(t, before)
}

// In the steady state a spawn costs no allocation inside the runtime: task
// records, their successor lists and the per-key reader lists are recycled.
func TestSpawnRecyclesTaskRecords(t *testing.T) {
	rt := MustNewRuntime(Options{Workers: 2})
	defer rt.Shutdown()
	body := func(*Task) {}
	chain, w, r := InOut("chain"), Out("fan"), In("fan")
	// One batch: 300 spawns, then a taskwait that bounds the backlog (and
	// with it the size the record pool has to reach).
	batch := func() {
		for i := 0; i < 100; i++ {
			rt.Spawn("c", body, chain...)
			if i%4 == 0 { // 3 readers + the next writer: the inline successor list holds them
				rt.Spawn("w", body, w...)
			} else {
				rt.Spawn("r", body, r...)
			}
			rt.Spawn("i", body)
		}
		rt.WaitAccess(In("chain", "fan")...)
	}
	for i := 0; i < 20; i++ { // warm up: size the pool and the reader lists
		batch()
	}
	// Each taskwait allocates its pseudo-task and access list; nothing else
	// should.
	if per := mallocsPer(100, batch); per > 5 {
		t.Errorf("%.1f allocations per batch of 300 spawns in the steady state, want only the taskwait's", per)
	}
}

// mallocsPer runs f n times and returns the heap objects allocated per run.
func mallocsPer(n int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// Wait recycles the records the regions still name when it resets their
// state: a driver that waits every stage (refinement every timestep) spawns
// the next stage into the same records. The regions themselves, front-door
// keys included, outlive the Wait, so a spawn/wait cycle allocates nothing.
func TestWaitRecyclesNamedTaskRecords(t *testing.T) {
	rt := MustNewRuntime(Options{Workers: 2})
	defer rt.Shutdown()
	body := func(*Task) {}
	const keys = 100 // small ints box without allocating
	var accs [keys][]Access
	for k := range accs {
		accs[k] = Out(k)
	}
	cycle := func() {
		for k := range accs { // every record is its key's last writer at Wait
			rt.Spawn("w", body, accs[k]...)
		}
		rt.Wait()
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	if per := mallocsPer(50, cycle); per > 1 {
		t.Errorf("%.1f allocations per cycle of %d spawns on %d keys, want none", per, keys, keys)
	}

	// Nothing is left to allocate when the tasks name no key.
	free := func() {
		for i := 0; i < keys; i++ {
			rt.Spawn("i", body)
		}
		rt.Wait()
	}
	free()
	if per := mallocsPer(50, free); per > 1 {
		t.Errorf("%.1f allocations per cycle of independent spawns, want none", per)
	}
}

// A record keeps the successor list it grew past the inline slots when it is
// recycled: with one fill task per block reading six neighbours, a stencil
// releases more than four successors at every stage.
func TestRecycledRecordsKeepGrownSuccessorLists(t *testing.T) {
	rt := MustNewRuntime(Options{Workers: 1})
	defer rt.Shutdown()
	body := func(*Task) {}
	w, r := Out("fan"), In("fan")
	batch := func() {
		release := make(chan struct{})
		gated(rt, release) // the writers collect their successors before they run
		for i := 0; i < 8; i++ {
			rt.Spawn("w", body, w...)
			for j := 0; j < 11; j++ { // with the next writer: 12 successors
				rt.Spawn("r", body, r...)
			}
		}
		close(release)
		rt.WaitAccess(In("fan")...)
	}
	for i := 0; i < 60; i++ { // until every record of the pool has served as a writer
		batch()
	}
	// The gate's two channels and closure, the taskwait's pseudo-task and
	// access list; dropped successor lists would add two per writer.
	if per := mallocsPer(50, batch); per > 8 {
		t.Errorf("%.1f allocations per batch of 8 writers with 12 successors each, want only the gate's and the taskwait's", per)
	}
}
