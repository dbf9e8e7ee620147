package task

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestNewRuntimeValidation(t *testing.T) {
	if _, err := NewRuntime(Options{Workers: 0}); err == nil {
		t.Error("Workers=0 should fail")
	}
	if _, err := NewRuntime(Options{Workers: -2}); err == nil {
		t.Error("negative Workers should fail")
	}
	rt, err := NewRuntime(Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
}

func TestIndependentTasksAllRun(t *testing.T) {
	rt := MustNewRuntime(Options{Workers: 4})
	defer rt.Shutdown()
	var count int64
	for i := 0; i < 100; i++ {
		rt.Spawn("inc", func(*Task) { atomic.AddInt64(&count, 1) })
	}
	rt.Wait()
	if count != 100 {
		t.Errorf("ran %d tasks, want 100", count)
	}
	if rt.SpawnCount() != 100 {
		t.Errorf("SpawnCount = %d, want 100", rt.SpawnCount())
	}
}

func TestWriteAfterWriteOrder(t *testing.T) {
	rt := MustNewRuntime(Options{Workers: 4})
	defer rt.Shutdown()
	var order []int
	var mu sync.Mutex
	for i := 0; i < 20; i++ {
		i := i
		rt.Spawn("w", func(*Task) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}, Out("k")...)
	}
	rt.Wait()
	for i, v := range order {
		if v != i {
			t.Fatalf("WAW order violated: %v", order)
		}
	}
}

func TestReadersRunConcurrentlyBetweenWriters(t *testing.T) {
	rt := MustNewRuntime(Options{Workers: 4})
	defer rt.Shutdown()
	var phase int32 // 0 before write, 1 after write, 2 after second write
	var readersSaw []int32
	var mu sync.Mutex
	barrier := make(chan struct{})
	var arrived int32

	rt.Spawn("writer1", func(*Task) { atomic.StoreInt32(&phase, 1) }, Out("x")...)
	for i := 0; i < 3; i++ {
		rt.Spawn("reader", func(*Task) {
			// All three readers must be in flight at once: they rendezvous
			// before recording, proving reader concurrency.
			if atomic.AddInt32(&arrived, 1) == 3 {
				close(barrier)
			}
			<-barrier
			mu.Lock()
			readersSaw = append(readersSaw, atomic.LoadInt32(&phase))
			mu.Unlock()
		}, In("x")...)
	}
	rt.Spawn("writer2", func(*Task) { atomic.StoreInt32(&phase, 2) }, Out("x")...)
	rt.Wait()

	if len(readersSaw) != 3 {
		t.Fatalf("readers ran %d times, want 3", len(readersSaw))
	}
	for _, p := range readersSaw {
		if p != 1 {
			t.Errorf("reader saw phase %d, want 1 (between the writers)", p)
		}
	}
}

func TestMultidependencies(t *testing.T) {
	// One consumer with in-deps on many keys must wait for all producers.
	rt := MustNewRuntime(Options{Workers: 4})
	defer rt.Shutdown()
	const n = 8
	var produced int32
	keys := make([]any, n)
	for i := range keys {
		keys[i] = i
	}
	for i := 0; i < n; i++ {
		rt.Spawn("produce", func(*Task) {
			time.Sleep(time.Microsecond * 100)
			atomic.AddInt32(&produced, 1)
		}, Out(keys[i])...)
	}
	var sawAll bool
	rt.Spawn("consume", func(*Task) {
		sawAll = atomic.LoadInt32(&produced) == n
	}, In(keys...)...)
	rt.Wait()
	if !sawAll {
		t.Error("consumer ran before all multidep producers finished")
	}
}

func TestMergeAccessLists(t *testing.T) {
	accs := Merge(In("a", "b"), Out("c"), InOut("d"))
	if len(accs) != 4 {
		t.Fatalf("len = %d, want 4", len(accs))
	}
	want := []Mode{ModeIn, ModeIn, ModeOut, ModeInOut}
	for i, a := range accs {
		if a.Mode != want[i] {
			t.Errorf("accs[%d].Mode = %v, want %v", i, a.Mode, want[i])
		}
	}
}

func TestSelfDependencyIgnored(t *testing.T) {
	// inout(x) twice on the same task must not deadlock on itself.
	rt := MustNewRuntime(Options{Workers: 1})
	defer rt.Shutdown()
	ran := false
	rt.Spawn("t", func(*Task) { ran = true }, Merge(In("x"), Out("x"))...)
	rt.Wait()
	if !ran {
		t.Error("task with self-conflicting accesses never ran")
	}
}

func TestExternalEventsDelayRelease(t *testing.T) {
	rt := MustNewRuntime(Options{Workers: 2})
	defer rt.Shutdown()
	var taskA *Task
	bodyDone := make(chan struct{})
	var successorRan int32

	rt.Spawn("a", func(t *Task) {
		t.AddEvents(1)
		taskA = t
		close(bodyDone)
	}, Out("k")...)
	rt.Spawn("b", func(*Task) { atomic.AddInt32(&successorRan, 1) }, In("k")...)

	<-bodyDone
	time.Sleep(5 * time.Millisecond)
	if atomic.LoadInt32(&successorRan) != 0 {
		t.Fatal("successor ran while predecessor still had a bound event")
	}
	taskA.CompleteEvent()
	rt.Wait()
	if atomic.LoadInt32(&successorRan) != 1 {
		t.Fatal("successor never ran after event completion")
	}
}

func TestMultipleEvents(t *testing.T) {
	rt := MustNewRuntime(Options{Workers: 2})
	defer rt.Shutdown()
	var h *Task
	ready := make(chan struct{})
	var done int32
	rt.Spawn("a", func(t *Task) {
		t.AddEvents(3)
		h = t
		close(ready)
	}, Out("k")...)
	rt.Spawn("b", func(*Task) { atomic.StoreInt32(&done, 1) }, In("k")...)
	<-ready
	for i := 0; i < 3; i++ {
		if atomic.LoadInt32(&done) != 0 {
			t.Fatalf("successor ran with %d events outstanding", 3-i)
		}
		h.CompleteEvent()
	}
	rt.Wait()
	if done != 1 {
		t.Fatal("successor never ran")
	}
}

func TestSuspendReleasesCore(t *testing.T) {
	// With a single core, a suspended task must let another task run.
	rt := MustNewRuntime(Options{Workers: 1})
	defer rt.Shutdown()
	gate := make(chan struct{})
	var bRan int32
	rt.Spawn("a", func(t *Task) {
		t.Suspend(gate)
		if atomic.LoadInt32(&bRan) != 1 {
			panic("resumed before b ran")
		}
	})
	rt.Spawn("b", func(*Task) {
		atomic.StoreInt32(&bRan, 1)
		close(gate)
	})
	rt.Wait()
}

func TestSuspendFastPath(t *testing.T) {
	rt := MustNewRuntime(Options{Workers: 1})
	defer rt.Shutdown()
	closed := make(chan struct{})
	close(closed)
	rt.Spawn("a", func(t *Task) { t.Suspend(closed) })
	rt.Wait()
}

func TestWaitAccessInMode(t *testing.T) {
	rt := MustNewRuntime(Options{Workers: 4})
	defer rt.Shutdown()
	var wrote int32
	var unrelated int32
	release := make(chan struct{})
	rt.Spawn("writer", func(*Task) {
		time.Sleep(2 * time.Millisecond)
		atomic.StoreInt32(&wrote, 1)
	}, Out("sum")...)
	rt.Spawn("unrelated", func(*Task) {
		<-release
		atomic.StoreInt32(&unrelated, 1)
	}, Out("other")...)

	rt.WaitAccess(In("sum")...)
	if atomic.LoadInt32(&wrote) != 1 {
		t.Error("WaitAccess returned before the writer finished")
	}
	if atomic.LoadInt32(&unrelated) != 0 {
		t.Error("unrelated task should still be blocked — WaitAccess must not be a full barrier")
	}
	close(release)
	rt.Wait()
}

func TestWaitAccessOutModeWaitsForReaders(t *testing.T) {
	rt := MustNewRuntime(Options{Workers: 4})
	defer rt.Shutdown()
	var readers int32
	rt.Spawn("writer", func(*Task) {}, Out("k")...)
	for i := 0; i < 3; i++ {
		rt.Spawn("reader", func(*Task) {
			time.Sleep(time.Millisecond)
			atomic.AddInt32(&readers, 1)
		}, In("k")...)
	}
	rt.WaitAccess(Out("k")...)
	if got := atomic.LoadInt32(&readers); got != 3 {
		t.Errorf("WaitAccess(out) returned with %d/3 readers finished", got)
	}
	rt.Wait()
}

func TestWaitAccessUnknownKeyReturnsImmediately(t *testing.T) {
	rt := MustNewRuntime(Options{Workers: 1})
	defer rt.Shutdown()
	done := make(chan struct{})
	go func() {
		rt.WaitAccess(In("never-seen")...)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("WaitAccess on unknown key blocked")
	}
}

func TestImmediateSuccessorKeepsCore(t *testing.T) {
	rt := MustNewRuntime(Options{Workers: 4})
	defer rt.Shutdown()
	// A pure chain: with the immediate-successor policy every link must run
	// on the same virtual core as its predecessor. Gate the first link so
	// the whole chain is spawned before any link finishes.
	gate := make(chan struct{})
	const n = 30
	var workers []int // serialised by the chain itself
	for i := 0; i < n; i++ {
		rt.Spawn("link", func(tk *Task) {
			<-gate
			workers = append(workers, tk.Worker())
		}, InOut("chain")...)
	}
	close(gate)
	rt.Wait()
	if len(workers) != n {
		t.Fatalf("ran %d links, want %d", len(workers), n)
	}
	for _, w := range workers {
		if w != workers[0] {
			t.Fatalf("chain migrated cores: %v", workers)
		}
	}
}

func TestDisableImmediateSuccessorStillCorrect(t *testing.T) {
	rt := MustNewRuntime(Options{Workers: 3, DisableImmediateSuccessor: true})
	defer rt.Shutdown()
	var order []int
	var mu sync.Mutex
	for i := 0; i < 15; i++ {
		i := i
		rt.Spawn("t", func(*Task) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}, InOut("chain")...)
	}
	rt.Wait()
	for i, v := range order {
		if v != i {
			t.Fatalf("order violated without immediate successor: %v", order)
		}
	}
}

func TestPanicPropagatesAtWait(t *testing.T) {
	rt := MustNewRuntime(Options{Workers: 2})
	rt.Spawn("boom", func(*Task) { panic("kaboom") })
	defer func() {
		if p := recover(); p == nil {
			t.Error("Wait did not re-panic the task panic")
		}
	}()
	rt.Wait()
}

func TestPanickedTaskStillReleasesDeps(t *testing.T) {
	rt := MustNewRuntime(Options{Workers: 2})
	var ran int32
	rt.Spawn("boom", func(*Task) { panic("x") }, Out("k")...)
	rt.Spawn("after", func(*Task) { atomic.StoreInt32(&ran, 1) }, In("k")...)
	func() {
		defer func() { recover() }()
		rt.Wait()
	}()
	if atomic.LoadInt32(&ran) != 1 {
		t.Error("successor of panicked task never ran; graph would deadlock")
	}
}

func TestSpawnAfterShutdownPanics(t *testing.T) {
	rt := MustNewRuntime(Options{Workers: 1})
	rt.Shutdown()
	defer func() {
		if recover() == nil {
			t.Error("Spawn after Shutdown should panic")
		}
	}()
	rt.Spawn("late", func(*Task) {})
}

func TestNestedSpawn(t *testing.T) {
	rt := MustNewRuntime(Options{Workers: 2})
	defer rt.Shutdown()
	var inner int32
	rt.Spawn("outer", func(*Task) {
		for i := 0; i < 5; i++ {
			rt.Spawn("inner", func(*Task) { atomic.AddInt32(&inner, 1) })
		}
	})
	rt.Wait()
	if inner != 5 {
		t.Errorf("inner tasks ran %d times, want 5", inner)
	}
}

func TestTaskHandleAccessors(t *testing.T) {
	rt := MustNewRuntime(Options{Workers: 2})
	defer rt.Shutdown()
	rt.Spawn("labelled", func(tk *Task) {
		if w := tk.Worker(); w < 0 || w >= 2 {
			t.Errorf("Worker = %d out of range", w)
		}
	})
	rt.Wait()
}

func TestAddEventsValidation(t *testing.T) {
	rt := MustNewRuntime(Options{Workers: 1})
	rt.Spawn("t", func(tk *Task) {
		defer func() {
			if recover() == nil {
				t.Error("AddEvents(0) should panic")
			}
		}()
		tk.AddEvents(0)
	})
	func() {
		defer func() { recover() }() // the recorded panic rethrows at Wait
		rt.Wait()
	}()
}

// Property: for random task graphs, execution respects every pairwise
// constraint implied by the dependency rules (serialisability oracle).
func TestPropertyRandomDAGSerialisability(t *testing.T) {
	type access struct {
		key   int
		write bool
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nTasks := rng.Intn(30) + 5
		nKeys := rng.Intn(4) + 1
		workers := rng.Intn(4) + 1

		taskAccs := make([][]access, nTasks)
		for i := range taskAccs {
			n := rng.Intn(3) + 1
			for j := 0; j < n; j++ {
				taskAccs[i] = append(taskAccs[i], access{key: rng.Intn(nKeys), write: rng.Intn(2) == 0})
			}
		}

		starts := make([]int64, nTasks)
		ends := make([]int64, nTasks)
		var clock int64

		rt := MustNewRuntime(Options{Workers: workers})
		for i := 0; i < nTasks; i++ {
			i := i
			var accs []Access
			for _, a := range taskAccs[i] {
				m := ModeIn
				if a.write {
					m = ModeOut
				}
				accs = append(accs, Access{Key: a.key, Mode: m})
			}
			rt.Spawn("t", func(*Task) {
				atomic.StoreInt64(&starts[i], atomic.AddInt64(&clock, 1))
				ends[i] = atomic.AddInt64(&clock, 1)
			}, accs...)
		}
		rt.Wait()
		rt.Shutdown()

		conflict := func(a, b []access) bool {
			for _, x := range a {
				for _, y := range b {
					if x.key == y.key && (x.write || y.write) {
						return true
					}
				}
			}
			return false
		}
		for i := 0; i < nTasks; i++ {
			for j := i + 1; j < nTasks; j++ {
				if conflict(taskAccs[i], taskAccs[j]) {
					if ends[i] >= starts[j] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
