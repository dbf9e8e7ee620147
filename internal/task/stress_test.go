package task

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentSpawnAndWaitKeys exercises WaitAccess racing with ongoing
// spawns from another goroutine, the exact pattern of the delayed-checksum
// optimisation (main thread waits on old keys while spawning new stages).
func TestConcurrentSpawnAndWaitKeys(t *testing.T) {
	rt := MustNewRuntime(Options{Workers: 4})
	defer rt.Shutdown()
	var phase1 int32
	for i := 0; i < 50; i++ {
		rt.Spawn("p1", func(*Task) { atomic.AddInt32(&phase1, 1) }, Out(i)...)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // concurrent spawner of unrelated work
		defer wg.Done()
		for i := 0; i < 50; i++ {
			rt.Spawn("p2", func(*Task) {}, Out(1000+i)...)
		}
	}()
	keys := make([]any, 50)
	for i := range keys {
		keys[i] = i
	}
	rt.WaitAccess(In(keys...)...)
	if got := atomic.LoadInt32(&phase1); got != 50 {
		t.Errorf("WaitAccess returned with %d/50 phase-1 tasks done", got)
	}
	wg.Wait()
	rt.Wait()
}

// TestSuspendCombinedWithEvents covers a task that both suspends and binds
// events, like a communication task mixing blocking and non-blocking TAMPI.
func TestSuspendCombinedWithEvents(t *testing.T) {
	rt := MustNewRuntime(Options{Workers: 2})
	defer rt.Shutdown()
	gate := make(chan struct{})
	var handle *Task
	ready := make(chan struct{})
	var successorRan int32
	rt.Spawn("mixed", func(tk *Task) {
		tk.AddEvents(1)
		handle = tk
		close(ready)
		tk.Suspend(gate) // pause mid-body
	}, Out("k")...)
	rt.Spawn("succ", func(*Task) { atomic.StoreInt32(&successorRan, 1) }, In("k")...)
	<-ready
	close(gate) // resume the body
	time.Sleep(2 * time.Millisecond)
	if atomic.LoadInt32(&successorRan) != 0 {
		t.Fatal("successor ran while an event was still bound")
	}
	handle.CompleteEvent()
	rt.Wait()
	if atomic.LoadInt32(&successorRan) != 1 {
		t.Fatal("successor never ran")
	}
}

// TestManyWaiters stresses multiple concurrent WaitAccess callers.
func TestManyWaiters(t *testing.T) {
	rt := MustNewRuntime(Options{Workers: 4})
	defer rt.Shutdown()
	var done int32
	for i := 0; i < 20; i++ {
		rt.Spawn("w", func(*Task) {
			time.Sleep(100 * time.Microsecond)
			atomic.AddInt32(&done, 1)
		}, Out(i)...)
	}
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rt.WaitAccess(In(i)...)
			if atomic.LoadInt32(&done) < 1 {
				t.Errorf("waiter %d returned before its writer", i)
			}
		}(i)
	}
	wg.Wait()
	rt.Wait()
}

// TestDepStateResetAfterDrain verifies that dependency state is recycled
// once the graph drains (the memory-bounding behaviour across refinement
// epochs): a long run over ever-fresh keys must not accumulate state that
// changes semantics.
func TestDepStateResetAfterDrain(t *testing.T) {
	rt := MustNewRuntime(Options{Workers: 2})
	defer rt.Shutdown()
	for epoch := 0; epoch < 20; epoch++ {
		var order []int
		var mu sync.Mutex
		for i := 0; i < 10; i++ {
			i := i
			rt.Spawn("t", func(*Task) {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			}, InOut("shared")...)
		}
		rt.Wait()
		for i, v := range order {
			if v != i {
				t.Fatalf("epoch %d: order %v", epoch, order)
			}
		}
	}
}

// TestRandomStress runs a randomized mixture of chains, fans and events
// under the race detector's eye.
func TestRandomStress(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rt := MustNewRuntime(Options{Workers: 3})
	defer rt.Shutdown()
	var bodies int64
	const n = 500
	for i := 0; i < n; i++ {
		var accs []Access
		for a := 0; a < rng.Intn(3); a++ {
			mode := ModeIn
			if rng.Intn(2) == 0 {
				mode = ModeInOut
			}
			accs = append(accs, Access{Key: rng.Intn(5), Mode: mode})
		}
		withEvent := rng.Intn(4) == 0
		eventDelay := time.Duration(rng.Int63n(100)) * time.Microsecond
		rt.Spawn("t", func(tk *Task) {
			atomic.AddInt64(&bodies, 1)
			if withEvent {
				tk.AddEvents(1)
				go func() {
					time.Sleep(eventDelay)
					tk.CompleteEvent()
				}()
			}
		}, accs...)
	}
	rt.Wait()
	if bodies != n {
		t.Errorf("ran %d bodies, want %d", bodies, n)
	}
}
