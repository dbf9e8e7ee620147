package mpi

// Focused concurrency tests for the two synchronisation primitives the
// request path rests on: the lazily-created doneCh (racing Wait/Done
// against completion must never lose a wakeup or double-close) and the
// channel-backed chanMutex (acquire/release must stay balanced and
// mutually exclusive). These run under -race in `make race` and CI.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRequestDoneChConcurrentWaiters races many Wait and Done callers
// against a single completion: every waiter must observe the completed
// status and error, regardless of who created doneCh first.
func TestRequestDoneChConcurrentWaiters(t *testing.T) {
	const waiters = 16
	for round := 0; round < 50; round++ {
		r := newRequest()
		wantErr := errors.New("boom")
		var wg sync.WaitGroup
		var got atomic.Int32
		for i := 0; i < waiters; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if i%2 == 0 {
					st, err := r.Wait()
					if err != wantErr || st.Count != 7 {
						t.Errorf("Wait: st=%+v err=%v", st, err)
					}
				} else {
					<-r.Done()
					ok, st, err := r.Test()
					if !ok || err != wantErr || st.Count != 7 {
						t.Errorf("Done/Test: ok=%v st=%+v err=%v", ok, st, err)
					}
				}
				got.Add(1)
			}(i)
		}
		go r.complete(Status{Count: 7}, wantErr)
		wg.Wait()
		if got.Load() != waiters {
			t.Fatalf("round %d: %d/%d waiters returned", round, got.Load(), waiters)
		}
	}
}

// TestRequestDoneAfterComplete exercises the lazy-creation path where the
// request completes before any doneCh exists: Done must hand back an
// already-closed channel, and Wait must take the no-channel fast path.
func TestRequestDoneAfterComplete(t *testing.T) {
	r := newRequest()
	r.complete(Status{Source: 3}, nil)
	select {
	case <-r.Done():
	default:
		t.Fatal("Done() after completion is not closed")
	}
	st, err := r.Wait()
	if err != nil || st.Source != 3 {
		t.Fatalf("Wait after completion: st=%+v err=%v", st, err)
	}
}

// TestRequestOnCompleteVsCompletion races callback registration with
// completion: each callback must run exactly once whichever side wins.
func TestRequestOnCompleteVsCompletion(t *testing.T) {
	const cbs = 8
	for round := 0; round < 100; round++ {
		r := newRequest()
		var fired atomic.Int32
		var wg sync.WaitGroup
		for i := 0; i < cbs; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.OnComplete(func() { fired.Add(1) })
			}()
		}
		// complete runs the callbacks registered before it after publishing
		// completion, so Wait alone does not order them: wait for complete
		// itself to return.
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.complete(Status{}, nil)
		}()
		wg.Wait()
		if fired.Load() != cbs {
			t.Fatalf("round %d: %d/%d callbacks fired", round, fired.Load(), cbs)
		}
	}
}

// TestChanMutexMutualExclusion hammers a chanMutex from many goroutines
// mutating shared state; the race detector verifies the exclusion and the
// final count verifies no acquisition was lost or duplicated.
func TestChanMutexMutualExclusion(t *testing.T) {
	const (
		goroutines = 8
		iters      = 2000
	)
	mu := newChanMutex()
	shared := 0 // deliberately unsynchronised except for mu
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				mu.Lock()
				shared++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if shared != goroutines*iters {
		t.Fatalf("shared = %d, want %d", shared, goroutines*iters)
	}
	if len(mu) != 0 {
		t.Fatalf("chanMutex still held after balanced use: len=%d", len(mu))
	}
}

// TestChanMutexBalance verifies the acquire/release accounting directly:
// a held chanMutex has exactly one token in flight, a released one none,
// and a second acquisition parks until the first is released.
func TestChanMutexBalance(t *testing.T) {
	mu := newChanMutex()
	mu.Lock()
	if len(mu) != 1 {
		t.Fatalf("held chanMutex has len %d, want 1", len(mu))
	}
	acquired := make(chan struct{})
	go func() {
		mu.Lock()
		close(acquired)
		mu.Unlock()
	}()
	select {
	case <-acquired:
		t.Fatal("second Lock succeeded while the mutex was held")
	case <-time.After(10 * time.Millisecond):
	}
	mu.Unlock()
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("blocked Lock never acquired after Unlock")
	}
	if len(mu) != 0 {
		t.Fatalf("released chanMutex has len %d, want 0", len(mu))
	}
}

// doneLog records RequestDone notifications.
type doneLog struct {
	errs  []error
	after *atomic.Int32 // callbacks that had fired when the notification ran
	seen  []int32
}

func (d *doneLog) RequestDone(err error) {
	d.errs = append(d.errs, err)
	d.seen = append(d.seen, d.after.Load())
}

// TestRequestBind pins the closure-free completion binding: one
// notification per bound request whichever of Bind and completion comes
// first, delivered after the OnComplete callbacks, carrying the
// operation's error; a second binding on one request is a bug.
func TestRequestBind(t *testing.T) {
	boom := errors.New("boom")
	var fired atomic.Int32
	log := &doneLog{after: &fired}

	early := newRequest() // bound while in flight
	early.OnComplete(func() { fired.Add(1) })
	early.Bind(log)
	if len(log.errs) != 0 {
		t.Fatal("notified before completion")
	}
	early.complete(Status{}, boom)

	late := newRequest() // bound after completion: notified on the spot
	late.complete(Status{}, nil)
	late.Bind(log)

	if len(log.errs) != 2 || log.errs[0] != boom || log.errs[1] != nil {
		t.Fatalf("notifications %v, want [boom <nil>]", log.errs)
	}
	if log.seen[0] != 1 {
		t.Error("binding notified before the request's callbacks")
	}

	twice := newRequest()
	twice.Bind(log)
	defer func() {
		if recover() == nil {
			t.Error("second Bind on one request did not panic")
		}
	}()
	twice.Bind(log)
}
