package task_test

import (
	"sync/atomic"
	"testing"
	"time"

	"miniamr/internal/sanitize"
	"miniamr/internal/task"
)

// These tests pin the runtime's edge behavior around Shutdown and panic
// propagation — the paths a driver hits when a run is torn down or a task
// body fails — including with a sanitizer observer attached, since the
// observer hooks run under the runtime lock on exactly these paths.

func TestShutdownIdempotent(t *testing.T) {
	rt := task.MustNewRuntime(task.Options{Workers: 2})
	var ran atomic.Int32
	for i := 0; i < 4; i++ {
		rt.Spawn("inc", func(*task.Task) { ran.Add(1) })
	}
	rt.Shutdown()
	rt.Shutdown() // must be a no-op, not a deadlock or panic
	if got := ran.Load(); got != 4 {
		t.Fatalf("ran %d tasks, want 4", got)
	}
}

func TestSpawnAfterShutdownPanics(t *testing.T) {
	rt := task.MustNewRuntime(task.Options{Workers: 1})
	rt.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("Spawn after Shutdown did not panic")
		}
	}()
	rt.Spawn("late", func(*task.Task) {})
}

func TestWaitAfterShutdown(t *testing.T) {
	rt := task.MustNewRuntime(task.Options{Workers: 2})
	rt.Spawn("writer", func(*task.Task) {}, task.Out("k")...)
	rt.Shutdown()

	// All wait forms must return immediately on a drained, closed
	// runtime — for keys the graph has seen and for keys it never has.
	done := make(chan struct{})
	go func() {
		rt.Wait()
		rt.WaitAccess(task.InOut("k")...)
		rt.WaitAccess(task.In("k", "never-seen")...)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("wait forms blocked on a shut-down runtime")
	}
}

func TestPanicPropagatesThroughWait(t *testing.T) {
	san := sanitize.New(sanitize.Options{})
	rt := task.MustNewRuntime(task.Options{Workers: 2, Observer: san.Observer(0)})
	rt.Spawn("boom", func(*task.Task) { panic("boom-value") }, task.Out("k")...)
	rt.Spawn("after", func(t *task.Task) {}, task.In("k")...)

	caught := func() (p any) {
		defer func() { p = recover() }()
		rt.Wait()
		return nil
	}()
	if caught != "boom-value" {
		t.Fatalf("Wait rethrew %v, want boom-value", caught)
	}
	// The graph still drained: the panicking task released its deps and
	// the successor ran, so the sanitizer saw a consistent lifecycle.
	for _, r := range san.Finish() {
		t.Errorf("unexpected sanitizer finding after panic: %s", r)
	}
}

func TestPanicPropagatesThroughWaitAccess(t *testing.T) {
	san := sanitize.New(sanitize.Options{})
	rt := task.MustNewRuntime(task.Options{Workers: 1, Observer: san.Observer(0)})
	rt.Spawn("boom", func(*task.Task) { panic("boom-access") }, task.Out("k")...)

	caught := func() (p any) {
		defer func() { p = recover() }()
		rt.WaitAccess(task.In("k")...)
		return nil
	}()
	if caught != "boom-access" {
		t.Fatalf("WaitAccess rethrew %v, want boom-access", caught)
	}
	// Wait must keep rethrowing the same first panic value.
	caught = func() (p any) {
		defer func() { p = recover() }()
		rt.Wait()
		return nil
	}()
	if caught != "boom-access" {
		t.Fatalf("Wait after WaitAccess rethrew %v, want boom-access", caught)
	}
	san.Finish()
}
