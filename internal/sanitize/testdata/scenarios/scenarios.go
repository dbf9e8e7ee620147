// Package scenarios is the seeded-violation corpus for amrsan: each
// function is a small program that commits exactly one class of
// violation and returns the sanitizer's findings. The sanitizer tests
// assert that every scenario trips its expected report kind at the
// expected location — keeping the checkers honest the same way the
// amrlint corpus keeps the static analyses honest.
//
// The package lives under testdata so repo-wide go-tool walks and
// amrlint skip it, yet it is a real importable package so the scenarios
// compile against the live API.
package scenarios

import (
	"time"

	"miniamr/internal/cluster"
	"miniamr/internal/mpi"
	"miniamr/internal/sanitize"
	"miniamr/internal/simnet"
	"miniamr/internal/task"
)

// UndeclaredOverlap runs two tasks that both write one region; only the
// first declares the access. The gate forces both interleavings to
// overlap in time, so the race is reported no matter which runs first.
func UndeclaredOverlap() []sanitize.Report {
	san := sanitize.New(sanitize.Options{})
	ds := san.Observer(0)
	rt := task.MustNewRuntime(task.Options{Workers: 2, Observer: ds})
	defer rt.Shutdown()

	const key = "block{0}"
	gate := make(chan struct{})
	rt.Spawn("writer-declared", func(t *task.Task) {
		ds.NoteWrite(t, key)
		<-gate
	}, task.Out(key)...)
	rt.Spawn("writer-undeclared", func(t *task.Task) {
		ds.NoteWrite(t, key) // no declared access: races with writer-declared
		close(gate)
	})
	rt.Wait()
	return san.Finish()
}

// WriteViaIn runs a task that declares a region as in, then writes it.
func WriteViaIn() []sanitize.Report {
	san := sanitize.New(sanitize.Options{})
	ds := san.Observer(0)
	rt := task.MustNewRuntime(task.Options{Workers: 1, Observer: ds})
	defer rt.Shutdown()

	const key = "block{3}"
	rt.Spawn("sneaky-writer", func(t *task.Task) {
		ds.NoteWrite(t, key) // declared only as in below
	}, task.In(key)...)
	rt.Wait()
	return san.Finish()
}

// KeyAlias binds one buffer under two distinct dependency keys, so tasks
// addressing it through either key would never be ordered by the graph.
func KeyAlias() []sanitize.Report {
	san := sanitize.New(sanitize.Options{})
	ds := san.Observer(0)
	buf := make([]float64, 8)
	ds.BindRegion("section{0,east}", &buf[0])
	ds.BindRegion("section{1,west}", &buf[0]) // same storage, different key
	return san.Finish()
}

// StaleRegion keeps a region handle across the runtime's region reset and
// declares it afterwards: the handle now names whatever was reserved at its
// index since, here another task's region, so the two tasks are ordered by a
// dependency neither declared.
func StaleRegion() []sanitize.Report {
	san := sanitize.New(sanitize.Options{})
	rt := task.MustNewRuntime(task.Options{Workers: 1, Observer: san.Observer(0)})
	defer rt.Shutdown()

	old := rt.Reserve(1)
	rt.Spawn("first-epoch", func(*task.Task) {}, task.Access{Region: old, Mode: task.ModeOut})
	rt.Wait()
	rt.ResetRegions()
	fresh := rt.Reserve(1) // the same slab entry under the next generation
	rt.Spawn("current", func(*task.Task) {}, task.Access{Region: fresh, Mode: task.ModeOut})
	rt.Spawn("kept-handle", func(*task.Task) {}, task.Access{Region: old, Mode: task.ModeOut})
	rt.Wait()
	return san.Finish()
}

// UnreservedRegion declares a handle the runtime never handed out. Spawn
// must refuse it with a legible panic before it touches any state: the
// scenario returns the panic message, and the runtime still drains.
func UnreservedRegion() (msg string) {
	rt := task.MustNewRuntime(task.Options{Workers: 1})
	defer rt.Shutdown()
	defer func() { msg, _ = recover().(string) }()

	first := rt.Reserve(2)
	rt.Spawn("in-range", func(*task.Task) {}, task.Access{Region: first + 1, Mode: task.ModeOut})
	rt.Spawn("out-of-range", func(*task.Task) {}, task.Access{Region: first + 2, Mode: task.ModeOut})
	return ""
}

// TagMismatchDeadlock runs two ranks whose tags never match: rank 0
// sends tag 5 then receives tag 9, rank 1 receives tag 7. Nothing can
// progress; the watchdog must report the deadlock and abort both blocked
// receives so the job terminates. The end-of-run audits additionally
// flag the never-received message and both dangling posted receives.
func TagMismatchDeadlock() []sanitize.Report {
	san := sanitize.New(sanitize.Options{DeadlockGrace: 100 * time.Millisecond})
	w := mpi.NewWorld(cluster.MustNew(1, 2, 1), simnet.None())
	san.Attach(w)
	_ = w.Run(func(c *mpi.Comm) {
		switch c.Rank() {
		case 0:
			_ = c.Send([]int{42}, 1, 5)         // sits in rank 1's unexpected queue
			_, _ = c.Recv(make([]int, 1), 1, 9) // aborted by the watchdog
		case 1:
			_, _ = c.Recv(make([]int, 1), 0, 7) // tag mismatch: never matches tag 5
		}
	})
	return san.Finish()
}

// DivergentAllreduce has the two ranks enter the same Allreduce with
// different reduction operators. The exchange pattern is op-independent,
// so the run completes (with nonsense values); only the collective audit
// catches the divergence.
func DivergentAllreduce() []sanitize.Report {
	san := sanitize.New(sanitize.Options{})
	w := mpi.NewWorld(cluster.MustNew(1, 2, 1), simnet.None())
	san.Attach(w)
	_ = w.Run(func(c *mpi.Comm) {
		op := mpi.Sum
		if c.Rank() == 1 {
			op = mpi.Max
		}
		if _, err := c.AllreduceFloat64([]float64{1, 2}, op); err != nil {
			panic(err)
		}
	})
	return san.Finish()
}
