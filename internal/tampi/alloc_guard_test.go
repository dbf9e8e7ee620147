package tampi

import (
	"testing"

	"miniamr/internal/allocguard"
	"miniamr/internal/mpi"
	"miniamr/internal/simnet"
	"miniamr/internal/task"
)

// TestAllocBudgets is the task-aware layer's allocation table: each row is
// one task spawned and drained whose body makes the calls named, one rank
// sending to itself on the free network model (the task row of package
// task costs nothing). Iwait recycles its binding. A bound request is never
// freed, so each Isend or Irecv leaves its pooled mpi.Request to the
// collector and boxes its buffer: two objects a call, which the rows record
// as they are. The blocking calls do not free theirs either, and make its
// done channel to suspend the task on: three objects a call.
func TestAllocBudgets(t *testing.T) {
	var c *mpi.Comm
	w := newWorld(1, simnet.None())
	if err := w.Run(func(rc *mpi.Comm) { c = rc }); err != nil {
		t.Fatal(err)
	}
	x := New(c)
	rt := task.MustNewRuntime(task.Options{Workers: 1})
	defer rt.Shutdown()
	buf := make([]float64, 128)
	must := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	done, err := c.Isend(buf, 0, 0) // completes at once: nothing is in flight
	must(err)
	_, err = c.Recv(buf, 0, 0)
	must(err)
	spawn := func(body func(*task.Task)) func() {
		return func() { rt.Spawn("t", body); rt.Wait() }
	}
	allocguard.Check(t, []allocguard.Row{
		{"Iwait (completed request)", 0, spawn(func(tk *task.Task) { x.Iwait(tk, done, nil) })},
		{"Isend+Irecv", 4, spawn(func(tk *task.Task) {
			must(x.Isend(tk, buf, 0, 0))
			must(x.Irecv(tk, buf, 0, 0))
		})},
		{"IsendOwned+Irecv", 3, spawn(func(tk *task.Task) {
			must(x.IsendOwned(tk, c.World().Arena().LeaseFloat64(len(buf)), 0, 0))
			must(x.Irecv(tk, buf, 0, 0))
		})},
		{"Send+Recv", 6, spawn(func(tk *task.Task) {
			must(x.Send(tk, buf, 0, 0))
			_, err := x.Recv(tk, buf, 0, 0)
			must(err)
		})},
		{"SendOwned+Recv", 5, spawn(func(tk *task.Task) {
			must(x.SendOwned(tk, c.World().Arena().LeaseFloat64(len(buf)), 0, 0))
			_, err := x.Recv(tk, buf, 0, 0)
			must(err)
		})},
	})
}
