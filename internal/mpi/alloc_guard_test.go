package mpi

import (
	"testing"

	"miniamr/internal/allocguard"
	"miniamr/internal/cluster"
	"miniamr/internal/simnet"
)

// pingPongAllocBaseline is the pooled message path's steady-state budget
// for one round trip (two sends, two receives): the per-call slice
// headers that escape into the `any` buffer parameters, nothing from the
// transport itself. Neither the monitor hooks (while no monitor is
// attached) nor the chaos fault hooks (while EnableChaos was never
// called — one c.rel nil check in dispatch) may move it.
const pingPongAllocBaseline = 4

// TestPingPongAllocBaseline guards the unmonitored, chaos-off fast path
// of the message engine against allocation regressions.
func TestPingPongAllocBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation baseline needs steady-state iterations")
	}
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	res := testing.Benchmark(func(b *testing.B) { benchPingPong(b, 128) })
	if got := res.AllocsPerOp(); got > pingPongAllocBaseline {
		t.Errorf("ping-pong allocs/op = %d, want <= %d (unmonitored path must stay pooled)",
			got, pingPongAllocBaseline)
	}
}

// TestAllocBudgets is the point-to-point layer's allocation table, one
// rank sending to itself on the free network model, so every transfer
// completes inside the call. A buffer passed as `any` is boxed (a slice
// header, one object per call that takes one); payloads, messages, posted
// receives, waiters and requests come from pools. A request freed after its
// Wait is recycled; TestPingPongAllocBaseline guards the two-rank round trip.
func TestAllocBudgets(t *testing.T) {
	w := NewWorld(cluster.MustNew(1, 1, 1), simnet.None())
	c := w.comms[0]
	buf := make([]float64, 128)
	reqs := make([]*Request, 2)
	ws := NewWaitSet()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	allocguard.Check(t, []allocguard.Row{
		{"Send+Recv (unexpected message)", 2, func() {
			must(c.Send(buf, 0, 0))
			_, err := c.Recv(buf, 0, 0)
			must(err)
		}},
		{"Irecv+Send+Wait+Free (posted receive)", 2, func() {
			r, err := c.Irecv(buf, 0, 0)
			must(err)
			must(c.Send(buf, 0, 0))
			_, err = r.Wait()
			must(err)
			r.Free()
		}},
		{"Isend+Irecv+Waitall+Free", 2, func() {
			var err error
			reqs[0], err = c.Isend(buf, 0, 0)
			must(err)
			reqs[1], err = c.Irecv(buf, 0, 0)
			must(err)
			must(Waitall(reqs))
			reqs[0].Free()
			reqs[1].Free()
		}},
		{"IsendOwned+Recv+Free", 1, func() {
			r, err := c.IsendOwned(w.Arena().LeaseFloat64(len(buf)), 0, 0)
			must(err)
			_, err = c.Recv(buf, 0, 0)
			must(err)
			r.Free()
		}},
		{"SendOwned+Recv", 1, func() {
			must(c.SendOwned(w.Arena().LeaseFloat64(len(buf)), 0, 0))
			_, err := c.Recv(buf, 0, 0)
			must(err)
		}},
		{"WaitSet Add+Next+Reset (Isend+Irecv)", 2, func() {
			r, err := c.Isend(buf, 0, 0)
			must(err)
			ws.Add(r)
			r, err = c.Irecv(buf, 0, 0)
			must(err)
			ws.Add(r)
			for i := 0; i < 2; i++ {
				_, _, err := ws.Next()
				must(err)
			}
			ws.Reset()
		}},
	})
}
