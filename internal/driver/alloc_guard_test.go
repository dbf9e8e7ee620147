package driver

import (
	"testing"

	"miniamr/internal/allocguard"
	"miniamr/internal/cluster"
	"miniamr/internal/mpi"
	"miniamr/internal/simnet"
	"miniamr/internal/task"
)

// TestAllocBudgets is the graph engine's allocation table, one rank
// messaging itself on the free network model. Task bodies are recycled job
// records and access lists reuse one buffer, so spawning costs nothing; a
// message task costs what its tampi calls do (the tampi table): the receive
// boxes its buffer and neither frees its request. The per-epoch plans
// reuse their storage. TestJobRecordsCarryTheirOwnArguments guards that
// the records are reused, not only that they are cheap.
func TestAllocBudgets(t *testing.T) {
	var c *mpi.Comm
	w := mpi.NewWorld(cluster.MustNew(1, 1, 1), simnet.None())
	if err := w.Run(func(rc *mpi.Comm) { c = rc }); err != nil {
		t.Fatal(err)
	}
	g, err := NewGraphEngine(GraphOptions{Comm: c, Workers: 2, ScratchLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	r := g.Reserve(2)
	jobs := NewJobs(func(*task.Task, *int) {})
	iter := func(i, w int) {}
	buf := make([]float64, 64)
	var plans Plans[int]
	plans.Init(w.Arena())
	allocguard.Check(t, []allocguard.Row{
		{"Spawn(Jobs.Body, Merge(In, Out))+Wait", 0, func() {
			g.Spawn("t", jobs.Body(1), g.Merge(g.In(r), g.Out(r+1))...)
			g.Wait()
		}},
		{"ParFor, 8 iterations", 0, func() { g.ParFor("p", 8, iter) }},
		{"Spawn+WaitKeys", 0, func() {
			g.Spawn("t", jobs.Body(1), g.InOut(r)...)
			g.WaitKeys(r)
		}},
		{"RecvBody+SendBody tasks+Wait", 3, func() {
			g.Spawn("recv", g.RecvBody(Message{Buf: buf}))
			g.Spawn("send", g.SendBody(Message{Lease: w.Arena().LeaseFloat64(len(buf))}))
			g.Wait()
		}},
		{"Plans AddSend+AddRecv+Reset", 0, func() {
			plans.AddSend(Plan[int]{Cells: 16})
			plans.AddRecv(Plan[int]{Cells: 16}, 2)
			plans.Reset()
		}},
	})
}
