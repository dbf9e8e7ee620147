package harness

import (
	"testing"

	"miniamr/internal/analysis"
	"miniamr/internal/driver"
	"miniamr/internal/hydro"
	"miniamr/internal/simnet"
	"miniamr/internal/task"
)

// TestDynamicWidthWithinStaticModel cross-checks perflint's cost model
// against a real execution: a task.WidthMeter records the dynamic
// ready-set high-water mark of a HYDRO data-flow run, and the model
// evaluates the graph recorded at the same configuration.
//
// Two properties tie the model to reality. Upward: the ready set is an
// antichain of the dependence DAG, so the dynamic high-water must stay at
// or below the model's MaxWidth. Downward: the CFL scan spawns one heavy
// task per owned tile with no dependencies between them, so all of them
// are ready before the first one finishes — the meter must observe at
// least that many, which exceeds the worker count. That surplus of ready
// work over cores is exactly the slack the data-flow scheduler exploits
// and the serial variant (width 1) forgoes.
//
// The measurement is a lower bound on the true concurrency: cheap tasks
// (ghost copies) are consumed as fast as the main goroutine can spawn
// them, so the meter does not see the model's full cross-phase antichain.
// The dataflow-beats-forkjoin comparison of the models lives in
// internal/analysis (TestDataflowWidthBeatsForkJoin).
func TestDynamicWidthWithinStaticModel(t *testing.T) {
	const workers = 4
	cfg := hydro.Config{
		NX: 128, NY: 128, TilesX: 4, TilesY: 4,
		Timesteps: 6, ChecksumEvery: 4,
	}

	// Model side: the graph recorded at this configuration.
	g, findings, err := analysis.Record(analysis.Recording{
		Name: "hydro-dataflow", App: "hydro", Variant: driver.DataFlow, Ranks: 2, Workers: workers,
		Job: func(observe func(int) task.Observer) driver.Job {
			c := cfg
			c.TaskObserver = observe
			return hydro.Job(c)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("graph finding: %s", f)
	}
	static := analysis.ProfileGraph(g, workers)
	if static.Mode != "dataflow" {
		t.Fatalf("static mode = %q, want dataflow", static.Mode)
	}
	scans := 0
	for _, n := range g.Nodes {
		if n.Label == "cfl-scan" {
			scans = n.Count
		}
	}

	// Dynamic side: run the data-flow variant with a width meter on
	// every rank.
	meters := []*task.WidthMeter{task.NewWidthMeter(), task.NewWidthMeter()}
	cfg.TaskObserver = func(rank int) task.Observer { return meters[rank] }
	if _, err := Run(RunSpec{
		Nodes: 2, RanksPerNode: 1, CoresPerRank: workers,
		Net: simnet.None(), Job: hydro.Job(cfg), Variant: driver.DataFlow,
	}); err != nil {
		t.Fatal(err)
	}

	hwm := 0
	for rank, m := range meters {
		t.Logf("rank %d: %d tasks, ready-set high-water %d (model max width %d)",
			rank, m.Spawned(), m.HighWater(), static.MaxWidth)
		if m.Spawned() == 0 {
			t.Errorf("rank %d: width meter saw no tasks — observer not plumbed through", rank)
		}
		if m.HighWater() > hwm {
			hwm = m.HighWater()
		}
	}
	if hwm > static.MaxWidth {
		t.Errorf("dynamic ready-set high-water %d exceeds the model's max width %d", hwm, static.MaxWidth)
	}
	if hwm < scans {
		t.Errorf("dynamic ready-set high-water %d below the %d CFL scans of a step — "+
			"the scan's recorded concurrency was not realized", hwm, scans)
	}
	if hwm <= workers {
		t.Errorf("dynamic ready-set high-water %d does not exceed the %d workers — "+
			"no surplus ready work for the scheduler to exploit", hwm, workers)
	}
}
