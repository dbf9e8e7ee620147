package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"miniamr/internal/amr/app"
	"miniamr/internal/driver"
	"miniamr/internal/simnet"
)

// tinyOpts keeps experiment tests fast: 2 virtual nodes of 2 cores, a
// 4-cell block, 2 variables, 2x2 loop, no network cost.
func tinyOpts() Options {
	net := simnet.None()
	return Options{
		Nodes:        2,
		CoresPerNode: 2,
		Net:          &net,
		Scale: Scale{
			BlockCells: 4, Vars: 2, Timesteps: 2, StagesPerTimestep: 2, MaxLevel: 1,
		},
	}
}

func TestFactor3(t *testing.T) {
	cases := map[int][3]int{
		1:  {1, 1, 1},
		2:  {2, 1, 1},
		4:  {2, 2, 1},
		8:  {2, 2, 2},
		12: {3, 2, 2},
		48: {4, 4, 3},
		7:  {7, 1, 1},
	}
	for n, want := range cases {
		got := factor3(n)
		if got[0]*got[1]*got[2] != n {
			t.Errorf("factor3(%d) = %v does not multiply to %d", n, got, n)
		}
		if got != want {
			t.Errorf("factor3(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestWeakMesh(t *testing.T) {
	root, err := WeakMesh(1, 8)
	if err != nil || root != [3]int{2, 2, 2} {
		t.Errorf("WeakMesh(1,8) = %v, %v", root, err)
	}
	// Doubling nodes doubles the total blocks, one direction at a time.
	prev := 8
	for _, nodes := range []int{2, 4, 8, 16} {
		root, err := WeakMesh(nodes, 8)
		if err != nil {
			t.Fatal(err)
		}
		total := root[0] * root[1] * root[2]
		if total != prev*2 {
			t.Errorf("nodes=%d: total blocks %d, want %d", nodes, total, prev*2)
		}
		prev = total
	}
	if _, err := WeakMesh(3, 8); err == nil {
		t.Error("non-power-of-two node count accepted")
	}
	if _, err := WeakMesh(0, 8); err == nil {
		t.Error("zero nodes accepted")
	}
}

func TestInputsValidate(t *testing.T) {
	for name, cfg := range map[string]func() error{
		"single-sphere": func() error { c := SingleSphere([3]int{2, 2, 1}, Scale{}); return c.Validate() },
		"four-spheres":  func() error { c := FourSpheres([3]int{2, 2, 1}, Scale{}); return c.Validate() },
	} {
		if err := cfg(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	c := FourSpheres([3]int{2, 2, 1}, Scale{})
	if len(c.Objects) != 4 {
		t.Errorf("four spheres has %d objects", len(c.Objects))
	}
	// Two spheres move +x, two move -x.
	plus, minus := 0, 0
	for _, o := range c.Objects {
		switch {
		case o.Move[0] > 0:
			plus++
		case o.Move[0] < 0:
			minus++
		}
	}
	if plus != 2 || minus != 2 {
		t.Errorf("sphere movement split %d/+x %d/-x", plus, minus)
	}
}

func TestVariantRegistry(t *testing.T) {
	for _, v := range Variants {
		if err := driver.CheckVariant("miniamr", v); err != nil {
			t.Errorf("%s: %v", v, err)
		}
		if _, err := app.Job(SingleSphere([3]int{2, 2, 1}, Scale{})).Bind(v, 1, nil); err != nil {
			t.Errorf("bind %s: %v", v, err)
		}
	}
	if err := driver.CheckVariant("miniamr", Variant("bogus")); err == nil {
		t.Error("bogus variant accepted")
	}
	if err := driver.CheckVariant("no-such-app", MPIOnly); err == nil {
		t.Error("unregistered application accepted")
	}
	if _, err := app.Job(SingleSphere([3]int{2, 2, 1}, Scale{})).Bind(Variant("bogus"), 1, nil); err == nil {
		t.Error("bogus variant bound")
	}
}

func TestRunAggregatesMetrics(t *testing.T) {
	opt := tinyOpts()
	cfg := FourSpheres([3]int{2, 2, 1}, opt.Scale)
	m, err := Run(RunSpec{
		Nodes: 2, RanksPerNode: 2, CoresPerRank: 1,
		Net: simnet.None(), Cfg: cfg, Variant: MPIOnly,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Ranks != 4 || m.Cores != 4 {
		t.Errorf("ranks/cores = %d/%d", m.Ranks, m.Cores)
	}
	if m.Total <= 0 || m.Flops <= 0 || m.GFLOPS <= 0 {
		t.Errorf("metrics not populated: %+v", m)
	}
	if m.NoRefine != m.Total-m.Refine {
		t.Error("NoRefine arithmetic")
	}
	if len(m.Checksums) == 0 {
		t.Error("no checksums recorded")
	}
}

// TestRunWritesCPUProfile: RunSpec.CPUProfile yields a non-empty pprof
// file beside the usual metrics, and an unwritable path fails the run
// before it starts.
func TestRunWritesCPUProfile(t *testing.T) {
	spec := RunSpec{
		Nodes: 1, RanksPerNode: 2, CoresPerRank: 1, Net: simnet.None(),
		Cfg: FourSpheres([3]int{2, 1, 1}, tinyOpts().Scale), Variant: MPIOnly,
		CPUProfile: filepath.Join(t.TempDir(), "cpu.prof"),
	}
	m, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Checksums) == 0 {
		t.Error("profiled run recorded no checksums")
	}
	if st, err := os.Stat(spec.CPUProfile); err != nil || st.Size() == 0 {
		t.Errorf("profile file: %v, %v; want a non-empty file", st, err)
	}
	spec.CPUProfile = filepath.Join(t.TempDir(), "missing-dir", "cpu.prof")
	if _, err := Run(spec); err == nil {
		t.Error("unwritable profile path accepted")
	}
}

func TestRunRejectsBadSpec(t *testing.T) {
	if _, err := Run(RunSpec{Variant: "nope"}); err == nil {
		t.Error("unknown variant accepted")
	}
	if _, err := Run(RunSpec{Variant: MPIOnly, Nodes: 0}); err == nil {
		t.Error("empty topology accepted")
	}
	opt := tinyOpts()
	cfg := FourSpheres([3]int{2, 2, 1}, opt.Scale)
	cfg.Vars = -1
	if _, err := Run(RunSpec{Nodes: 1, RanksPerNode: 1, CoresPerRank: 1, Cfg: cfg, Variant: MPIOnly}); err == nil {
		t.Error("invalid app config accepted")
	}
}

func TestTable1(t *testing.T) {
	rows, err := Table1(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // ranks/node in {1, 2} for 2-core nodes
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.FJ.Total <= 0 || r.DF.Total <= 0 {
			t.Errorf("rpn=%d: empty metrics", r.RanksPerNode)
		}
	}
	var sb strings.Builder
	PrintTable1(&sb, rows)
	if !strings.Contains(sb.String(), "TAMPI+OSS") {
		t.Error("table header missing")
	}
}

func TestTable2(t *testing.T) {
	rows, err := Table2(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6 (1,2,4,8,16,all)", len(rows))
	}
	if rows[5].Tasks != 0 {
		t.Error("last row should be 'all'")
	}
	var sb strings.Builder
	PrintTable2(&sb, rows)
	if !strings.Contains(sb.String(), "all") {
		t.Error("'all' column missing")
	}
}

func TestWeakScaling(t *testing.T) {
	series, err := WeakScaling(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 2 { // nodes 1, 2
			t.Fatalf("%s: points = %d", s.Variant, len(s.Points))
		}
		if eff := s.Efficiency(0, false); eff != 1 {
			t.Errorf("%s: self-efficiency = %v", s.Variant, eff)
		}
		for i, p := range s.Points {
			if p.M.GFLOPS <= 0 {
				t.Errorf("%s point %d: zero throughput", s.Variant, i)
			}
		}
	}
	var sb strings.Builder
	PrintScaling(&sb, "weak", series)
	if !strings.Contains(sb.String(), "GFLOPS") {
		t.Error("scaling header missing")
	}
}

func TestStrongScaling(t *testing.T) {
	series, err := StrongScaling(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 || len(series[0].Points) != 2 {
		t.Fatalf("series shape wrong")
	}
	if sp := Speedup(series[0], series[0], 0); sp != 1 {
		t.Errorf("self speedup = %v", sp)
	}
	var sb strings.Builder
	PrintStrong(&sb, series)
	if !strings.Contains(sb.String(), "speedup") {
		t.Error("strong header missing")
	}
}

func TestTraces(t *testing.T) {
	res, err := Traces(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.MPITrace.Len() == 0 || res.DataFlowTrace.Len() == 0 {
		t.Fatal("traces empty")
	}
	var sb strings.Builder
	PrintTraces(&sb, res, 60)
	out := sb.String()
	for _, want := range []string{"Figure 1", "MPI-only", "TAMPI+OSS", "overlap"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q", want)
		}
	}
}

func TestRefineAblation(t *testing.T) {
	res, err := RefineAblation(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Taskified.Total <= 0 || res.Sequential.Total <= 0 {
		t.Error("ablation metrics empty")
	}
	var sb strings.Builder
	PrintRefineAblation(&sb, res)
	if !strings.Contains(sb.String(), "taskified") {
		t.Error("ablation output missing")
	}
}

func TestSchedulerAblation(t *testing.T) {
	res, err := SchedulerAblation(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.WithPolicy.Total <= 0 || res.WithoutPolicy.Total <= 0 {
		t.Error("ablation metrics empty")
	}
	var sb strings.Builder
	PrintSchedulerAblation(&sb, res)
	if !strings.Contains(sb.String(), "immediate successor") {
		t.Error("ablation output missing")
	}
}

func TestHostEffBounds(t *testing.T) {
	opt := tinyOpts()
	cfg := FourSpheres([3]int{2, 2, 1}, opt.Scale)
	m, err := Run(RunSpec{
		Nodes: 1, RanksPerNode: 2, CoresPerRank: 1,
		Net: simnet.None(), Cfg: cfg, Variant: MPIOnly,
	})
	if err != nil {
		t.Fatal(err)
	}
	// hEff is a fraction of calibrated capacity: positive, and not wildly
	// above 1 (calibration and kernels share the same code path).
	if m.HostEff <= 0 || m.HostEff > 2 {
		t.Errorf("HostEff = %v out of plausible range", m.HostEff)
	}
	if m.NRHostEff < m.HostEff {
		t.Errorf("NRHostEff %v < HostEff %v; non-refinement time is smaller", m.NRHostEff, m.HostEff)
	}
}

func TestRunBestKeepsFastest(t *testing.T) {
	opt := tinyOpts()
	opt.Repeats = 3
	cfg := FourSpheres([3]int{2, 2, 1}, opt.Scale)
	m, err := runBest(opt, RunSpec{
		Nodes: 1, RanksPerNode: 2, CoresPerRank: 1,
		Net: simnet.None(), Cfg: cfg, Variant: MPIOnly,
	})
	if err != nil || m.Total <= 0 {
		t.Fatalf("runBest: %v %v", m.Total, err)
	}
}
