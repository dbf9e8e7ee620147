package driver_test

// The toy application is the skeleton's proof of generality: a third app
// (after miniAMR and HYDRO) — a 1D ring diffusion — built purely against
// the exported driver API. It registers its variants, caches its message
// plans in driver.Plans, runs both execution engines (the loop engine at
// one and at N workers, the graph engine) through driver.Loop and
// validates checksums through driver.Oracle, without a single change to
// the task, tampi, mpi or membuf layers.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"miniamr/internal/analysis"
	"miniamr/internal/cluster"
	"miniamr/internal/driver"
	"miniamr/internal/harness"
	"miniamr/internal/membuf"
	"miniamr/internal/mpi"
	"miniamr/internal/sanitize"
	"miniamr/internal/simnet"
	"miniamr/internal/task"
	"miniamr/internal/trace"
)

func init() {
	driver.Register("toy", driver.Variants...)
}

const toyCells = 16 // interior cells per rank

// toyState is the per-rank state: a strip of cells on a ring of ranks,
// one ghost value per side, refreshed every stage.
type toyState struct {
	comm   *mpi.Comm
	arena  *membuf.Arena
	cur    []float64
	next   []float64
	ghost  [2]float64 // side 0 = from left neighbour, 1 = from right
	plans  driver.Plans[int]
	oracle driver.Oracle
}

// Message tags double as the sender's side: tag 0 carries a low edge
// leftward, tag 1 a high edge rightward; the receiver maps them to the
// opposite ghost.
func newToyState(c *mpi.Comm) *toyState {
	s := &toyState{
		comm:   c,
		arena:  c.World().Arena(),
		oracle: driver.Oracle{Tolerance: 1e-9},
	}
	s.cur = s.arena.GetFloat64(toyCells)
	s.next = s.arena.GetFloat64(toyCells)
	for i := range s.cur {
		s.cur[i] = math.Sin(float64(c.Rank()*toyCells+i)) + 2
	}
	s.plans.Init(s.arena)
	size := c.Size()
	left, right := (c.Rank()+size-1)%size, (c.Rank()+1)%size
	// Segs[0] records the ghost side the plan's single value fills.
	s.plans.AddSend(driver.Plan[int]{Peer: left, Tag: 0, Cells: 1, Segs: []int{0}})
	s.plans.AddSend(driver.Plan[int]{Peer: right, Tag: 1, Cells: 1, Segs: []int{1}})
	s.plans.AddRecv(driver.Plan[int]{Peer: right, Tag: 0, Cells: 1, Segs: []int{1}}, 1)
	s.plans.AddRecv(driver.Plan[int]{Peer: left, Tag: 1, Cells: 1, Segs: []int{0}}, 1)
	return s
}

func (s *toyState) close() {
	s.arena.PutFloat64(s.cur)
	s.arena.PutFloat64(s.next)
	s.plans.Close()
}

func (s *toyState) edge(side int) float64 {
	if side == 0 {
		return s.cur[0]
	}
	return s.cur[toyCells-1]
}

// sweepInto computes one diffusion step from cur+ghosts into next.
func (s *toyState) sweepInto(next []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		left, right := s.ghost[0], s.ghost[1]
		if i > 0 {
			left = s.cur[i-1]
		}
		if i < toyCells-1 {
			right = s.cur[i+1]
		}
		next[i] = 0.25*left + 0.5*s.cur[i] + 0.25*right
	}
}

func (s *toyState) localSum() float64 {
	sum := 0.0
	for _, v := range s.cur {
		sum += v
	}
	return sum
}

func (s *toyState) validate() error {
	local := s.arena.GetFloat64(1)
	local[0] = s.localSum()
	global, err := s.comm.AllreduceFloat64(local, mpi.Sum)
	s.arena.PutFloat64(local)
	if err != nil {
		return err
	}
	return s.oracle.Accept(global)
}

func (s *toyState) result() driver.Result {
	return driver.Result{Checksums: s.oracle.History, FinalBlocks: 1, Flops: 1}
}

func toyLoop() driver.Loop {
	return driver.Loop{Timesteps: 3, StagesPerTimestep: 2, ChecksumEvery: 2, Groups: [][2]int{{0, 1}}}
}

// toyLoopDriver runs the diffusion on the LoopEngine: the sweep in a
// parallel region, MPI on the master. It is both loop variants — MPI-only
// is this driver on one worker.
type toyLoopDriver struct {
	s   *toyState
	eng *driver.LoopEngine
}

func (d *toyLoopDriver) BeginStep(int) error { return nil }

func (d *toyLoopDriver) Communicate(_, _, _ int) error {
	s := d.s
	ws := d.eng.Wait()
	ws.Reset()
	for i := range s.plans.RecvPlans {
		pl := &s.plans.RecvPlans[i]
		req, err := s.comm.Irecv(s.plans.RecvBuf(i)[:1], pl.Peer, pl.Tag)
		if err != nil {
			return err
		}
		ws.Add(req)
	}
	for i := range s.plans.SendPlans {
		pl := &s.plans.SendPlans[i]
		lease := s.arena.LeaseFloat64(1)
		lease.Float64()[0] = s.edge(pl.Segs[0])
		req, err := s.comm.IsendOwned(lease, pl.Peer, pl.Tag)
		if err != nil {
			lease.Release()
			d.eng.FlushSends()
			return err
		}
		d.eng.TrackSend(req)
	}
	for remaining := ws.Len(); remaining > 0; remaining-- {
		idx, _, err := ws.Next()
		if err != nil {
			return err
		}
		s.ghost[s.plans.RecvPlans[idx].Segs[0]] = s.plans.RecvBuf(idx)[0]
	}
	return d.eng.FlushSends()
}

func (d *toyLoopDriver) Compute(_, _, _ int) error {
	s := d.s
	d.eng.ParFor(toyCells, func(i, _ int) { s.sweepInto(s.next, i, i+1) })
	copy(s.cur, s.next)
	return nil
}

func (d *toyLoopDriver) Checksum(int) error        { return d.s.validate() }
func (d *toyLoopDriver) Quiesce() error            { return nil }
func (d *toyLoopDriver) Refine(bool) (bool, error) { return false, nil }
func (d *toyLoopDriver) Drain() error              { return nil }

// toyDataFlow taskifies the stages on the GraphEngine. Its four dependency
// regions are reserved once: ghost cell 0, ghost cell 1, the cells, the sum.
// defect, when set, seeds one task-graph defect (see seedDefect).
type toyDataFlow struct {
	s       *toyState
	g       *driver.GraphEngine
	regions task.Region
	defect  string
}

// describe names the toy's regions; regions a seeded defect reserves on the
// fly are scratch.
func (d *toyDataFlow) describe(r task.Region) string {
	switch i := int(r - d.regions); i {
	case 0, 1:
		return fmt.Sprintf("ghost %d", i)
	case 2:
		return "cells"
	case 3:
		return "sum"
	}
	return fmt.Sprintf("scratch %d", r.Index())
}

func (d *toyDataFlow) ghost(side int) task.Region { return d.regions + task.Region(side) }
func (d *toyDataFlow) cells() task.Region         { return d.regions + 2 }
func (d *toyDataFlow) sum() task.Region           { return d.regions + 3 }

func (d *toyDataFlow) BeginStep(int) error { return nil }

func (d *toyDataFlow) Communicate(_, _, _ int) error {
	s := d.s
	for i := range s.plans.RecvPlans {
		pl := &s.plans.RecvPlans[i]
		peer, tag, side := pl.Peer, pl.Tag, pl.Segs[0]
		buf := s.plans.RecvBuf(i)[:1]
		// Iwait never blocks: it defers the task's completion (and so the
		// release of the ghost key) until the message lands in buf.
		out := d.g.Out(d.ghost(side))
		if d.defect == "orphan-read" {
			out = nil // the sweep reads a ghost nobody writes
		}
		d.g.Spawn("recv", func(t *task.Task) {
			req, err := s.comm.Irecv(buf, peer, tag)
			if err != nil {
				panic(err)
			}
			d.g.X.Iwait(t, req)
		}, out...)
	}
	for i := range s.plans.SendPlans {
		pl := &s.plans.SendPlans[i]
		peer, tag, side := pl.Peer, pl.Tag, pl.Segs[0]
		d.g.Spawn("send", func(t *task.Task) {
			lease := s.arena.LeaseFloat64(1)
			lease.Float64()[0] = s.edge(side)
			if err := d.g.X.IsendOwned(t, lease, peer, tag); err != nil {
				panic(err)
			}
		}, d.g.In(d.cells())...)
	}
	switch d.defect {
	case "unpaired-send":
		// A message nobody receives, on a tag of its own.
		lease := s.arena.LeaseFloat64(1)
		if _, err := s.comm.IsendOwned(lease, s.plans.SendPlans[0].Peer, 7); err != nil {
			return err
		}
	case "unpaired-recv":
		// A receive nobody sends to, never waited for.
		if _, err := s.comm.Irecv(make([]float64, 1), s.plans.RecvPlans[0].Peer, 7); err != nil {
			return err
		}
	}
	return d.g.X.Err()
}

func (d *toyDataFlow) Compute(_, _, _ int) error {
	s := d.s
	d.g.Spawn("sweep", func(*task.Task) {
		for i := range s.plans.RecvPlans {
			s.ghost[s.plans.RecvPlans[i].Segs[0]] = s.plans.RecvBuf(i)[0]
		}
		s.sweepInto(s.next, 0, toyCells)
		copy(s.cur, s.next)
	}, d.g.Merge(
		d.g.In(d.ghost(0), d.ghost(1)),
		d.g.InOut(d.cells()),
	)...)
	d.seedDefect()
	return nil
}

// seedDefect adds the compute stage's seeded defect: tasks with no work
// whose declarations break one rule of graphlint or perflint, on scratch
// regions reserved for the stage.
func (d *toyDataFlow) seedDefect() {
	nop := func(*task.Task) {}
	switch d.defect {
	case "needless-barrier":
		d.g.WaitKeys(d.cells()) // no collective follows
	case "serial-funnel":
		r := d.g.Reserve(5)
		for i := 0; i < 4; i++ {
			d.g.Spawn("scatter", nop, d.g.Out(r+task.Region(i))...)
		}
		d.g.Spawn("funnel", nop, d.g.Merge(d.g.In(r, r+1, r+2, r+3), d.g.Out(r+4))...)
		for i := 0; i < 4; i++ {
			d.g.Spawn("gather", nop, d.g.In(r+4)...)
		}
	case "wide-key":
		r := d.g.Reserve(1)
		d.g.Spawn("zero", nop, d.g.Out(r)...)
		for i := 0; i < 2; i++ {
			d.g.Spawn("partial", nop, d.g.InOut(r)...) // one region for both partials
		}
		d.g.Spawn("total", nop, d.g.In(r)...)
	case "cycle":
		// Label a precedes b and b precedes a within one stage.
		r := d.g.Reserve(3)
		d.g.Spawn("a", nop, d.g.Out(r)...)
		d.g.Spawn("b", nop, d.g.Merge(d.g.In(r), d.g.Out(r+1))...)
		d.g.Spawn("b", nop, d.g.Merge(d.g.In(r), d.g.Out(r+2))...)
		d.g.Spawn("a", nop, d.g.In(r+1, r+2)...)
	}
}

func (d *toyDataFlow) Checksum(int) error {
	s := d.s
	slot := s.arena.GetFloat64(1)
	d.g.Spawn("cksum", func(*task.Task) {
		slot[0] = s.localSum()
	}, d.g.Merge(d.g.In(d.cells()), d.g.Out(d.sum()))...)
	if d.defect == "dead-write" {
		d.g.Wait() // drains the sum without reading its region
	} else {
		d.g.WaitKeys(d.sum())
	}
	if err := d.g.X.Err(); err != nil {
		return err
	}
	sum := slot[0]
	s.arena.PutFloat64(slot)
	local := s.arena.GetFloat64(1)
	local[0] = sum
	op := mpi.Sum
	if d.defect == "collective-sequence" && s.comm.Rank() == 1 {
		op = mpi.Max // rank 0 reduces, so only the recorded sequence differs
	}
	global, err := s.comm.AllreduceFloat64(local, op)
	s.arena.PutFloat64(local)
	if err != nil {
		return err
	}
	return s.oracle.Accept(global)
}

func (d *toyDataFlow) Quiesce() error {
	d.g.Wait()
	return d.g.X.Err()
}

func (d *toyDataFlow) Refine(bool) (bool, error) { return false, nil }

func (d *toyDataFlow) Drain() error {
	d.g.Wait()
	return d.g.X.Err()
}

// toyJob packages the toy app as a driver.Job. observe, when set, yields
// the ranks' task observers; defect seeds a task-graph defect into the
// data-flow driver.
type toyJob struct {
	observe func(rank int) task.Observer
	defect  string
}

func (toyJob) App() string { return "toy" }

func (j toyJob) Bind(v driver.Variant, workers int, _ *sanitize.Sanitizer) (driver.Program, error) {
	return func(c *mpi.Comm, _ *trace.Recorder) (driver.Result, error) {
		s := newToyState(c)
		var obs task.Observer
		if j.observe != nil {
			obs = j.observe(c.Rank())
		}
		var h driver.Hooks
		var cleanup func()
		workers := workers // every rank's goroutine runs this closure
		switch v {
		case driver.MPIOnly, driver.ForkJoin:
			if v == driver.MPIOnly {
				workers = 1
			}
			eng := driver.NewLoopEngine(s.arena, workers, 1, false)
			h = &toyLoopDriver{s: s, eng: eng}
			cleanup = eng.Close
		case driver.DataFlow:
			d := &toyDataFlow{s: s, defect: j.defect}
			g, err := driver.NewGraphEngine(driver.GraphOptions{
				Comm: c, Workers: workers, ScratchLen: 1, Observer: obs, Describe: d.describe,
			})
			if err != nil {
				return driver.Result{}, err
			}
			d.g, d.regions = g, g.Reserve(4)
			h = d
			cleanup = g.Close
		default:
			return driver.Result{}, fmt.Errorf("toy: unknown variant %q", v)
		}
		if _, err := toyLoop().Run(driver.Observe(h, obs)); err != nil {
			return driver.Result{}, err
		}
		cleanup()
		res := s.result()
		s.close()
		return res, nil
	}, nil
}

// TestToyAppOnSkeleton registers the third application and runs it
// through the harness on every variant: same registry path, same engines,
// same loop — and bit-identical checksums across variants.
func TestToyAppOnSkeleton(t *testing.T) {
	for _, v := range driver.Variants {
		if err := driver.CheckVariant("toy", v); err != nil {
			t.Fatalf("registry: %v", err)
		}
	}
	var ref []float64
	for _, v := range driver.Variants {
		m, err := harness.Run(harness.RunSpec{
			Nodes: 1, RanksPerNode: 3, CoresPerRank: 2,
			Net: simnet.None(), Job: toyJob{}, Variant: v,
		})
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if len(m.Checksums) != 3 {
			t.Fatalf("%s: validated %d checksum stages, want 3", v, len(m.Checksums))
		}
		var got []float64
		for _, ck := range m.Checksums {
			got = append(got, ck...)
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range ref {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("%s: checksum %d = %v, want bit-identical %v", v, i, got[i], ref[i])
			}
		}
	}
}

// TestToyAppArenaClean: the toy app must return every pooled buffer —
// the lease/slab ownership rules of the driver contract hold for a third
// application too.
func TestToyAppArenaClean(t *testing.T) {
	w := mpi.NewWorld(cluster.MustNew(1, 3, 1), simnet.None())
	w.Arena().SetDebug(true)
	program, err := toyJob{}.Bind(driver.DataFlow, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(c *mpi.Comm) {
		if _, err := program(c, nil); err != nil {
			panic(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	st := w.Arena().Stats()
	if st.Live != 0 || st.LeasesLive != 0 || st.Gets != st.Puts {
		t.Fatalf("arena not clean after toy run: %+v", st)
	}
}

// recordToy records the toy data-flow driver's graph with one seeded
// defect ("" for none).
func recordToy(t *testing.T, defect string) (*analysis.Graph, []analysis.Finding) {
	t.Helper()
	g, findings, err := analysis.Record(analysis.Recording{
		Name: "toy", App: "toy", Variant: driver.DataFlow, Ranks: 3, Workers: 2,
		Job: func(observe func(int) task.Observer) driver.Job { return toyJob{observe: observe, defect: defect} },
	})
	if err != nil {
		t.Fatalf("%s: %v", defect, err)
	}
	return g, append(findings, analysis.PerfLint(g)...)
}

// TestToySeededGraphDefects seeds one defect per graphlint and perflint
// rule into the toy's data-flow driver: each recorded graph must trip its
// rule under the rule's stable id, and the toy without a defect must
// record clean.
func TestToySeededGraphDefects(t *testing.T) {
	if _, findings := recordToy(t, ""); len(findings) > 0 {
		t.Errorf("clean toy records findings: %v", findings)
	}
	for defect, id := range map[string]string{
		"cycle":               "graphlint/cycle",
		"orphan-read":         "graphlint/orphan-read",
		"dead-write":          "graphlint/dead-write",
		"unpaired-send":       "graphlint/unpaired-send",
		"unpaired-recv":       "graphlint/unpaired-recv",
		"collective-sequence": "graphlint/collective-sequence",
		"needless-barrier":    "perflint/perf-needless-barrier",
		"serial-funnel":       "perflint/perf-serial-funnel",
		"wide-key":            "perflint/perf-wide-key",
	} {
		t.Run(defect, func(t *testing.T) {
			_, findings := recordToy(t, defect)
			var ids []string
			for _, f := range findings {
				ids = append(ids, f.ID())
			}
			if !slices.Contains(ids, id) {
				t.Errorf("seeded %s: findings %v, want one %s", defect, findings, id)
			}
		})
	}
}
