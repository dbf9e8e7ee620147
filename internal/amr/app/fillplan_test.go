package app

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"miniamr/internal/amr/comm"
	"miniamr/internal/amr/grid"
	"miniamr/internal/amr/mesh"
	"miniamr/internal/cluster"
	"miniamr/internal/mpi"
	"miniamr/internal/simnet"
	"miniamr/internal/task"
)

// rankFatalf is t.Fatalf for a rank's goroutine, which must not exit
// quietly: the panic takes the world down and so unblocks the peers.
func rankFatalf(t *testing.T, format string, args ...any) {
	t.Helper()
	t.Errorf(format, args...)
	panic("fill plan test failed")
}

// fillFaceAt names a boundary face the way the schedules do.
type fillFaceAt struct {
	block mesh.Coord
	face  fillFace
}

// checkFillPlan compares the driver's fill plan with the schedules it was
// built from: every Local transfer and every Boundary face of the three
// directions exactly once, under its destination block, with the sources
// a fill declares.
func checkFillPlan(t *testing.T, d *dataFlowDriver) {
	t.Helper()
	s, fp := d.s, &d.fill
	owned := s.owned()
	copies := map[comm.Transfer]int{}
	faces := map[fillFaceAt]int{}
	for _, sc := range s.scheds {
		for _, tr := range sc.Local {
			copies[tr]++
		}
		for _, bf := range sc.Boundary {
			faces[fillFaceAt{bf.Block, fillFace{sc.Dir, bf.Side}}]++
		}
	}
	if len(copies)+len(faces) == 0 {
		rankFatalf(t, "rank %d: nothing stays within the rank, the test checks nothing", s.rank)
	}
	var from fillBlock
	for _, fb := range fp.blocks {
		if fb.owned < from.owned || fb.copies < from.copies || fb.faces < from.faces || fb.srcs <= from.srcs {
			rankFatalf(t, "rank %d: block entry %+v does not advance from %+v", s.rank, fb, from)
		}
		bc := owned[fb.owned]
		var srcs []int
		for _, tr := range fp.copies[from.copies:fb.copies] {
			if tr.Recv != bc {
				t.Errorf("rank %d: transfer into %v filed under %v", s.rank, tr.Recv, bc)
			}
			copies[tr]--
			srcs = append(srcs, slices.Index(owned, tr.Src))
		}
		for _, f := range fp.faces[from.faces:fb.faces] {
			faces[fillFaceAt{bc, f}]--
		}
		if fb.faces > from.faces {
			srcs = append(srcs, fb.owned) // the boundary condition reads the block itself
		}
		if got := fp.srcs[from.srcs:fb.srcs]; !slices.Equal(got, srcs) {
			t.Errorf("rank %d: fill of %v reads blocks %v, want %v", s.rank, bc, got, srcs)
		}
		from = fb
	}
	if from.copies != len(fp.copies) || from.faces != len(fp.faces) || from.srcs != len(fp.srcs) {
		t.Errorf("rank %d: last block entry %+v leaves plan entries unowned", s.rank, from)
	}
	for tr, n := range copies {
		if n != 0 {
			t.Errorf("rank %d: local transfer %+v appears %d times too few", s.rank, tr, n)
		}
	}
	for f, n := range faces {
		if n != 0 {
			t.Errorf("rank %d: boundary face %+v appears %d times too few", s.rank, f, n)
		}
	}
}

// TestFillPlan builds the data-flow driver's fill plan on a refined
// two-rank mesh, checks it against the schedules, and checks that it
// follows the mesh through a refinement.
func TestFillPlan(t *testing.T) {
	w := mpi.NewWorld(cluster.MustNew(1, 2, 2), simnet.None())
	err := w.Run(func(c *mpi.Comm) {
		cfg := testConfig()
		d, err := newDataFlowDriver(&cfg, c, nil)
		if err != nil {
			t.Error(err)
			panic(err)
		}
		step := func(advance bool) {
			if _, err := d.Refine(advance); err != nil {
				t.Error(err)
				panic(err)
			}
		}
		for i := 0; i <= cfg.MaxLevel; i++ { // the initial refinement
			step(false)
		}
		d.plan()
		checkFillPlan(t, d)
		levels := d.s.msh.LevelHistogram()
		if len(levels) <= cfg.MaxLevel || levels[cfg.MaxLevel] == 0 {
			t.Errorf("rank %d: mesh levels %v: no cross-level copies were checked", c.Rank(), levels)
		}

		// A second call is a no-op; a refinement that moves the mesh makes
		// the next one rebuild.
		planned, first := d.planned, &d.fill.blocks[0]
		d.plan()
		if d.planned != planned || &d.fill.blocks[0] != first {
			t.Errorf("rank %d: plan rebuilt within an epoch", c.Rank())
		}
		before := slices.Clone(d.s.owned())
		for i := 0; i < 3; i++ {
			step(true)
		}
		if slices.Equal(before, d.s.owned()) {
			rankFatalf(t, "rank %d: three refinements left the rank's blocks alone", c.Rank())
		}
		d.plan()
		if d.planned != d.s.epoch || d.planned == planned {
			t.Errorf("rank %d: plan of epoch %d after refinement to epoch %d", c.Rank(), d.planned, d.s.epoch)
		}
		checkFillPlan(t, d)
		d.g.Close()
		d.s.close()
	})
	if err != nil && !t.Failed() {
		t.Fatal(err)
	}
}

// epochTables is a copy of everything the data-flow driver derives per mesh
// epoch and task bodies read: the first handles of the region tables, every
// message's first section, the block table and the fill plan.
type epochTables struct {
	first  [4]task.Region
	secs   []task.Region
	blocks []*grid.Data
	plan   fillPlan
	at     [2]any // where the block table and the plan's first entry live
}

func tablesOf(d *dataFlowDriver) epochTables {
	e := epochTables{
		first:  [4]task.Region{d.interiors, d.halos, d.slotRegs, d.xfers},
		blocks: slices.Clone(d.blocks),
		plan: fillPlan{
			blocks: slices.Clone(d.fill.blocks), copies: slices.Clone(d.fill.copies),
			faces: slices.Clone(d.fill.faces), srcs: slices.Clone(d.fill.srcs),
		},
		at: [2]any{&d.blocks[0], &d.fill.blocks[0]},
	}
	for _, plans := range [2]*[3][]commPlan{&d.s.recvPlans, &d.s.sendPlans} {
		for dir := range plans {
			for _, pl := range plans[dir] {
				e.secs = append(e.secs, pl.sec)
			}
		}
	}
	return e
}

func (e epochTables) equal(o epochTables) bool {
	return e.first == o.first && e.at == o.at && slices.Equal(e.secs, o.secs) && slices.Equal(e.blocks, o.blocks) &&
		slices.Equal(e.plan.blocks, o.plan.blocks) && slices.Equal(e.plan.copies, o.plan.copies) &&
		slices.Equal(e.plan.faces, o.plan.faces) && slices.Equal(e.plan.srcs, o.plan.srcs)
}

// TestKeysAndPlanAreWrittenOnce runs the stages of two variable groups
// back to back, as a timestep with CommVars < Vars does, and checks that
// later stages leave alone everything the tasks of earlier ones read while
// still in flight (group 0's are not waited for: under the race detector
// any write shows): the region tables' first handles, the block table and
// the fill plan. It also checks the handle arithmetic they feed: every
// region of the epoch has its own handle, and together they are exactly
// what the runtime has reserved.
func TestKeysAndPlanAreWrittenOnce(t *testing.T) {
	w := mpi.NewWorld(cluster.MustNew(1, 2, 2), simnet.None())
	err := w.Run(func(c *mpi.Comm) {
		cfg := testConfig()
		cfg.SeparateBuffers = true // no two sections share a handle
		d, err := newDataFlowDriver(&cfg, c, nil)
		if err != nil {
			t.Error(err)
			panic(err)
		}
		must := func(err error) {
			if err != nil {
				t.Error(err)
				panic(err)
			}
		}
		_, err = d.Refine(false)
		must(err)
		if d.groups != 2 {
			rankFatalf(t, "test configuration has %d groups, want 2", d.groups)
		}
		must(d.Communicate(1, 0, 2))
		must(d.Compute(1, 0, 2))
		tables := tablesOf(d)

		// name is also what the sanitizer's reports must call the region.
		seen := map[task.Region]string{}
		claim := func(r task.Region, name string) {
			if prev, dup := seen[r]; dup {
				rankFatalf(t, "rank %d: %s and %s share handle %d", c.Rank(), prev, name, r)
			}
			if got := d.describe(r); got != name {
				t.Errorf("rank %d: handle %d is described as %q, want %q", c.Rank(), r, got, name)
			}
			seen[r] = name
		}
		for i, bc := range d.s.owned() {
			if d.blocks[i] != d.s.data[bc] {
				rankFatalf(t, "rank %d: block table entry %d is not the data of %v", c.Rank(), i, bc)
			}
			for gi := 0; gi < d.groups; gi++ {
				claim(d.interior(i, gi), fmt.Sprintf("interior %v group %d", bc, gi))
				claim(d.halo(i, gi), fmt.Sprintf("halo %v group %d", bc, gi))
			}
			claim(d.slot(0, i), fmt.Sprintf("slot %v parity 0", bc))
			claim(d.slot(1, i), fmt.Sprintf("slot %v parity 1", bc))
		}
		for way, plans := range [2]*[3][]commPlan{&d.s.recvPlans, &d.s.sendPlans} {
			for dir := range plans {
				for pi := range plans[dir] {
					pl := &plans[dir][pi]
					for i, tr := range pl.msg {
						claim(section(pl, i), fmt.Sprintf("section dir=%v peer=%d msg=%d idx=%d %s",
							grid.Dir(dir), pl.peer, pl.mi, i, [2]string{"recv", "send"}[way]))
						bc := tr.Recv
						if way == 1 {
							bc = tr.Src
						}
						if d.s.owned()[pl.own[i]] != bc {
							rankFatalf(t, "rank %d: transfer %+v is planned on block %d, which is not %v", c.Rank(), tr, pl.own[i], bc)
						}
					}
				}
			}
		}
		if reserved := d.g.Reserve(0).Index(); len(seen) != reserved {
			rankFatalf(t, "rank %d: the epoch names %d regions, the runtime holds %d", c.Rank(), len(seen), reserved)
		}

		// Group 1's exchange and stencil, then a checksum stage, which reads
		// the blocks of both groups.
		must(d.Communicate(1, 2, 4))
		must(d.Compute(1, 2, 4))
		must(d.Checksum(1))
		must(d.Drain())
		if !tables.equal(tablesOf(d)) {
			t.Errorf("rank %d: a later stage rewrote the epoch's tables", c.Rank())
		}
		d.g.Close()
		d.s.close()
	})
	if err != nil && !t.Failed() {
		t.Fatal(err)
	}
}

// graphLog is a task observer that keeps the graph since the last quiesced
// point: every task's label and declared accesses in spawn order, and the
// dependence edges.
type graphLog struct {
	first uint64 // id of tasks[0]
	tasks []loggedTask
	edges [][2]uint64
}

type loggedTask struct {
	label string
	accs  []task.Access
}

func (l *graphLog) TaskSpawned(id uint64, label string, accs []task.Access) {
	if id == 0 {
		return // a taskwait
	}
	if len(l.tasks) == 0 {
		l.first = id
	}
	l.tasks = append(l.tasks, loggedTask{label, slices.Clone(accs)})
}
func (l *graphLog) TaskDependence(pred, succ uint64) {
	l.edges = append(l.edges, [2]uint64{pred, succ})
}
func (l *graphLog) TaskFinished(uint64) {}
func (l *graphLog) Quiesced()           { l.tasks, l.edges = l.tasks[:0], l.edges[:0] }
func (l *graphLog) RegionsReset()       {}

// shared returns a region both tasks of an edge declare, at least one of
// them writing it and accepted by the filter: what justifies the edge.
func (l *graphLog) shared(e [2]uint64, filter func(task.Region) bool) (task.Region, bool) {
	for _, a := range l.tasks[e[0]-l.first].accs {
		for _, b := range l.tasks[e[1]-l.first].accs {
			if a.Region == b.Region && (a.Mode != task.ModeIn || b.Mode != task.ModeIn) && filter(a.Region) {
				return a.Region, true
			}
		}
	}
	return 0, false
}

// TestSharedBuffersOrderDirections pins the shared-buffer mode, which the
// benchmark never runs: without SeparateBuffers the three directions'
// messages of one peer and message index share their sections' regions, so
// one stage's communication tasks of different directions are ordered
// through them (the false dependencies --separate_buffers removes); with
// it no section orders two directions. The stage is spawned behind a gate
// task that writes every section and holds its core until the count is
// taken, so no task that uses a section starts and each dependency between
// two of them shows as an edge. (A stage spawned with every core held would
// park the spawner on the full ready queue for good.)
func TestSharedBuffersOrderDirections(t *testing.T) {
	cross := map[bool]int{}
	for _, separate := range []bool{true, false} {
		var total atomic.Int64
		w := mpi.NewWorld(cluster.MustNew(1, 2, 2), simnet.None())
		err := w.Run(func(c *mpi.Comm) {
			cfg := testConfig()
			cfg.SeparateBuffers = separate
			log := &graphLog{}
			cfg.TaskObserver = func(int) task.Observer { return log }
			d, err := newDataFlowDriver(&cfg, c, nil)
			if err != nil {
				t.Error(err)
				panic(err)
			}
			if _, err := d.Refine(false); err != nil {
				t.Error(err)
				panic(err)
			}
			d.plan() // the stage below must not rebuild the tables under the gate
			var secs []task.Region
			for _, plans := range [2]*[3][]commPlan{&d.s.recvPlans, &d.s.sendPlans} {
				for dir := range plans {
					for pi := range plans[dir] {
						for i := range plans[dir][pi].msg {
							secs = append(secs, section(&plans[dir][pi], i))
						}
					}
				}
			}
			slices.Sort(secs) // shared buffers name a section once per direction
			hold := make(chan struct{})
			d.g.Spawn("gate", func(*task.Task) { <-hold }, d.g.Out(slices.Compact(secs)...)...)
			if err := d.Communicate(1, 0, cfg.CommVars); err != nil {
				t.Error(err)
				panic(err)
			}
			// communicate spawns, per direction, a receive per incoming
			// message, then a pack per transfer and a send per outgoing
			// message; the fills; then the unpacks of all directions.
			var dirs []int
			for dir := range d.s.recvPlans {
				for range d.s.recvPlans[dir] {
					dirs = append(dirs, dir)
				}
				for _, pl := range d.s.sendPlans[dir] {
					for range len(pl.msg) + 1 {
						dirs = append(dirs, dir)
					}
				}
			}
			for dir := range d.s.recvPlans {
				for _, pl := range d.s.recvPlans[dir] {
					for range pl.msg {
						dirs = append(dirs, dir)
					}
				}
			}
			dirOf := map[uint64]int{}
			var gate uint64
			for i, tk := range log.tasks {
				switch tk.label {
				case "gate":
					gate = log.first + uint64(i)
				case "local-copy":
				default:
					dirOf[log.first+uint64(i)] = dirs[len(dirOf)]
				}
			}
			if len(dirOf) != len(dirs) || len(dirs) == 0 {
				rankFatalf(t, "rank %d: %d communication tasks, the plans make %d", c.Rank(), len(dirOf), len(dirs))
			}
			section := func(r task.Region) bool { return r >= d.slotRegs+task.Region(2*len(d.blocks)) }
			for _, e := range log.edges {
				if _, through := log.shared(e, section); through && e[0] != gate && dirOf[e[0]] != dirOf[e[1]] {
					total.Add(1)
				}
			}
			close(hold)
			if err := d.Drain(); err != nil {
				t.Error(err)
			}
			d.g.Close()
			d.s.close()
		})
		if err != nil && !t.Failed() {
			t.Fatal(err)
		}
		cross[separate] = int(total.Load())
	}
	// 16 is what the struct keys that carried the direction (or 0) gave on
	// this configuration before sections became handles.
	if cross[true] != 0 || cross[false] != 16 {
		t.Errorf("sections order %d pairs of tasks of different directions with separate buffers and %d with shared ones, want 0 and 16",
			cross[true], cross[false])
	}
}

// TestShrunkEpochKeepsNoOldDependencies rebuilds the driver's tables for a
// mesh with fewer blocks than the one before and runs a timestep's stages on
// it. The new epoch's handles index slab entries the old epoch used for
// other regions: an entry whose state survived the reset would order a new
// task after whatever task now lives in the record it names.
func TestShrunkEpochKeepsNoOldDependencies(t *testing.T) {
	w := mpi.NewWorld(cluster.MustNew(1, 2, 2), simnet.None())
	err := w.Run(func(c *mpi.Comm) {
		cfg := testConfig()
		log := &graphLog{}
		cfg.TaskObserver = func(int) task.Observer { return log }
		d, err := newDataFlowDriver(&cfg, c, nil)
		if err != nil {
			t.Error(err)
			panic(err)
		}
		must := func(err error) {
			if err != nil {
				t.Error(err)
				panic(err)
			}
		}
		stages := func() {
			for g0 := 0; g0 < cfg.Vars; g0 += cfg.CommVars {
				must(d.Communicate(1, g0, g0+cfg.CommVars))
				must(d.Compute(1, g0, g0+cfg.CommVars))
			}
			must(d.Checksum(1))
		}
		for i := 0; i <= cfg.MaxLevel; i++ {
			_, err := d.Refine(false)
			must(err)
		}
		stages() // left in flight: the refinement below drains them
		before, reserved := len(d.blocks), d.g.Reserve(0).Index()

		d.s.objs = nil // nothing marks a block any more: the mesh coarsens
		for i := 0; i < cfg.MaxLevel; i++ {
			_, err := d.Refine(false)
			must(err)
		}
		stages() // the log is written by this goroutine's spawns only
		for _, e := range log.edges {
			if _, ok := log.shared(e, func(task.Region) bool { return true }); !ok {
				t.Errorf("rank %d: task %d (%s) waits for task %d (%s), which shares no region with it", c.Rank(),
					e[1], log.tasks[e[1]-log.first].label, e[0], log.tasks[e[0]-log.first].label)
			}
		}
		edges := len(log.edges)
		must(d.Drain())
		if len(d.blocks) >= before || d.g.Reserve(0).Index() >= reserved {
			t.Errorf("rank %d: %d blocks on %d regions after %d on %d: the epoch did not shrink",
				c.Rank(), len(d.blocks), d.g.Reserve(0).Index(), before, reserved)
		}
		if edges == 0 {
			t.Errorf("rank %d: the shrunk epoch's stages have no dependence edge", c.Rank())
		}
		d.g.Close()
		d.s.close()
	})
	if err != nil && !t.Failed() {
		t.Fatal(err)
	}
}

// TestDelayedChecksumStagesOverlap is the end-to-end form of the check
// above, for the race detector: with DelayedChecksum a checksum stage does
// not drain, so over timesteps that do not refine, its local reductions are
// still in flight when the next stages are spawned.
func TestDelayedChecksumStagesOverlap(t *testing.T) {
	cfg := testConfig()
	cfg.DelayedChecksum = true
	cfg.Timesteps = 12
	if len(cfg.Groups()) < 2 {
		t.Fatalf("test configuration has %d groups, want several", len(cfg.Groups()))
	}
	ref := checksumsOf(runVariant(t, cfg, 3, RunForkJoin, nil))
	got := checksumsOf(runVariant(t, cfg, 3, RunDataFlow, nil))
	if !slices.Equal(got, ref) || len(got) == 0 {
		t.Errorf("data-flow checksums %v, fork-join %v", got, ref)
	}
}
