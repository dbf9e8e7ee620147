package app

import (
	"slices"
	"testing"

	"miniamr/internal/amr/comm"
	"miniamr/internal/amr/mesh"
	"miniamr/internal/cluster"
	"miniamr/internal/mpi"
	"miniamr/internal/simnet"
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
			if _, err := d.refine(advance); err != nil {
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

// TestKeysAndPlanAreWrittenOnce runs the stages of two variable groups
// back to back, as a timestep with CommVars < Vars does, and checks that later stages leave alone everything the tasks of
// earlier ones read while still in flight: the fill plan and the slots of
// the key tables already boxed. (A slot rewritten with the value it holds
// races as well, but only the race detector sees that: see
// TestDelayedChecksumStagesOverlap.)
func TestKeysAndPlanAreWrittenOnce(t *testing.T) {
	w := mpi.NewWorld(cluster.MustNew(1, 2, 2), simnet.None())
	err := w.Run(func(c *mpi.Comm) {
		cfg := testConfig()
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
		_, err = d.refine(false)
		must(err)
		if d.groups != 2 {
			rankFatalf(t, "test configuration has %d groups, want 2", d.groups)
		}
		owned := d.s.owned()
		must(d.communicate(0, 2))
		must(d.stencil(0, 2))
		d.g.Wait()
		// Group 0's tasks are done: mark what they read, so that boxing a key
		// again shows even though the new value is equal.
		type poison struct{}
		for i, bc := range owned {
			if d.own[i*d.groups] != any(blockKey{c: bc}) || d.halo[i*d.groups] != any(ghostKey{c: bc}) {
				rankFatalf(t, "rank %d: group 0 keys of %v are %#v, %#v", c.Rank(), bc, d.own[i*d.groups], d.halo[i*d.groups])
			}
			d.own[i*d.groups], d.halo[i*d.groups] = poison{}, poison{}
		}
		plan := fillPlan{
			blocks: slices.Clone(d.fill.blocks), copies: slices.Clone(d.fill.copies),
			faces: slices.Clone(d.fill.faces), srcs: slices.Clone(d.fill.srcs),
		}
		first := &d.fill.blocks[0]

		// Group 1's exchange and stencil, then a checksum stage, which reads
		// the blocks of both groups.
		must(d.communicate(2, 4))
		must(d.stencil(2, 4))
		must(d.checksum())
		must(d.drain())
		for i, bc := range owned {
			if d.own[i*d.groups] != any(poison{}) || d.halo[i*d.groups] != any(poison{}) {
				rankFatalf(t, "rank %d: a later stage rewrote a group 0 key of %v", c.Rank(), bc)
			}
			if d.own[i*d.groups+1] != any(blockKey{c: bc, g: 1}) || d.halo[i*d.groups+1] != any(ghostKey{c: bc, g: 1}) {
				rankFatalf(t, "rank %d: group 1 keys of %v are %#v, %#v", c.Rank(), bc, d.own[i*d.groups+1], d.halo[i*d.groups+1])
			}
		}
		if &d.fill.blocks[0] != first || !slices.Equal(d.fill.blocks, plan.blocks) || !slices.Equal(d.fill.copies, plan.copies) ||
			!slices.Equal(d.fill.faces, plan.faces) || !slices.Equal(d.fill.srcs, plan.srcs) {
			t.Errorf("rank %d: a later stage rebuilt the fill plan", c.Rank())
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
