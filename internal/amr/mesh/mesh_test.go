package mesh

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"miniamr/internal/amr/grid"
)

func uniform(t *testing.T, root [3]int, maxLevel int) *Mesh {
	t.Helper()
	m, err := NewUniform(Config{Root: root, MaxLevel: maxLevel}, func(Coord) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Root: [3]int{1, 1, 1}, MaxLevel: 3}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := (Config{Root: [3]int{0, 1, 1}}).Validate(); err == nil {
		t.Error("zero root accepted")
	}
	if err := (Config{Root: [3]int{1, 1, 1}, MaxLevel: -1}).Validate(); err == nil {
		t.Error("negative max level accepted")
	}
}

func TestCoordHierarchy(t *testing.T) {
	c := Coord{Level: 2, X: 5, Y: 2, Z: 7}
	p := c.Parent()
	if p != (Coord{Level: 1, X: 2, Y: 1, Z: 3}) {
		t.Errorf("Parent = %v", p)
	}
	for o := 0; o < 8; o++ {
		ch := p.Child(o)
		if ch.Octant() != o {
			t.Errorf("octant round trip: child %d reports %d", o, ch.Octant())
		}
		if ch.Parent() != p {
			t.Errorf("child %d parent mismatch", o)
		}
	}
	if c.Octant() != (5&1)|(2&1)<<1|(7&1)<<2 {
		t.Errorf("Octant = %d", c.Octant())
	}
}

func TestCoordLessTotalOrder(t *testing.T) {
	cs := []Coord{
		{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}, {0, 0, 0, 0},
	}
	sortCoords(cs)
	want := []Coord{{0, 0, 0, 0}, {0, 0, 0, 1}, {0, 0, 1, 0}, {0, 1, 0, 0}, {1, 0, 0, 0}}
	for i := range cs {
		if cs[i] != want[i] {
			t.Fatalf("sorted = %v", cs)
		}
	}
}

func TestBoundsAndCenter(t *testing.T) {
	cfg := Config{Root: [3]int{2, 1, 1}, MaxLevel: 3}
	lo, hi := cfg.Bounds(Coord{Level: 0, X: 1, Y: 0, Z: 0})
	if lo[0] != 0.5 || hi[0] != 1 || lo[1] != 0 || hi[1] != 1 {
		t.Errorf("bounds = %v %v", lo, hi)
	}
	// Level-1 block: x extent 4, so block 2 covers [0.5, 0.75].
	lo, hi = cfg.Bounds(Coord{Level: 1, X: 2, Y: 0, Z: 0})
	if lo[0] != 0.5 || hi[0] != 0.75 {
		t.Errorf("level-1 bounds = %v %v", lo, hi)
	}
	c := cfg.Center(Coord{Level: 0, X: 0, Y: 0, Z: 0})
	if c[0] != 0.25 || c[1] != 0.5 || c[2] != 0.5 {
		t.Errorf("center = %v", c)
	}
	w := cfg.CellWidth(Coord{Level: 0, X: 0, Y: 0, Z: 0}, grid.Size{X: 4, Y: 2, Z: 2})
	if w[0] != 0.125 || w[1] != 0.5 || w[2] != 0.5 {
		t.Errorf("cell width = %v", w)
	}
}

func TestUniformMesh(t *testing.T) {
	m := uniform(t, [3]int{2, 3, 4}, 2)
	if m.Len() != 24 {
		t.Errorf("Len = %d, want 24", m.Len())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if len(m.Leaves()) != 24 || len(m.Owned(0)) != 24 || m.OwnedCount(0) != 24 {
		t.Error("leaf enumeration mismatch")
	}
	if m.OwnedCount(1) != 0 {
		t.Error("rank 1 should own nothing")
	}
}

func TestNeighborsSameLevelAndBoundary(t *testing.T) {
	m := uniform(t, [3]int{2, 2, 2}, 2)
	c := Coord{Level: 0, X: 0, Y: 0, Z: 0}
	var nb [4]Neighbor
	ns, err := m.Neighbors(c, grid.DirX, grid.High, &nb)
	if err != nil || len(ns) != 1 || ns[0].Rel != Same || ns[0].Coord != (Coord{0, 1, 0, 0}) {
		t.Errorf("same-level neighbor: %v %v", ns, err)
	}
	ns, err = m.Neighbors(c, grid.DirX, grid.Low, &nb)
	if err != nil || ns != nil {
		t.Errorf("domain boundary: %v %v", ns, err)
	}
}

// refineOne splits a single leaf in place for test setups.
func refineOne(t *testing.T, m *Mesh, c Coord) {
	t.Helper()
	plan, err := m.PlanRefinement(map[Coord]int8{c: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Apply(plan)
}

func TestNeighborsAcrossLevels(t *testing.T) {
	m := uniform(t, [3]int{2, 1, 1}, 2)
	refineOne(t, m, Coord{Level: 0, X: 1, Y: 0, Z: 0})
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	coarse := Coord{Level: 0, X: 0, Y: 0, Z: 0}

	// Coarse block looking +x: four finer neighbours, each with its
	// quarter-face quadrant.
	var nb [4]Neighbor
	ns, err := m.Neighbors(coarse, grid.DirX, grid.High, &nb)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 4 {
		t.Fatalf("finer neighbours = %d, want 4", len(ns))
	}
	seen := map[[2]int]Coord{}
	for _, n := range ns {
		if n.Rel != Finer {
			t.Errorf("rel = %v", n.Rel)
		}
		if n.Coord.Level != 1 || n.Coord.X != 2 {
			t.Errorf("finer neighbour coord %v: children facing -x must have X=2", n.Coord)
		}
		seen[[2]int{n.Qu, n.Qw}] = n.Coord
	}
	if len(seen) != 4 {
		t.Errorf("quadrants not distinct: %v", seen)
	}
	// Quadrant (qu, qw) corresponds to in-plane (y, z) low bits.
	if c, ok := seen[[2]int{1, 0}]; !ok || c.Y != 1 || c.Z != 0 {
		t.Errorf("quadrant (1,0) = %v", seen[[2]int{1, 0}])
	}

	// Fine block looking -x: one coarser neighbour with our quadrant.
	fine := Coord{Level: 1, X: 2, Y: 1, Z: 1}
	ns, err = m.Neighbors(fine, grid.DirX, grid.Low, &nb)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 1 || ns[0].Rel != Coarser || ns[0].Coord != coarse {
		t.Fatalf("coarser neighbour: %v", ns)
	}
	if ns[0].Qu != 1 || ns[0].Qw != 1 {
		t.Errorf("coarser quadrant = (%d,%d), want (1,1)", ns[0].Qu, ns[0].Qw)
	}

	// Fine block looking +x within the refined region: same-level sibling.
	ns, err = m.Neighbors(Coord{Level: 1, X: 2, Y: 0, Z: 0}, grid.DirX, grid.High, &nb)
	if err != nil || len(ns) != 1 || ns[0].Rel != Same {
		t.Errorf("sibling neighbour: %v %v", ns, err)
	}

	// The result lives in the caller's array: walking faces allocates nothing.
	if n := testing.AllocsPerRun(100, func() {
		for _, side := range [2]grid.Side{grid.Low, grid.High} {
			if _, err := m.Neighbors(coarse, grid.DirX, side, &nb); err != nil {
				t.Error(err)
			}
		}
	}); n != 0 {
		t.Errorf("Neighbors allocates %v objects per walk, want 0", n)
	}
}

func TestPlanRefineEnforces2to1(t *testing.T) {
	// Refine one corner block twice; the second refinement must force the
	// adjacent block to refine too.
	m := uniform(t, [3]int{2, 1, 1}, 3)
	refineOne(t, m, Coord{Level: 0, X: 0, Y: 0, Z: 0})
	// Now refine the level-1 leaf touching the coarse right block.
	plan, err := m.PlanRefinement(map[Coord]int8{{Level: 1, X: 1, Y: 0, Z: 0}: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The level-0 right block must be forced to level 1.
	if got := plan.Target[Coord{Level: 0, X: 1, Y: 0, Z: 0}]; got != 1 {
		t.Errorf("2:1 propagation: right block target = %d, want 1", got)
	}
	m.Apply(plan)
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPlanCoarsenRequiresFullOctet(t *testing.T) {
	m := uniform(t, [3]int{1, 1, 1}, 2)
	refineOne(t, m, Coord{Level: 0, X: 0, Y: 0, Z: 0})
	if m.Len() != 8 {
		t.Fatalf("Len = %d", m.Len())
	}
	// Only 7 of 8 siblings want to coarsen: nothing may coarsen.
	marks := map[Coord]int8{}
	parent := Coord{Level: 0, X: 0, Y: 0, Z: 0}
	for o := 0; o < 7; o++ {
		marks[parent.Child(o)] = -1
	}
	plan, err := m.PlanRefinement(marks)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Coarsens) != 0 {
		t.Errorf("partial octet coarsened: %v", plan.Coarsens)
	}
	// All 8 agree: coarsen happens.
	marks[parent.Child(7)] = -1
	plan, err = m.PlanRefinement(marks)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Coarsens) != 1 || plan.Coarsens[0] != parent {
		t.Errorf("Coarsens = %v", plan.Coarsens)
	}
	m.Apply(plan)
	if m.Len() != 1 {
		t.Errorf("Len after coarsen = %d, want 1", m.Len())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPlanCoarsenBlockedBy2to1(t *testing.T) {
	// A refined octet next to a doubly-refined region cannot coarsen where
	// it would create a level jump of two.
	m := uniform(t, [3]int{2, 1, 1}, 3)
	refineOne(t, m, Coord{Level: 0, X: 0, Y: 0, Z: 0})
	refineOne(t, m, Coord{Level: 0, X: 1, Y: 0, Z: 0})
	// Refine the level-1 blocks of the right half adjacent to the left half.
	marks := map[Coord]int8{}
	for _, c := range m.Leaves() {
		if c.Level == 1 && c.X == 2 {
			marks[c] = 1
		}
	}
	plan, err := m.PlanRefinement(marks)
	if err != nil {
		t.Fatal(err)
	}
	m.Apply(plan)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Now ask the left octet to coarsen to level 0: it borders level-2
	// leaves, so the plan must refuse.
	marks = map[Coord]int8{}
	for _, c := range m.Leaves() {
		if c.Level == 1 && c.X <= 1 {
			marks[c] = -1
		}
	}
	plan, err = m.PlanRefinement(marks)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Coarsens) != 0 {
		t.Errorf("coarsening created a 2-level jump: %v", plan.Coarsens)
	}
}

func TestPlanMarksClampedAtBounds(t *testing.T) {
	m := uniform(t, [3]int{1, 1, 1}, 1)
	// Level 0 cannot coarsen.
	plan, err := m.PlanRefinement(map[Coord]int8{{0, 0, 0, 0}: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Coarsens) != 0 || len(plan.Refines) != 0 {
		t.Error("root block changed level despite bounds")
	}
	// Refine to max level, then further marks are clamped.
	refineOne(t, m, Coord{0, 0, 0, 0})
	marks := map[Coord]int8{}
	for _, c := range m.Leaves() {
		marks[c] = 1
	}
	plan, err = m.PlanRefinement(marks)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Refines) != 0 {
		t.Errorf("refined past MaxLevel: %v", plan.Refines)
	}
}

func TestCoarsenMoves(t *testing.T) {
	m := uniform(t, [3]int{1, 1, 1}, 1)
	refineOne(t, m, Coord{0, 0, 0, 0})
	// Scatter owners: octant 0 on rank 0, octants 1-7 on rank o%3.
	parent := Coord{0, 0, 0, 0}
	for o := 1; o < 8; o++ {
		m.SetOwner(parent.Child(o), o%3)
	}
	marks := map[Coord]int8{}
	for _, c := range m.Leaves() {
		marks[c] = -1
	}
	plan, err := m.PlanRefinement(marks)
	if err != nil {
		t.Fatal(err)
	}
	moves := plan.CoarsenMoves(m)
	// Children 3 and 6 are on rank 0 (o%3==0) already; 1,2,4,5,7 must move.
	if len(moves) != 5 {
		t.Fatalf("moves = %v, want 5 moves", moves)
	}
	for _, mv := range moves {
		if mv.To != 0 {
			t.Errorf("move target %d, want 0", mv.To)
		}
		if mv.From == 0 {
			t.Errorf("unnecessary move of %v", mv.Block)
		}
	}
}

func TestOwnershipAfterApply(t *testing.T) {
	m := uniform(t, [3]int{2, 1, 1}, 1)
	m.SetOwner(Coord{0, 1, 0, 0}, 3)
	refineOne(t, m, Coord{0, 1, 0, 0})
	for o := 0; o < 8; o++ {
		child := Coord{0, 1, 0, 0}.Child(o)
		if m.Owner(child) != 3 {
			t.Errorf("child %v owner = %d, want inherited 3", child, m.Owner(child))
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	m := uniform(t, [3]int{1, 1, 1}, 1)
	c := m.Clone()
	refineOne(t, c, Coord{0, 0, 0, 0})
	if m.Len() != 1 || c.Len() != 8 {
		t.Error("clone not independent")
	}
}

func TestTotalCells(t *testing.T) {
	m := uniform(t, [3]int{2, 1, 1}, 1)
	if got := m.TotalCells(grid.Size{X: 4, Y: 4, Z: 4}); got != 128 {
		t.Errorf("TotalCells = %d, want 128", got)
	}
}

func TestRelString(t *testing.T) {
	if Same.String() != "same" || Finer.String() != "finer" || Coarser.String() != "coarser" {
		t.Error("Rel strings")
	}
}

// Property: arbitrary mark sequences over several epochs keep every mesh
// invariant intact, and plans are deterministic.
func TestPropertyRandomEpochsKeepInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Root: [3]int{rng.Intn(2) + 1, rng.Intn(2) + 1, 1}, MaxLevel: rng.Intn(3) + 1}
		m, err := NewUniform(cfg, func(Coord) int { return 0 })
		if err != nil {
			return false
		}
		for epoch := 0; epoch < 4; epoch++ {
			marks := map[Coord]int8{}
			for _, c := range m.Leaves() {
				marks[c] = int8(rng.Intn(3) - 1)
			}
			planA, err := m.PlanRefinement(marks)
			if err != nil {
				return false
			}
			planB, err := m.PlanRefinement(marks)
			if err != nil {
				return false
			}
			if len(planA.Refines) != len(planB.Refines) || len(planA.Coarsens) != len(planB.Coarsens) {
				return false // nondeterministic plan
			}
			m.Apply(planA)
			if err := m.CheckInvariants(); err != nil {
				t.Logf("seed %d epoch %d: %v", seed, epoch, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLevelHistogram(t *testing.T) {
	m := uniform(t, [3]int{2, 1, 1}, 2)
	refineOne(t, m, Coord{Level: 0, X: 0, Y: 0, Z: 0})
	hist := m.LevelHistogram()
	if len(hist) != 2 || hist[0] != 1 || hist[1] != 8 {
		t.Errorf("histogram = %v, want [1 8]", hist)
	}
}

func TestRankHistogram(t *testing.T) {
	m := uniform(t, [3]int{2, 1, 1}, 1)
	m.SetOwner(Coord{Level: 0, X: 1}, 1)
	hist := m.RankHistogram(3)
	if hist[0] != 1 || hist[1] != 1 || hist[2] != 0 {
		t.Errorf("rank histogram = %v", hist)
	}
}

func TestRenderSlice(t *testing.T) {
	m := uniform(t, [3]int{2, 1, 1}, 2)
	refineOne(t, m, Coord{Level: 0, X: 0, Y: 0, Z: 0})
	out := m.RenderSlice(0.25, false)
	if !strings.Contains(out, "mesh slice") {
		t.Fatal("header missing")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// 2x1x1 roots at max level 1 -> 4x2 cells: header + 2 rows of 4 chars.
	if len(lines) != 3 || len(lines[1]) != 4 {
		t.Fatalf("unexpected shape: %q", out)
	}
	// Left half refined (level 1), right half coarse (level 0).
	if lines[1][:2] != "11" || lines[1][2:] != "00" {
		t.Errorf("slice rows = %v", lines[1:])
	}
	// No cell may remain uncovered.
	if strings.Contains(out, "?") {
		t.Error("uncovered cells in slice render")
	}
	// Owner view renders rank characters.
	m.SetOwner(Coord{Level: 0, X: 1}, 1)
	if got := m.RenderSlice(0.25, true); !strings.Contains(got, "1") {
		t.Error("owner view missing rank digit")
	}
	// Out-of-range fractions clamp instead of panicking.
	_ = m.RenderSlice(-3, false)
	_ = m.RenderSlice(7, false)
}
