package task

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
)

// edgeLog is an Observer that records the dependence edges the runtime
// builds and which tasks have released their dependencies.
type edgeLog struct {
	edges    [][2]uint64
	finished map[uint64]bool
	done     atomic.Int64 // len(finished), readable without the runtime's lock
	resets   int
}

func (l *edgeLog) TaskSpawned(uint64, string, []Access) {}
func (l *edgeLog) TaskDependence(pred, succ uint64)     { l.edges = append(l.edges, [2]uint64{pred, succ}) }
func (l *edgeLog) TaskFinished(id uint64)               { l.finished[id] = true; l.done.Add(1) }
func (l *edgeLog) Quiesced()                            {}
func (l *edgeLog) RegionsReset()                        { l.resets++ }

// progOp is one step of a random access program: a spawn with the given
// accesses, a WaitAccess on them, or (wait) a Wait.
type progOp struct {
	accs      []progAccess
	waitAcc   bool
	waitAll   bool
	resetting bool // the Wait is followed by ResetRegions and a new reservation
}

type progAccess struct {
	region int
	mode   Mode
}

const progRegions = 6

func randomProgram(rng *rand.Rand) []progOp {
	accs := func() []progAccess {
		list := make([]progAccess, rng.Intn(5)) // up to a four-way multidependency, or none
		for i := range list {
			// Few regions: lists repeat one often, in any mix of modes.
			list[i] = progAccess{region: rng.Intn(progRegions), mode: Mode(rng.Intn(3))}
		}
		return list
	}
	prog := make([]progOp, 40+rng.Intn(40))
	for i := range prog {
		switch k := rng.Intn(20); {
		case k == 0:
			prog[i] = progOp{waitAll: true, resetting: rng.Intn(2) == 0}
		case k <= 2:
			prog[i] = progOp{waitAcc: true, accs: accs()}
		default:
			prog[i] = progOp{accs: accs()}
		}
	}
	return prog
}

// runProgram executes prog and returns the edges the runtime built. byHandle
// says, per region, whether the program names it by a reserved handle or by
// a front-door key. Tasks finish only at the program's waits — every task
// spawned so far, whatever the wait asks for — so the set of edges does not
// depend on timing.
func runProgram(t *testing.T, prog []progOp, byHandle func(region int) bool) [][2]uint64 {
	t.Helper()
	log := &edgeLog{finished: map[uint64]bool{}}
	rt := MustNewRuntime(Options{Workers: 3, Observer: log})
	defer rt.Shutdown()
	first := rt.Reserve(progRegions)
	access := func(a progAccess) Access {
		if byHandle(a.region) {
			return Access{Region: first + Region(a.region), Mode: a.mode}
		}
		return Access{Key: a.region, Mode: a.mode}
	}
	list := func(as []progAccess) []Access {
		out := make([]Access, len(as))
		for i, a := range as {
			out[i] = access(a)
		}
		return out
	}
	gate := make(chan struct{})
	spawned := int64(0)
	lastWriter := map[int]uint64{}
	release := func() { // let every task spawned so far finish
		close(gate)
		gate = make(chan struct{})
	}
	settle := func() {
		for log.done.Load() != spawned {
			runtime.Gosched()
		}
	}
	for _, op := range prog {
		switch {
		case op.waitAll:
			release()
			rt.Wait()
			if op.resetting {
				rt.ResetRegions()
				if first = rt.Reserve(progRegions); first.Generation() == 0 {
					t.Fatalf("handle %d reserved after a reset carries no generation", first)
				}
			}
		case op.waitAcc:
			release()
			rt.WaitAccess(list(op.accs)...)
			rt.mu.Lock()
			for _, a := range op.accs {
				if w, written := lastWriter[a.region]; written && !log.finished[w] {
					t.Errorf("WaitAccess on region %d returned before its writer, task %d, finished", a.region, w)
				}
			}
			rt.mu.Unlock()
			settle()
		default:
			g := gate
			rt.Spawn("t", func(*Task) { <-g }, list(op.accs)...)
			spawned++
			for _, a := range op.accs {
				if a.mode != ModeIn {
					lastWriter[a.region] = uint64(spawned)
				}
			}
		}
	}
	release()
	rt.Wait()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if byHandle(0) && byHandle(1) && len(rt.keys) != 0 {
		t.Errorf("a program of handle accesses touched the front door's table: %v", rt.keys)
	}
	return slices.Clone(log.edges)
}

// TestPropertyHandlesAndKeysBuildTheSameGraph runs seeded random access
// programs — in/out/inout, regions repeated within one list,
// multidependencies, WaitAccess mid-stream, Wait and region resets followed
// by reuse — through the front door, through reserved handles, and with
// every other region through each, and requires the same dependence edges
// of all three.
func TestPropertyHandlesAndKeysBuildTheSameGraph(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		prog := randomProgram(rand.New(rand.NewSource(seed)))
		keys := runProgram(t, prog, func(int) bool { return false })
		handles := runProgram(t, prog, func(int) bool { return true })
		mixed := runProgram(t, prog, func(r int) bool { return r%2 == 0 })
		if len(keys) == 0 {
			t.Errorf("seed %d: the program built no edge", seed)
		}
		if !slices.Equal(handles, keys) || !slices.Equal(mixed, keys) {
			t.Errorf("seed %d: edges differ\nkeys    %v\nhandles %v\nmixed   %v", seed, keys, handles, mixed)
		}
	}
}

func panicOf(f func()) (msg string) {
	defer func() { msg = fmt.Sprint(recover()) }()
	f()
	return ""
}

// A handle beyond the slab is refused by Spawn and WaitAccess before they
// change anything, so the runtime keeps working; reserved handles survive
// Wait and go only with ResetRegions, which refuses to run under tasks.
func TestRegionLifetime(t *testing.T) {
	log := &edgeLog{finished: map[uint64]bool{}}
	rt := MustNewRuntime(Options{Workers: 2, Observer: log})
	defer rt.Shutdown()
	a := rt.Reserve(3)
	if b := rt.Reserve(2); b != a+3 {
		t.Fatalf("second reservation starts at %d, want %d", b, a+3)
	}
	bad := Access{Region: a + 5, Mode: ModeOut}
	want := "task: region 5 not reserved (have 5)"
	if got := panicOf(func() { rt.Spawn("t", func(*Task) {}, Access{Region: a, Mode: ModeIn}, bad) }); got != want {
		t.Errorf("Spawn panicked with %q, want %q", got, want)
	}
	if got := panicOf(func() { rt.WaitAccess(bad) }); got != want {
		t.Errorf("WaitAccess panicked with %q, want %q", got, want)
	}
	if got := rt.SpawnCount(); got != 0 {
		t.Errorf("the refused Spawn left %d tasks behind", got)
	}

	gate := make(chan struct{})
	rt.Spawn("w", func(*Task) { <-gate }, Access{Region: a + 4, Mode: ModeOut})
	if got := panicOf(rt.ResetRegions); got != "task: ResetRegions with 1 tasks in flight" {
		t.Errorf("ResetRegions under a task panicked with %q", got)
	}
	close(gate)
	rt.Wait()
	rt.Spawn("r", func(*Task) {}, Access{Region: a + 4, Mode: ModeIn}) // still reserved after Wait
	rt.Wait()
	rt.ResetRegions()
	if got := panicOf(func() { rt.WaitAccess(Access{Region: a, Mode: ModeIn}) }); got != "task: region 0 not reserved (have 0)" {
		t.Errorf("WaitAccess on a dropped handle panicked with %q", got)
	}
	if c := rt.Reserve(1); c.Index() != 0 || c.Generation() != 1 || log.resets != 1 {
		t.Errorf("first handle after the reset is index %d generation %d after %d observed resets, want 0, 1, 1",
			c.Index(), c.Generation(), log.resets)
	}
}

// Without an observer handles are plain indices, and a slab entry reserved
// again after a reset still owns the reader list it grew.
func TestReservedEntriesKeepTheirReaderLists(t *testing.T) {
	rt := MustNewRuntime(Options{Workers: 2})
	defer rt.Shutdown()
	body := func(*Task) {}
	cycle := func() {
		r := rt.Reserve(4) + 3
		if r != 3 {
			t.Fatalf("handle %d without an observer, want the bare index 3", r)
		}
		rt.Spawn("w", body, Access{Region: r, Mode: ModeOut})
		for i := 0; i < 32; i++ {
			rt.Spawn("r", body, Access{Region: r, Mode: ModeIn})
		}
		rt.Wait()
		rt.ResetRegions()
	}
	cycle()
	if per := mallocsPer(20, cycle); per > 1 {
		t.Errorf("%.1f allocations per reserve-spawn-reset cycle, want none", per)
	}
}
