package sanitize

import (
	"fmt"
	"slices"
	"sync"

	"miniamr/internal/task"
)

// DepSanitizer is the per-rank dependency-race checker. It implements
// task.Observer to mirror the dependency graph (declared access sets,
// edges, completions), and exposes NoteRead/NoteWrite for task bodies to
// report the regions they actually touch and BindRegion for drivers to
// register which storage a region stands for. Its shadow state is indexed
// by region handle, like the runtime's own.
//
// The happens-before oracle is exact for the runtime's semantics: task A
// is ordered before task B iff there is a chain from A to B of dependence
// edges and finished-before-spawned links (a task that fully finished
// before another was spawned is ordered with it through the runtime's
// lock). Conflicting accesses by unordered tasks are reportable: since
// correctly declared conflicts always produce an ordering edge, any
// unordered conflict involves an undeclared access.
type DepSanitizer struct {
	s    *Sanitizer
	rank int

	// Describe, when set before the runtime starts, names a reserved region
	// in words; it is called only while a report is being built. Regions
	// interned from front-door keys print as the key.
	Describe func(task.Region) string

	mu      sync.Mutex
	seq     uint64 // logical clock over spawn/finish events
	gen     uint8  // the runtime's reset generation: counts RegionsReset
	tasks   map[uint64]*taskRec
	regions []regionRec // by handle index, grown on demand
	binds   map[*float64]regionBind
}

type taskRec struct {
	label    string
	declared []task.Access
	preds    []uint64
	birthSeq uint64
	finSeq   uint64 // 0 while running
}

// onlyIn reports whether rec declared region r, and as in every time:
// repeated declarations fold into their union, so in+out behaves as inout.
func (rec *taskRec) onlyIn(r task.Region) bool {
	declared := false
	for _, a := range rec.declared {
		if a.Region == r {
			if a.Mode != task.ModeIn {
				return false
			}
			declared = true
		}
	}
	return declared
}

type regionAccess struct {
	id    uint64
	write bool
}

// regionRec is the shadow of one region: the front-door key it was interned
// for, if any, and the accesses noted since the last write ordered after
// everything before it.
type regionRec struct {
	key  any
	accs []regionAccess
}

type regionBind struct {
	key  any // a task.Region, or whatever a direct caller binds under
	site string
}

func newDepSanitizer(s *Sanitizer, rank int) *DepSanitizer {
	return &DepSanitizer{
		s:     s,
		rank:  rank,
		tasks: make(map[uint64]*taskRec),
		binds: make(map[*float64]regionBind),
	}
}

// region returns the shadow of r, growing the table to hold it. Caller
// holds ds.mu.
func (ds *DepSanitizer) region(r task.Region) *regionRec {
	if i := r.Index(); i >= len(ds.regions) {
		ds.regions = append(ds.regions, make([]regionRec, i+1-len(ds.regions))...)
	}
	return &ds.regions[r.Index()]
}

// name renders a region key for a report. Caller holds ds.mu.
func (ds *DepSanitizer) name(key any) string {
	r, ok := key.(task.Region)
	switch {
	case !ok:
		return fmt.Sprintf("%v", key)
	case ds.region(r).key != nil:
		return fmt.Sprintf("%v", ds.region(r).key)
	case ds.Describe != nil:
		return ds.Describe(r)
	}
	return fmt.Sprintf("region %d", r.Index())
}

// TaskSpawned implements task.Observer. A taskwait (id 0) runs no body, so
// it has nothing to check.
func (ds *DepSanitizer) TaskSpawned(id uint64, label string, accs []task.Access) {
	if id == 0 {
		return
	}
	ds.mu.Lock()
	ds.seq++
	ds.tasks[id] = &taskRec{label: label, declared: slices.Clone(accs), birthSeq: ds.seq}
	var stale []task.Region
	for _, a := range accs {
		if a.Key != nil {
			ds.region(a.Region).key = a.Key
		} else if a.Region.Generation() != ds.gen {
			stale = append(stale, a.Region)
		}
	}
	gen := ds.gen
	ds.mu.Unlock()
	for _, r := range stale {
		ds.s.report(
			fmt.Sprintf("stale-region|%d|%d|%s", ds.rank, r, label),
			Report{
				Check: KindStaleRegion,
				Rank:  ds.rank,
				Task:  label,
				Key:   fmt.Sprintf("region %d", r.Index()),
				Msg: fmt.Sprintf(
					"handle of reset generation %d declared after the runtime's regions were reset (now generation %d): it names whatever was reserved at its index since",
					r.Generation(), gen),
				Stack: captureStack(2),
			})
	}
}

// TaskDependence implements task.Observer.
func (ds *DepSanitizer) TaskDependence(pred, succ uint64) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if rec, ok := ds.tasks[succ]; ok {
		rec.preds = append(rec.preds, pred)
	}
}

// TaskFinished implements task.Observer.
func (ds *DepSanitizer) TaskFinished(id uint64) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if rec, ok := ds.tasks[id]; ok {
		ds.seq++
		rec.finSeq = ds.seq
	}
}

// Quiesced implements task.Observer: everything before the quiescent
// point is ordered against everything after it, so the epoch's shadow
// state can be dropped, bounding memory across refinement epochs.
func (ds *DepSanitizer) Quiesced() {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.tasks = make(map[uint64]*taskRec)
	for i := range ds.regions {
		ds.regions[i].accs = ds.regions[i].accs[:0]
	}
	clear(ds.binds)
}

// RegionsReset implements task.Observer: the interned names go with the
// handles, and current handles carry the next generation.
func (ds *DepSanitizer) RegionsReset() {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.gen++
	for i := range ds.regions {
		ds.regions[i].key = nil
	}
}

// NoteRead reports that the task is reading a region: key is its
// task.Region handle, or the front-door key the task's runtime interns.
func (ds *DepSanitizer) NoteRead(t *task.Task, key any) { ds.note(t, key, false) }

// NoteWrite reports that the task is writing a region, named like NoteRead's.
func (ds *DepSanitizer) NoteWrite(t *task.Task, key any) { ds.note(t, key, true) }

func (ds *DepSanitizer) note(t *task.Task, key any, write bool) {
	id := t.ID()
	r, byHandle := key.(task.Region)
	if !byHandle {
		r = t.Intern(key) // takes the runtime's lock: before ds.mu, as in TaskSpawned
	}
	ds.mu.Lock()
	rec, ok := ds.tasks[id]
	if !ok {
		// Task predates the current epoch's records (spawned before the
		// observer attached); nothing sound can be said about it.
		ds.mu.Unlock()
		return
	}
	rr := ds.region(r)
	if !byHandle {
		rr.key = key
	}
	if write {
		if rec.onlyIn(r) {
			name := ds.name(r)
			ds.mu.Unlock()
			ds.s.report(
				fmt.Sprintf("write-via-in|%d|%s|%s", ds.rank, name, rec.label),
				Report{
					Check: KindWriteViaIn,
					Rank:  ds.rank,
					Task:  rec.label,
					Key:   name,
					Msg:   "task writes a region it declared only as in; successors may read it unordered",
					Stack: captureStack(2),
				})
			ds.mu.Lock()
			rr = ds.region(r) // the table may have grown meanwhile
		}
	}
	for _, pa := range rr.accs {
		if pa.id == id && pa.write == write {
			ds.mu.Unlock()
			return // already recorded and checked
		}
	}
	races := 0
	var raceWith []regionAccess
	for _, pa := range rr.accs {
		if pa.id == id {
			continue
		}
		if ds.orderedLocked(pa.id, id) {
			continue
		}
		// Unordered: only conflicting pairs (at least one write) are
		// violations, but unordered read-read pairs block pruning below.
		races++
		if pa.write || write {
			raceWith = append(raceWith, pa)
		}
	}
	if write && races == 0 {
		// This write is ordered after every recorded access, so by
		// transitivity any later access ordered with it is ordered with
		// them too: the region's history collapses to this single write.
		// This keeps shadow lists O(accessors per stage) and the
		// happens-before queries shallow.
		rr.accs = append(rr.accs[:0], regionAccess{id: id, write: true})
	} else {
		rr.accs = append(rr.accs, regionAccess{id: id, write: write})
	}
	// Snapshot the labels before dropping the lock to report.
	type racePair struct{ a, b string }
	var pairs []racePair
	for _, pa := range raceWith {
		other := ds.tasks[pa.id]
		if other == nil {
			continue
		}
		pairs = append(pairs, racePair{a: other.label, b: rec.label})
	}
	var name string
	if len(pairs) > 0 {
		name = ds.name(r)
	}
	ds.mu.Unlock()
	for _, p := range pairs {
		ds.s.report(
			fmt.Sprintf("dep-race|%d|%s|%s|%s", ds.rank, name, p.a, p.b),
			Report{
				Check: KindDepRace,
				Rank:  ds.rank,
				Task:  rec.label,
				Key:   name,
				Msg: fmt.Sprintf(
					"conflicting access with concurrently-schedulable task %q is not covered by declared dependencies", p.a),
				Stack: captureStack(2),
			})
	}
}

// orderedLocked reports whether task a is ordered before task b: a chain
// of dependence edges and finished-before-spawned links leads from a to
// b. Caller holds ds.mu. The search walks b's graph ancestors; at each
// ancestor x the finished-before-spawned link from a is tested, which
// covers chains mixing both link kinds (an all-edge prefix from a only
// lowers a's finish sequence further below x's birth).
func (ds *DepSanitizer) orderedLocked(a, b uint64) bool {
	ra := ds.tasks[a]
	if ra == nil {
		// Unknown predecessor: it was spawned in a previous epoch, which
		// the quiescent point ordered before everything current.
		return true
	}
	// Breadth-first over b's ancestors: correctly declared conflicts make
	// a a direct (or near-direct) predecessor, so the common query
	// terminates after one layer instead of exploring a whole ancestor
	// cone depth-first.
	visited := map[uint64]bool{b: true}
	queue := []uint64{b}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if x == a {
			return true
		}
		rx := ds.tasks[x]
		if rx == nil {
			continue
		}
		if ra.finSeq != 0 && ra.finSeq < rx.birthSeq {
			return true
		}
		for _, p := range rx.preds {
			if !visited[p] {
				visited[p] = true
				queue = append(queue, p)
			}
		}
	}
	return false
}

// BindRegion registers that a region — key is its task.Region handle, or
// any comparable name a direct caller uses — stands for the storage that
// starts at base. Binding one base under two distinct keys within a binding
// scope is a key-aliasing violation: tasks addressing the same data through
// different regions are never ordered by the graph.
func (ds *DepSanitizer) BindRegion(key any, base *float64) {
	ds.mu.Lock()
	prev, ok := ds.binds[base]
	if !ok {
		ds.binds[base] = regionBind{key: key, site: captureStack(1)}
		ds.mu.Unlock()
		return
	}
	if prev.key == key {
		ds.mu.Unlock()
		return
	}
	was, now := ds.name(prev.key), ds.name(key)
	ds.mu.Unlock()
	ds.s.report(
		fmt.Sprintf("key-alias|%d|%s|%s", ds.rank, was, now),
		Report{
			Check: KindKeyAlias,
			Rank:  ds.rank,
			Key:   now,
			Msg: fmt.Sprintf(
				"region already bound under distinct key %s; tasks using the two keys are never ordered", was),
			Stack: captureStack(1),
		})
}

// ResetBindings opens a new binding scope. Drivers call it when the
// storage behind their regions may legitimately be recycled (a new exchange
// round drawing fresh arena buffers); aliasing is only meaningful among
// simultaneously-live regions.
func (ds *DepSanitizer) ResetBindings() {
	ds.mu.Lock()
	clear(ds.binds)
	ds.mu.Unlock()
}
