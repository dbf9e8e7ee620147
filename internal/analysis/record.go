package analysis

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"miniamr/internal/cluster"
	"miniamr/internal/driver"
	"miniamr/internal/mpi"
	"miniamr/internal/simnet"
	"miniamr/internal/task"
	"miniamr/internal/trace"
)

// This file records a driver's task graph from a real run: the runtime
// builds the graph from the accesses each task declares, and the recorder
// watches it do so through the hooks every run already has.
//
//   - task.Observer (Config.TaskObserver): every task's label and declared
//     accesses, in spawn order, and every taskwait with its accesses. The
//     driver's region namer (GraphOptions.Describe) names each region; its
//     first word is the region's class.
//   - mpi.Monitor (World.SetMonitor): point-to-point sends and receives and
//     the collectives, per rank.
//   - trace spans: the loop drivers' parallel-region iterations.
//   - a driver.Hooks wrapper: the phase boundaries. It drains the graph at
//     the end of every phase, so a message that a task sends or receives is
//     counted in the phase that spawned the task; the graph itself does not
//     change, spawns and declarations being program order.

// Recording is one driver run whose graph is recorded: an application's
// variant on a small fixed in-process configuration.
type Recording struct {
	// Name is the graph's name, the golden it is filed under.
	Name string
	// App is the registered application (driver.Apps).
	App     string
	Variant driver.Variant
	// Ranks run in one process on one node, with Workers cores each.
	Ranks, Workers int
	// Profiles lists the worker counts the performance profile is
	// evaluated at: a loop graph is both loop variants, the MPI-only rank
	// at one worker and the fork-join rank at more.
	Profiles []int
	// Phases, when set, keeps only these phases of the run.
	Phases []string
	// Job builds the application's job with observe as its per-rank task
	// observer factory (Config.TaskObserver).
	Job func(observe func(rank int) task.Observer) driver.Job
}

// Record runs r and returns its graph with the graphlint findings of the
// run. The error reports a run that failed.
func Record(r Recording) (*Graph, []Finding, error) {
	rec := &recorder{tr: trace.NewRecorder(), sends: map[[3]int]int{}, recvs: map[[3]int]int{}}
	for rank := 0; rank < r.Ranks; rank++ {
		rec.ranks = append(rec.ranks, &rankLog{rank: rank, rec: rec, invs: []invocation{{phase: "setup"}}})
	}
	program, err := r.Job(func(rank int) task.Observer { return rec.ranks[rank] }).Bind(r.Variant, r.Workers, nil)
	if err != nil {
		return nil, nil, err
	}
	w := mpi.NewWorld(cluster.MustNew(1, r.Ranks, r.Workers), simnet.None())
	w.SetMonitor(rec)
	if err := w.Run(func(c *mpi.Comm) {
		if _, err := program(c, rec.tr); err != nil {
			panic(err)
		}
	}); err != nil {
		return nil, nil, fmt.Errorf("recording %s: %w", r.Name, err)
	}
	if r.Variant != driver.DataFlow {
		rec.addSpans()
	}
	g, findings := build(r, rec)
	return g, findings, nil
}

// recorder is the run's mpi.Monitor and holds the per-rank logs.
type recorder struct {
	ranks []*rankLog
	tr    *trace.Recorder

	mu           sync.Mutex
	sends, recvs map[[3]int]int // (src, dest, tag) -> count, from both ends
}

// event is one main-goroutine step of a rank, in program order: a spawned
// task, a taskwait, a collective, or a region reset.
type event struct {
	kind  string // "task", "wait", "collective", "reset"
	label string
	inv   int // index of the phase invocation
	accs  []regAccess
	runs  int // par events: the iterations form this many parallel regions
	count int // par events: iterations
}

// regAccess is one recorded access: its region and the region's class.
type regAccess struct {
	mode   task.Mode
	region task.Region
	class  string
}

// invocation is one call of a stage hook on a rank. A pass is one trip
// through the pipeline: it ends when a phase is not later in the hooks'
// order than the one before it.
type invocation struct {
	phase        string
	pass         int
	sends, recvs int
}

// phaseOrder is the pipeline order of the stage hooks, driver.Loop's.
var phaseOrder = []string{"setup", "begin-step", "communicate", "compute", "checksum", "quiesce", "refine", "drain"}

func phaseSeq(name string) int {
	for i, p := range phaseOrder {
		if p == name {
			return i
		}
	}
	return len(phaseOrder)
}

// rankLog is one rank's task observer and stage-hook wrapper.
type rankLog struct {
	rank int
	rec  *recorder
	name func(task.Region) string

	mu     sync.Mutex // monitor events arrive from task goroutines
	invs   []invocation
	events []event
}

// TaskSpawned implements task.Observer.
func (l *rankLog) TaskSpawned(id uint64, label string, accs []task.Access) {
	kind := "task"
	if id == 0 {
		kind = "wait"
	}
	ev := event{kind: kind, label: label}
	for _, a := range accs {
		ev.accs = append(ev.accs, regAccess{mode: a.Mode, region: a.Region, class: l.class(a)})
	}
	l.add(ev)
}

// class is the first word of the region's name.
func (l *rankLog) class(a task.Access) string {
	name := "region"
	switch {
	case a.Key != nil:
		name = fmt.Sprint(a.Key)
	case l.name != nil:
		name = l.name(a.Region)
	}
	if f := strings.Fields(name); len(f) > 0 {
		return f[0]
	}
	return "region"
}

func (l *rankLog) add(ev event) {
	l.mu.Lock()
	ev.inv = len(l.invs) - 1
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

// TaskDependence implements task.Observer. The recorded edges come from
// the access lists, not from the runtime's edges, which leave out
// predecessors that already finished.
func (l *rankLog) TaskDependence(uint64, uint64) {}

// TaskFinished implements task.Observer.
func (l *rankLog) TaskFinished(uint64) {}

// Quiesced implements task.Observer.
func (l *rankLog) Quiesced() {}

// RegionsReset implements task.Observer: the handles name new regions from
// here on.
func (l *rankLog) RegionsReset() { l.add(event{kind: "reset"}) }

// Names implements driver.StageObserver.
func (l *rankLog) Names(name func(task.Region) string) { l.name = name }

// Stages implements driver.StageObserver.
func (l *rankLog) Stages(h driver.Hooks) driver.Hooks { return &stageHooks{h: h, l: l} }

func (l *rankLog) enter(phase string) {
	l.mu.Lock()
	last := l.invs[len(l.invs)-1]
	pass := last.pass
	if phaseSeq(phase) <= phaseSeq(last.phase) {
		pass++
	}
	l.invs = append(l.invs, invocation{phase: phase, pass: pass})
	l.mu.Unlock()
}

func (l *rankLog) p2p(send bool) {
	l.mu.Lock()
	inv := &l.invs[len(l.invs)-1]
	if send {
		inv.sends++
	} else {
		inv.recvs++
	}
	l.mu.Unlock()
}

// stageHooks marks the phase boundaries of one rank's main loop.
type stageHooks struct {
	h driver.Hooks
	l *rankLog
}

// phase runs one hook as the named phase, drains what it spawned, and
// leaves a span over the phase on worker -1 of the trace, which places the
// loop drivers' region spans.
func (s *stageHooks) phase(name string, hook func() error) error {
	s.l.enter(name)
	start := time.Now()
	err := hook()
	if err == nil && name != "quiesce" && name != "drain" {
		err = s.h.Quiesce()
	}
	s.l.rec.tr.Record(s.l.rank, -1, name, start, time.Now())
	return err
}

func (s *stageHooks) BeginStep(ts int) error {
	return s.phase("begin-step", func() error { return s.h.BeginStep(ts) })
}

func (s *stageHooks) Communicate(stage, g0, g1 int) error {
	return s.phase("communicate", func() error { return s.h.Communicate(stage, g0, g1) })
}

func (s *stageHooks) Compute(stage, g0, g1 int) error {
	return s.phase("compute", func() error { return s.h.Compute(stage, g0, g1) })
}

func (s *stageHooks) Checksum(stage int) error {
	return s.phase("checksum", func() error { return s.h.Checksum(stage) })
}

func (s *stageHooks) Quiesce() error { return s.phase("quiesce", s.h.Quiesce) }

func (s *stageHooks) Refine(advance bool) (changed bool, err error) {
	err = s.phase("refine", func() (err error) {
		changed, err = s.h.Refine(advance)
		return err
	})
	return changed, err
}

func (s *stageHooks) Drain() error { return s.phase("drain", s.h.Drain) }

// MessageSent implements mpi.Monitor. Collectives' own messages carry tags
// past MaxUserTag and are counted as the collectives they are.
func (r *recorder) MessageSent(src, dest, tag int) {
	if tag >= mpi.MaxUserTag {
		return
	}
	r.ranks[src].p2p(true)
	r.mu.Lock()
	r.sends[[3]int{src, dest, tag}]++
	r.mu.Unlock()
}

// RecvPosted implements mpi.Monitor.
func (r *recorder) RecvPosted(rank, src, tag int) {
	if tag >= mpi.MaxUserTag {
		return
	}
	r.ranks[rank].p2p(false)
	r.mu.Lock()
	r.recvs[[3]int{src, rank, tag}]++
	r.mu.Unlock()
}

// CollectiveEnter implements mpi.Monitor; ranks enter collectives from
// their main goroutines.
func (r *recorder) CollectiveEnter(rank int, name, op string, root, count, seq int) {
	if op != "" {
		name += "(" + op + ")"
	}
	r.ranks[rank].add(event{kind: "collective", label: name})
}

// MessageDelivered implements mpi.Monitor.
func (r *recorder) MessageDelivered(src, dest, tag int) {}

// MessageMatched implements mpi.Monitor.
func (r *recorder) MessageMatched(dest, src, tag, postedSrc, postedTag int) {}

// BlockEnter implements mpi.Monitor.
func (r *recorder) BlockEnter(mpi.BlockInfo, func(error)) uint64 { return 0 }

// BlockExit implements mpi.Monitor.
func (r *recorder) BlockExit(uint64) {}

// RankDone implements mpi.Monitor.
func (r *recorder) RankDone(int) {}

// addSpans turns a loop run's region spans into "par" events: per phase
// invocation and label, the iterations and the parallel regions they form.
// The loop graphs are recorded on one worker, where a rank's spans follow
// each other in program order; a region is a run of consecutive spans of
// one label, so the master's own spans (one per wait or transfer) are
// regions of one.
func (r *recorder) addSpans() {
	byRank := make([][]trace.Event, len(r.ranks))
	for _, e := range r.tr.Events() {
		byRank[e.Rank] = append(byRank[e.Rank], e)
	}
	for rank, evs := range byRank {
		l := r.ranks[rank]
		inv := 0 // the setup invocation
		type key struct {
			inv   int
			label string
		}
		par := map[key]*event{}
		var order []key
		prev := key{}
		for _, e := range evs {
			if e.Worker < 0 {
				inv++ // the wrapper's span over invocation inv
				continue
			}
			k := key{inv, e.Label}
			ev := par[k]
			if ev == nil {
				ev = &event{kind: "par", label: e.Label, inv: inv}
				par[k] = ev
				order = append(order, k)
			}
			ev.count++
			if k != prev {
				ev.runs++
			}
			prev = k
		}
		for _, k := range order {
			l.events = append(l.events, *par[k])
		}
	}
}
