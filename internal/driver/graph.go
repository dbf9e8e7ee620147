package driver

import (
	"time"

	"miniamr/internal/membuf"
	"miniamr/internal/mpi"
	"miniamr/internal/sanitize"
	"miniamr/internal/tampi"
	"miniamr/internal/task"
	"miniamr/internal/trace"
)

// GraphOptions configures a GraphEngine.
type GraphOptions struct {
	// Comm is the rank's communicator; the task-aware MPI context binds
	// to it.
	Comm *mpi.Comm
	// Recorder, when non-nil, receives in-flight communication spans.
	Recorder *trace.Recorder
	// Workers is the task runtime's worker count.
	Workers int
	// DisableImmediateSuccessor turns off the runtime's immediate
	// successor scheduling policy (the paper's ablation).
	DisableImmediateSuccessor bool
	// Sanitizer, when non-nil, observes the task graph for
	// dependency races.
	Sanitizer *sanitize.Sanitizer
	// Observer, when non-nil, additionally receives the task graph's
	// lifecycle events (teed with the sanitizer's observer): a width meter,
	// or the task-graph recorder, which is a StageObserver.
	Observer task.Observer
	// ScratchLen sizes the per-worker staging buffers.
	ScratchLen int
	// Describe, when non-nil, names one of the driver's regions in words for
	// the sanitizer's reports and a StageObserver; the sanitizer calls it
	// only while a report is being built.
	Describe func(task.Region) string
}

// GraphEngine is the data-flow variant's execution engine: a task runtime
// with data dependencies, a task-aware MPI context issuing communication
// from tasks, per-worker scratch buffers, and the sanitizer/trace
// plumbing shared by every taskified application.
type GraphEngine struct {
	// X is the task-aware MPI context; stage definitions issue their
	// communication through it (X.Recv, X.Iwait, X.SendOwned, ...).
	X *tampi.Context

	rt        *task.Runtime
	san       *sanitize.DepSanitizer // nil when the sanitizer is off
	rec       *trace.Recorder
	comm      *mpi.Comm
	rank      int
	arena     *membuf.Arena
	scratches [][]float64
	accs      []task.Access // access list of the Spawn under construction

	iters        *Jobs[iteration] // ParFor's
	recvs, sends *Jobs[Message]
}

// NewGraphEngine builds the task runtime, binds the task-aware MPI
// context and allocates the per-worker scratch buffers.
func NewGraphEngine(o GraphOptions) (*GraphEngine, error) {
	opts := task.Options{
		Workers:                   o.Workers,
		DisableImmediateSuccessor: o.DisableImmediateSuccessor,
	}
	var san *sanitize.DepSanitizer
	if o.Sanitizer != nil {
		// The concrete observer is assigned only when non-nil, so the
		// runtime's nil check stays meaningful (a nil *DepSanitizer in an
		// interface would not compare equal to nil).
		san = o.Sanitizer.Observer(o.Comm.Rank())
		san.Describe = o.Describe
		opts.Observer = task.Tee(san, o.Observer)
	} else {
		opts.Observer = o.Observer
	}
	if so, ok := o.Observer.(StageObserver); ok && o.Describe != nil {
		so.Names(o.Describe)
	}
	rt, err := task.NewRuntime(opts)
	if err != nil {
		return nil, err
	}
	g := &GraphEngine{
		X:         tampi.New(o.Comm),
		rt:        rt,
		san:       san,
		rec:       o.Recorder,
		comm:      o.Comm,
		rank:      o.Comm.Rank(),
		arena:     o.Comm.World().Arena(),
		scratches: make([][]float64, o.Workers),
	}
	for i := range g.scratches {
		g.scratches[i] = g.arena.GetFloat64(o.ScratchLen)
	}
	g.iters = NewJobs(func(t *task.Task, it *iteration) { it.body(it.i, t.Worker()) })
	g.recvs, g.sends = NewJobs(g.recv), NewJobs(g.send)
	return g, nil
}

// Reserve registers n consecutive dependency regions with the task runtime
// and returns the handle of the first. Drivers reserve what a mesh epoch
// needs in one go and address it by arithmetic on indices they already have.
func (g *GraphEngine) Reserve(n int) task.Region { return g.rt.Reserve(n) }

// ResetRegions drops every region reserved so far, for a driver about to
// reserve a new epoch's. The graph must have drained.
func (g *GraphEngine) ResetRegions() { g.rt.ResetRegions() }

// Spawn submits a task with the given dependency accesses, and recycles
// the lists In/Out/InOut/Merge built for it.
func (g *GraphEngine) Spawn(label string, body func(*task.Task), accs ...task.Access) {
	g.rt.Spawn(label, body, accs...)
	g.accs = g.accs[:0]
}

// In, Out and InOut build a task's accesses on regions by handle, and Merge
// concatenates them, into one buffer the engine reuses, so declaring a
// task's accesses allocates nothing. The lists are valid until the engine's
// next Spawn or WaitKeys, which do not retain them; like Spawn they are for
// the rank's spawning goroutine only.
func (g *GraphEngine) In(regions ...task.Region) []task.Access { return g.build(task.ModeIn, regions) }

// Out is the write-access counterpart of In.
func (g *GraphEngine) Out(regions ...task.Region) []task.Access {
	return g.build(task.ModeOut, regions)
}

// InOut is the read-write counterpart of In.
func (g *GraphEngine) InOut(regions ...task.Region) []task.Access {
	return g.build(task.ModeInOut, regions)
}

func (g *GraphEngine) build(m task.Mode, regions []task.Region) []task.Access {
	from := len(g.accs)
	for _, r := range regions {
		g.accs = append(g.accs, task.Access{Region: r, Mode: m})
	}
	return g.accs[from:]
}

// Merge concatenates access lists built by In, Out and InOut.
func (g *GraphEngine) Merge(lists ...[]task.Access) []task.Access {
	from := len(g.accs)
	for _, l := range lists {
		g.accs = append(g.accs, l...)
	}
	return g.accs[from:]
}

// ParFor is LoopEngine.ParFor on the task runtime, with the tasks' label in
// front: body(i, w) for every i in [0, n) as independent tasks on worker w,
// then a global taskwait.
func (g *GraphEngine) ParFor(label string, n int, body func(i, w int)) {
	for i := 0; i < n; i++ {
		g.Spawn(label, g.iters.Body(iteration{body: body, i: i}))
	}
	g.Wait()
}

type iteration struct {
	body func(i, w int)
	i    int
}

// Message is a message task's arguments: the Secs sections from region Sec
// its buffer is cut into, peer, tag and the buffer (Buf to receive into,
// Lease to send). Blocking selects TAMPI's blocking mode, in which the task
// pauses until the transfer completes; otherwise the request is bound to it.
type Message struct {
	Sec             task.Region
	Secs, Peer, Tag int
	Buf             []float64
	Lease           *membuf.Lease
	Blocking        bool
}

// RecvBody returns a receive task's body: the readers of the sections run
// once the data arrived, so the buffer must not be consumed in the task.
func (g *GraphEngine) RecvBody(m Message) func(*task.Task) { return g.recvs.Body(m) }

// SendBody returns a send task's body, which passes the lease to the MPI
// layer (the receiving rank returns it to the arena).
func (g *GraphEngine) SendBody(m Message) func(*task.Task) { return g.sends.Body(m) }

func (g *GraphEngine) recv(t *task.Task, m *Message) {
	for i := range m.Secs {
		g.NoteWrite(t, m.Sec+task.Region(i)) // the arriving message fills every section
	}
	if m.Blocking {
		start := time.Now()
		if _, err := g.X.Recv(t, m.Buf, m.Peer, m.Tag); err != nil {
			panic(err)
		}
		g.rec.Record(g.rank, t.Worker(), "recv-wait", start, time.Now())
		return
	}
	req, err := g.comm.Irecv(m.Buf, m.Peer, m.Tag)
	if err != nil {
		panic(err)
	}
	g.recordInFlight(t, "recv-wait", req)
	g.X.Iwait(t, req)
}

func (g *GraphEngine) send(t *task.Task, m *Message) {
	for i := range m.Secs {
		g.NoteRead(t, m.Sec+task.Region(i)) // the send serialises every packed section
	}
	if m.Blocking {
		start := time.Now()
		if err := g.X.SendOwned(t, m.Lease, m.Peer, m.Tag); err != nil {
			panic(err)
		}
		g.rec.Record(g.rank, t.Worker(), "send-wait", start, time.Now())
		return
	}
	req, err := g.comm.IsendOwned(m.Lease, m.Peer, m.Tag)
	if err != nil {
		panic(err)
	}
	g.recordInFlight(t, "send-wait", req)
	g.X.Iwait(t, req)
}

// Wait blocks until every spawned task completed (a global taskwait).
func (g *GraphEngine) Wait() { g.rt.Wait() }

// WaitKeys blocks until the tasks writing the given regions completed (a
// taskwait with dependencies).
func (g *GraphEngine) WaitKeys(regions ...task.Region) {
	g.rt.WaitAccess(g.In(regions...)...)
	g.accs = g.accs[:0]
}

// SpawnCount returns the number of tasks spawned so far.
func (g *GraphEngine) SpawnCount() int { return g.rt.SpawnCount() }

// Scratch returns worker w's staging buffer.
func (g *GraphEngine) Scratch(w int) []float64 { return g.scratches[w] }

// NoteRead reports a task's actual read to the dependency-race
// sanitizer. With the sanitizer off it is a nil check.
func (g *GraphEngine) NoteRead(t *task.Task, r task.Region) {
	if g.san != nil {
		g.san.NoteRead(t, r)
	}
}

// NoteWrite reports a task's actual write to the sanitizer.
func (g *GraphEngine) NoteWrite(t *task.Task, r task.Region) {
	if g.san != nil {
		g.san.NoteWrite(t, r)
	}
}

// BindSection registers which storage a buffer-section region stands for,
// so the sanitizer can flag one buffer bound under two regions. Only
// persistent buffers should be bound: sections of per-stage arena leases are
// legitimately recycled under other regions.
func (g *GraphEngine) BindSection(r task.Region, sec []float64) {
	if g.san != nil && len(sec) > 0 {
		g.san.BindRegion(r, &sec[0])
	}
}

// ResetBindings drops the sanitizer's section bindings; applications call
// it when communication plans are rebuilt over recycled storage.
func (g *GraphEngine) ResetBindings() {
	if g.san != nil {
		g.san.ResetBindings()
	}
}

// recordInFlight traces the window from operation start to request
// completion — the in-flight communication that the data-flow model
// overlaps with computation (what the paper's Figure 3 visualises).
func (g *GraphEngine) recordInFlight(t *task.Task, label string, req *mpi.Request) {
	if g.rec == nil {
		return
	}
	rec, rank, worker := g.rec, g.rank, t.Worker()
	start := time.Now()
	req.OnComplete(func() {
		rec.Record(rank, worker, label, start, time.Now())
	})
}

// Close shuts the task runtime down and returns the pooled scratch
// buffers. Called after a successful run.
func (g *GraphEngine) Close() {
	g.rt.Shutdown()
	for _, sc := range g.scratches {
		g.arena.PutFloat64(sc)
	}
	g.scratches = nil
}
