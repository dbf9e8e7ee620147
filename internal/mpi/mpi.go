// Package mpi implements the message-passing library the reproduction runs
// on: a faithful subset of MPI semantics with ranks hosted as goroutine
// groups inside a single process.
//
// Provided semantics, mirroring what miniAMR and the paper's taskification
// rely on:
//
//   - Point-to-point sends and receives with (source, tag) matching,
//     AnySource/AnyTag wildcards, and MPI's non-overtaking guarantee:
//     messages between a sender/receiver pair that match the same receive
//     are matched in the order they were sent.
//   - Non-blocking operations returning *Request, with Wait, Test, Waitany
//     and Waitall, plus completion callbacks and bindings (Bind is the
//     hook the Task-Aware MPI layer builds on).
//   - Collectives (Barrier, Bcast, Reduce, Allreduce, Gather, Allgatherv)
//     built over binomial trees in a reserved tag space.
//   - MPI_THREAD_MULTIPLE-style thread safety for point-to-point calls:
//     any goroutine of a rank may send and receive concurrently.
//     Collectives must be called in the same order on every rank and from
//     one goroutine per rank at a time, exactly as MPI requires.
//
// Transport is a memory copy with an optional simulated interconnect cost
// (see internal/simnet): a message becomes matchable at the receiver only
// after its simulated transfer time elapses, and its send request completes
// at the same moment. The zero-cost model delivers synchronously.
//
// Supported buffer element types are []float64, []int and []byte.
package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"miniamr/internal/cluster"
	"miniamr/internal/membuf"
	"miniamr/internal/simnet"
)

// Wildcards for Irecv/Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// MaxUserTag is the exclusive upper bound for application tags. Tags at or
// above this value are reserved for collectives.
const MaxUserTag = 1 << 24

// World is a virtual MPI job: a set of ranks that can exchange messages.
// A world normally hosts every rank of its topology in-process; a world
// built with NewWorldPart hosts only ranks [lo, hi) and reaches the rest
// through its wire transport (see transport.go).
type World struct {
	topo      *cluster.Topology
	net       simnet.Model
	comms     []*Comm
	arena     *membuf.Arena
	lo, hi    int       // local rank range; [0, Ranks) for in-process worlds
	transport Transport // nil for in-process worlds
	mon       Monitor   // optional sanitizer hooks; nil in normal runs

	// Chaos state (see reliable.go); all nil/zero unless EnableChaos ran.
	faults *simnet.Injector
	resil  Resilience
	fmon   FaultMonitor // monitor's optional fault-awareness, set by SetMonitor
	chaos  chaosCounters
}

// NewWorld creates a world with one communicator handle per rank described
// by the topology, charging message costs according to the model.
func NewWorld(topo *cluster.Topology, net simnet.Model) *World {
	n := topo.Ranks()
	w := &World{topo: topo, net: net, arena: membuf.New(), lo: 0, hi: n}
	w.comms = make([]*Comm, n)
	for r := 0; r < n; r++ {
		w.comms[r] = &Comm{world: w, rank: r, box: newMailbox()}
	}
	return w
}

// Topology returns the cluster topology the world was built on.
func (w *World) Topology() *cluster.Topology { return w.topo }

// Net returns the interconnect model in use.
func (w *World) Net() simnet.Model { return w.net }

// Arena returns the world's buffer arena. The transport draws its payload
// clones from it, and the application layers share it for scratch and
// ownership-transfer sends so a run's buffer traffic is accounted in one
// place.
func (w *World) Arena() *membuf.Arena { return w.arena }

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.comms) }

// Comm returns the communicator handle of the given rank, which must be
// hosted in this process.
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= len(w.comms) {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", rank, len(w.comms)))
	}
	if w.comms[rank] == nil {
		panic(fmt.Sprintf("mpi: rank %d is hosted by another process (local range [%d,%d))", rank, w.lo, w.hi))
	}
	return w.comms[rank]
}

// Run executes body once per local rank, each on its own goroutine, and
// blocks until every local rank returns. A panic inside a rank is recovered
// and returned as an error naming the rank; if any rank panics while others
// are blocked in communication the job cannot terminate, matching the
// behaviour of a real MPI job whose peer died (tests will hit their timeout
// and dump goroutines). On a partial world only ranks [lo, hi) run here;
// the peer processes run the rest.
func (w *World) Run(body func(c *Comm)) error {
	var wg sync.WaitGroup
	errs := make([]error, len(w.comms))
	for r := w.lo; r < w.hi; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			if w.mon != nil {
				defer w.mon.RankDone(rank)
			}
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, p)
				}
			}()
			body(w.comms[rank])
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Comm is one rank's handle to the world. All point-to-point methods are
// safe for concurrent use by multiple goroutines of the rank.
type Comm struct {
	world *World
	rank  int
	box   *mailbox
	rel   *relComm // reliable-transport state; nil unless chaos is enabled

	// Collectives deliberately hold collMu across their blocking
	// sends/recvs: the lock serialises collectives within the rank while
	// progress is driven by the peer ranks' mailboxes, never by another
	// goroutine of this rank needing collMu.
	//amr:nolint conc-block-under-lock -- collectives block under collMu by design; peer ranks drive progress, no same-rank goroutine contends for it
	collMu  sync.Mutex // serialises collectives within the rank
	collSeq int        // per-rank collective sequence number

	sentMsgs  atomic.Int64 // point-to-point messages sent (user + internal)
	sentBytes atomic.Int64
}

// CommStats is a snapshot of a rank's send-side communication counters,
// the numbers behind miniAMR's performance report.
type CommStats struct {
	// Messages is the number of point-to-point sends issued (collective
	// traffic included, since collectives are built on point-to-point).
	Messages int64
	// Bytes is the total payload volume of those sends.
	Bytes int64
}

// Stats returns the rank's communication counters so far.
func (c *Comm) Stats() CommStats {
	return CommStats{Messages: c.sentMsgs.Load(), Bytes: c.sentBytes.Load()}
}

// Rank returns this communicator's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return len(c.world.comms) }

// World returns the world this communicator belongs to.
func (c *Comm) World() *World { return c.world }

// Status describes a completed receive.
type Status struct {
	Source int // rank the message came from
	Tag    int // tag the message carried
	Count  int // number of elements received
}
