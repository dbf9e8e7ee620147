package driver

import (
	"miniamr/internal/membuf"
	"miniamr/internal/task"
)

// Slabs is a set of pooled arena buffers with a common lifetime — the
// receive slabs of one communication epoch. The buffers are grabbed when
// the epoch's message plans are built and stay stable until the next
// rebuild, so per-stage hot paths reuse them without allocating.
type Slabs struct {
	arena *membuf.Arena
	bufs  [][]float64
}

// Init binds the slab set to an arena. The zero Slabs must be Init'ed
// before the first Grab.
func (s *Slabs) Init(a *membuf.Arena) { s.arena = a }

// Grab appends a pooled buffer of n float64s and returns it.
//
//amr:hot allocs=0
func (s *Slabs) Grab(n int) []float64 {
	b := s.arena.GetFloat64(n)
	s.bufs = append(s.bufs, b)
	return b
}

// Buf returns the i-th grabbed buffer.
func (s *Slabs) Buf(i int) []float64 { return s.bufs[i] }

// Len returns the number of live buffers.
func (s *Slabs) Len() int { return len(s.bufs) }

// ReleaseAll returns every buffer to the arena. Callers must have drained
// all in-flight receives first; plan rebuilds run only at quiesced points.
func (s *Slabs) ReleaseAll() {
	for _, b := range s.bufs {
		s.arena.PutFloat64(b)
	}
	s.bufs = s.bufs[:0]
}

// Plan is one precomputed message of a communication epoch: its peer,
// matching tag, payload length per variable, and the application's
// segment list describing how the payload packs and unpacks. Message
// length for a group of gv variables is Cells*gv (segment lengths are
// linear in the group width).
type Plan[S any] struct {
	Peer  int
	Tag   int
	Cells int
	Segs  []S
	// Sec is the data-flow variant's region of the message's first buffer
	// section; the other segments' follow it. The graph driver reserves them.
	Sec task.Region
}

// Plans caches one direction's send and receive message plans together
// with the pooled receive slabs backing them, derived once per epoch:
// the per-stage hot paths walk the plans without re-planning or
// allocating. Send-side slabs are not retained — each outgoing message
// packs into a fresh arena lease whose ownership transfers to the MPI
// layer (the receiver returns it).
type Plans[S any] struct {
	SendPlans []Plan[S]
	RecvPlans []Plan[S]

	recvBufs Slabs
}

// Init binds the receive slabs to an arena.
func (p *Plans[S]) Init(a *membuf.Arena) { p.recvBufs.Init(a) }

// Reset drops the plans and returns the receive slabs, ready for a
// rebuild. The comm must be quiesced.
func (p *Plans[S]) Reset() {
	p.SendPlans = p.SendPlans[:0]
	p.RecvPlans = p.RecvPlans[:0]
	p.recvBufs.ReleaseAll()
}

// AddSend appends an outgoing message plan.
func (p *Plans[S]) AddSend(pl Plan[S]) { p.SendPlans = append(p.SendPlans, pl) }

// AddRecv appends an incoming message plan and grabs its pooled receive
// slab, sized for width variables.
//
//amr:hot allocs=0
func (p *Plans[S]) AddRecv(pl Plan[S], width int) {
	p.RecvPlans = append(p.RecvPlans, pl)
	p.recvBufs.Grab(pl.Cells * width)
}

// RecvBuf returns the pooled slab backing RecvPlans[i].
func (p *Plans[S]) RecvBuf(i int) []float64 { return p.recvBufs.Buf(i) }

// Close returns the receive slabs to the arena.
func (p *Plans[S]) Close() { p.recvBufs.ReleaseAll() }
