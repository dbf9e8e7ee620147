package mpi

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"miniamr/internal/membuf"
)

// message is a payload in flight or queued at a receiver. Messages are
// recycled through msgPool once the matching engine has copied them out.
type message struct {
	src int
	tag int
	pay *membuf.Lease // transport-owned; released after copy-out
}

var msgPool = sync.Pool{New: func() any { return new(message) }}

func newMessage(src, tag int, pay *membuf.Lease) *message {
	m := msgPool.Get().(*message)
	m.src, m.tag, m.pay = src, tag, pay
	return m
}

func recycleMessage(m *message) {
	m.pay = nil
	msgPool.Put(m)
}

// recvOutcome is the completion record a blocking receive waits for.
type recvOutcome struct {
	st  Status
	err error
}

// recvWaiter parks a blocking receive without allocating a Request.
type recvWaiter struct {
	ch chan recvOutcome
}

var waiterPool = sync.Pool{New: func() any {
	return &recvWaiter{ch: make(chan recvOutcome, 1)}
}}

// postedRecv is a receive waiting for a matching message. Exactly one of
// req (non-blocking path) and waiter (blocking fast path) is set.
type postedRecv struct {
	src    int // rank or AnySource
	tag    int // tag or AnyTag
	buf    any
	req    *Request
	waiter *recvWaiter
}

var postedPool = sync.Pool{New: func() any { return new(postedRecv) }}

func newPostedRecv(src, tag int, buf any, req *Request, w *recvWaiter) *postedRecv {
	pr := postedPool.Get().(*postedRecv)
	pr.src, pr.tag, pr.buf, pr.req, pr.waiter = src, tag, buf, req, w
	return pr
}

func recyclePostedRecv(pr *postedRecv) {
	pr.buf, pr.req, pr.waiter = nil, nil, nil
	postedPool.Put(pr)
}

func (p *postedRecv) matches(src, tag int) bool {
	return (p.src == AnySource || p.src == src) && (p.tag == AnyTag || p.tag == tag)
}

// mailbox implements the classic two-queue matching algorithm: messages
// that arrive before a matching receive queue as "unexpected"; receives
// posted before a matching message queue as "posted". Scanning each queue
// in FIFO order yields MPI's non-overtaking guarantee.
type mailbox struct {
	mu         chanMutex
	unexpected []*message
	posted     []*postedRecv

	// Sanitizer hooks; nil in normal runs. Set by World.SetMonitor before
	// any traffic. The monitor is never invoked while mu is held.
	mon  Monitor
	rank int
}

func newMailbox() *mailbox { return &mailbox{mu: newChanMutex()} }

// deliver makes a message visible at this mailbox, completing the oldest
// matching posted receive if one exists.
func (b *mailbox) deliver(msg *message) {
	if b.mon != nil {
		b.mon.MessageDelivered(msg.src, b.rank, msg.tag)
	}
	b.mu.Lock()
	for i, pr := range b.posted {
		if pr.matches(msg.src, msg.tag) {
			b.posted = append(b.posted[:i], b.posted[i+1:]...)
			b.mu.Unlock()
			b.completeRecv(pr, msg)
			return
		}
	}
	b.unexpected = append(b.unexpected, msg)
	b.mu.Unlock()
}

// post registers a receive, completing it immediately against the oldest
// matching unexpected message if one exists.
func (b *mailbox) post(pr *postedRecv) {
	if b.mon != nil {
		b.mon.RecvPosted(b.rank, pr.src, pr.tag)
	}
	b.mu.Lock()
	for i, msg := range b.unexpected {
		if pr.matches(msg.src, msg.tag) {
			b.unexpected = append(b.unexpected[:i], b.unexpected[i+1:]...)
			b.mu.Unlock()
			b.completeRecv(pr, msg)
			return
		}
	}
	b.posted = append(b.posted, pr)
	b.mu.Unlock()
}

// completeRecv copies the payload out, returns it to the arena, recycles
// the transport records, and signals the receiver.
func (b *mailbox) completeRecv(pr *postedRecv, msg *message) {
	if b.mon != nil {
		b.mon.MessageMatched(b.rank, msg.src, msg.tag, pr.src, pr.tag)
	}
	count, err := copyPayload(pr.buf, msg.pay)
	st := Status{Source: msg.src, Tag: msg.tag, Count: count}
	msg.pay.Release()
	recycleMessage(msg)
	req, w := pr.req, pr.waiter
	recyclePostedRecv(pr)
	if w != nil {
		w.ch <- recvOutcome{st: st, err: err}
		return
	}
	req.complete(st, err)
}

// chanMutex is a mutex built on a channel so that lock acquisition parks
// the goroutine cooperatively; with thousands of rank goroutines on few OS
// threads this behaves better than spinning sync.Mutex under heavy
// contention and keeps the package free of lock-ordering surprises.
type chanMutex chan struct{}

func newChanMutex() chanMutex {
	m := make(chanMutex, 1)
	return m
}

func (m chanMutex) Lock()   { m <- struct{}{} }
func (m chanMutex) Unlock() { <-m }

// delayFor returns the simulated transfer time of a payload to dest.
func (c *Comm) delayFor(dest, bytes int) time.Duration {
	if c.world.net.IsZero() {
		return 0
	}
	return c.world.net.EffectiveDelay(c.world.topo.SameNode(c.rank, dest), bytes)
}

// dispatch injects an owned payload into the transport, charging the cost
// model and completing req (if non-nil) once the message is delivered to
// the destination's matching engine. Callers must have validated dest and
// tag. Ownership of pay passes to the transport here.
func (c *Comm) dispatch(pay *membuf.Lease, dest, tag, count int, req *Request) {
	if c.rel != nil {
		// Chaos enabled: route through the resilient sequence-numbered
		// path (reliable.go). One nil check is the fast path's whole cost.
		c.dispatchReliable(pay, dest, tag, count, req)
		return
	}
	bytes := leaseBytes(pay)
	c.sentMsgs.Add(1)
	c.sentBytes.Add(int64(bytes))
	if c.world.transport != nil && !c.world.IsLocal(dest) {
		// Remote destination: serialise the lease into the wire transport.
		// Monitor accounting happens at the receiving process, where the
		// message materialises (see World.RemoteDeliver), so each process's
		// sent/delivered ledger stays balanced.
		c.dispatchRemote(pay, dest, tag, count, bytes, req)
		return
	}
	if c.world.mon != nil {
		c.world.mon.MessageSent(c.rank, dest, tag)
	}
	msg := newMessage(c.rank, tag, pay)
	dstBox := c.world.comms[dest].box
	st := Status{Source: c.rank, Tag: tag, Count: count}
	if delay := c.delayFor(dest, bytes); delay > 0 {
		go func() {
			time.Sleep(delay)
			dstBox.deliver(msg)
			if req != nil {
				req.complete(st, nil)
			}
		}()
		return
	}
	// Free or sub-granularity transfer: deliver synchronously rather than
	// paying a goroutine per message.
	dstBox.deliver(msg)
	if req != nil {
		req.complete(st, nil)
	}
}

// dispatchRemote writes one plain message to the wire transport. A
// simulated interconnect cost still applies on top of the real wire time:
// a model delay defers the socket write exactly as it defers in-process
// delivery. A transport failure is fatal for the rank (the MPI job lost
// its peer), surfaced as a panic that World.Run converts into an error.
func (c *Comm) dispatchRemote(pay *membuf.Lease, dest, tag, count, bytes int, req *Request) {
	st := Status{Source: c.rank, Tag: tag, Count: count}
	if delay := c.delayFor(dest, bytes); delay > 0 {
		go func() {
			time.Sleep(delay)
			c.wireSend(pay, dest, tag, 0, false)
			pay.Release()
			if req != nil {
				req.complete(st, nil)
			}
		}()
		return
	}
	c.wireSend(pay, dest, tag, 0, false)
	pay.Release()
	if req != nil {
		req.complete(st, nil)
	}
}

// wireSend pushes one delivery attempt through the transport, borrowing
// the lease for the duration of the call. On the plain path a wire error
// is fatal: nothing will retry, so losing the message silently would
// wedge the receiver. On the reliable path a failed write is just
// another dropped attempt — the outbox retransmits exactly as for an
// injected drop — and, after the job has quiesced, a spurious
// retransmission racing transport teardown must not take the process
// down.
func (c *Comm) wireSend(pay *membuf.Lease, dest, tag, seq int, reliable bool) {
	if err := c.world.transport.Send(c.rank, dest, tag, seq, reliable, pay); err != nil && !reliable {
		panic(fmt.Sprintf("mpi: wire send %d->%d tag %d: %v", c.rank, dest, tag, err))
	}
}

// Isend starts a non-blocking send of buf to dest with the given tag. The
// buffer is copied eagerly (into a pooled arena buffer): the caller may
// reuse it as soon as Isend returns. The returned request completes when
// the message has been delivered to the destination's matching engine
// (i.e. after its simulated transfer time).
func (c *Comm) Isend(buf any, dest, tag int) (*Request, error) {
	if tag < 0 || tag >= MaxUserTag {
		return nil, fmt.Errorf("mpi: send tag %d out of range [0,%d)", tag, MaxUserTag)
	}
	return c.isend(buf, dest, tag)
}

// isend is Isend without the user-tag restriction; collectives use the
// reserved space above MaxUserTag.
func (c *Comm) isend(buf any, dest, tag int) (*Request, error) {
	if dest < 0 || dest >= c.Size() {
		return nil, fmt.Errorf("mpi: send destination %d out of range [0,%d)", dest, c.Size())
	}
	_, n, err := bufferKind(buf)
	if err != nil {
		return nil, err
	}
	req := newRequest()
	c.dispatch(clonePayload(c.world.arena, buf), dest, tag, n, req)
	return req, nil
}

// IsendOwned starts a non-blocking ownership-transfer send: the library
// takes the lease, and the receiving side returns the buffer to the arena
// after copying it out. The caller must not touch the lease or its buffer
// after a successful call. On error the caller retains ownership.
func (c *Comm) IsendOwned(pay *membuf.Lease, dest, tag int) (*Request, error) {
	if tag < 0 || tag >= MaxUserTag {
		return nil, fmt.Errorf("mpi: send tag %d out of range [0,%d)", tag, MaxUserTag)
	}
	if dest < 0 || dest >= c.Size() {
		return nil, fmt.Errorf("mpi: send destination %d out of range [0,%d)", dest, c.Size())
	}
	req := newRequest()
	c.dispatch(pay, dest, tag, pay.Len(), req)
	return req, nil
}

// SendOwned is the blocking form of IsendOwned: it returns once the
// message has been delivered to the destination's matching engine. On
// error the caller retains ownership of the lease.
func (c *Comm) SendOwned(pay *membuf.Lease, dest, tag int) error {
	if tag < 0 || tag >= MaxUserTag {
		return fmt.Errorf("mpi: send tag %d out of range [0,%d)", tag, MaxUserTag)
	}
	if dest < 0 || dest >= c.Size() {
		return fmt.Errorf("mpi: send destination %d out of range [0,%d)", dest, c.Size())
	}
	if c.delayFor(dest, leaseBytes(pay)) == 0 {
		c.dispatch(pay, dest, tag, pay.Len(), nil)
		return nil
	}
	req := newRequest()
	c.dispatch(pay, dest, tag, pay.Len(), req)
	_, err := req.Wait()
	req.Free()
	return err
}

// Irecv starts a non-blocking receive into buf from the given source
// (or AnySource) with the given tag (or AnyTag). The request completes when
// a matching message has been copied into buf; Status.Count holds the
// number of elements received.
func (c *Comm) Irecv(buf any, source, tag int) (*Request, error) {
	if tag != AnyTag && (tag < 0 || tag >= MaxUserTag) {
		return nil, fmt.Errorf("mpi: receive tag %d out of range [0,%d)", tag, MaxUserTag)
	}
	return c.irecv(buf, source, tag)
}

func (c *Comm) irecv(buf any, source, tag int) (*Request, error) {
	if source != AnySource && (source < 0 || source >= c.Size()) {
		return nil, fmt.Errorf("mpi: receive source %d out of range [0,%d)", source, c.Size())
	}
	if _, _, err := bufferKind(buf); err != nil {
		return nil, err
	}
	req := newRequest()
	if mon := c.world.mon; mon != nil {
		req.mon = mon
		req.binfo = BlockInfo{Rank: c.rank, Peer: source, Tag: tag, Op: "Request.Wait"}
	}
	c.box.post(newPostedRecv(source, tag, buf, req, nil))
	return req, nil
}

// Send is the blocking form of Isend. When the transfer is free under the
// network model it runs allocation-free: the payload clone comes from the
// arena and no Request is created.
func (c *Comm) Send(buf any, dest, tag int) error {
	if tag < 0 || tag >= MaxUserTag {
		return fmt.Errorf("mpi: send tag %d out of range [0,%d)", tag, MaxUserTag)
	}
	return c.send(buf, dest, tag)
}

// Recv is the blocking form of Irecv. It parks on a pooled waiter instead
// of allocating a Request.
func (c *Comm) Recv(buf any, source, tag int) (Status, error) {
	if tag != AnyTag && (tag < 0 || tag >= MaxUserTag) {
		return Status{}, fmt.Errorf("mpi: receive tag %d out of range [0,%d)", tag, MaxUserTag)
	}
	return c.recv(buf, source, tag)
}

// Iprobe reports, without blocking or consuming, whether a message
// matching (source, tag) — with the usual wildcards — has already arrived.
// On a match the returned status carries the message's source, tag and
// element count, so a caller can size a receive buffer first.
func (c *Comm) Iprobe(source, tag int) (bool, Status, error) {
	if source != AnySource && (source < 0 || source >= c.Size()) {
		return false, Status{}, fmt.Errorf("mpi: probe source %d out of range [0,%d)", source, c.Size())
	}
	if tag != AnyTag && (tag < 0 || tag >= MaxUserTag) {
		return false, Status{}, fmt.Errorf("mpi: probe tag %d out of range [0,%d)", tag, MaxUserTag)
	}
	probe := postedRecv{src: source, tag: tag}
	c.box.mu.Lock()
	defer c.box.mu.Unlock()
	for _, msg := range c.box.unexpected {
		if probe.matches(msg.src, msg.tag) {
			return true, Status{Source: msg.src, Tag: msg.tag, Count: msg.pay.Len()}, nil
		}
	}
	return false, Status{}, nil
}

// send is Send without the user-tag restriction.
func (c *Comm) send(buf any, dest, tag int) error {
	if dest < 0 || dest >= c.Size() {
		return fmt.Errorf("mpi: send destination %d out of range [0,%d)", dest, c.Size())
	}
	k, n, err := bufferKind(buf)
	if err != nil {
		return err
	}
	if c.delayFor(dest, n*k.elemSize()) == 0 {
		c.dispatch(clonePayload(c.world.arena, buf), dest, tag, n, nil)
		return nil
	}
	req := newRequest()
	c.dispatch(clonePayload(c.world.arena, buf), dest, tag, n, req)
	_, err = req.Wait()
	req.Free()
	return err
}

// recv is Recv without the user-tag restriction.
func (c *Comm) recv(buf any, source, tag int) (Status, error) {
	if source != AnySource && (source < 0 || source >= c.Size()) {
		return Status{}, fmt.Errorf("mpi: receive source %d out of range [0,%d)", source, c.Size())
	}
	if _, _, err := bufferKind(buf); err != nil {
		return Status{}, err
	}
	w := waiterPool.Get().(*recvWaiter)
	c.box.post(newPostedRecv(source, tag, buf, nil, w))
	var out recvOutcome
	if mon := c.world.mon; mon != nil {
		select {
		case out = <-w.ch:
		default:
			token := mon.BlockEnter(
				BlockInfo{Rank: c.rank, Peer: source, Tag: tag, Op: "Recv"},
				func(err error) {
					// Non-blocking: if the genuine outcome raced in, the
					// abort is a no-op and the receiver consumes it instead.
					select {
					case w.ch <- recvOutcome{err: err}:
					default:
					}
				})
			out = <-w.ch
			mon.BlockExit(token)
		}
	} else {
		out = <-w.ch
	}
	if errors.Is(out.err, ErrAborted) {
		// The waiter's channel could still receive a late genuine outcome;
		// keep it out of the pool so it cannot corrupt a future receive.
		return out.st, out.err
	}
	waiterPool.Put(w)
	return out.st, out.err
}
