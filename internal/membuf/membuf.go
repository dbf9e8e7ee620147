// Package membuf is the buffer arena behind the zero-copy message path: a
// size-classed pool of typed scratch buffers ([]float64, []int, []byte)
// with explicit ownership transfer.
//
// The AMR hot path — ghost-face packing, message payloads, per-stage
// checksum slots, whole-block storage across refinement epochs — recycles
// buffers of a few recurring shapes at high frequency. Allocating them
// fresh makes garbage collection, not waiting semantics, dominate the
// simulated runs; production AMR/AMT runtimes all rest on explicit buffer
// ownership and reuse for exactly this reason. The arena provides:
//
//   - Get/Put pairs per element type, size-classed by rounding capacities
//     to powers of two. Get returns a slice of exactly the requested
//     length with unspecified (stale) contents; callers that need zeroed
//     storage clear it themselves.
//   - Lease, a ref-counted handle used for ownership-transfer sends: the
//     producer packs into a lease, hands it to the transport, and the
//     final consumer's Release returns the buffer to the arena. See the
//     "Buffer ownership" section in DESIGN.md for the conventions.
//   - Cache, a small single-owner front that batches Get/Put traffic of
//     one worker goroutine before it reaches the shared arena.
//   - Leak accounting: Stats counts every Get and Put, so tests can assert
//     that a full run returns every buffer it took (Live == 0).
//
// All Arena methods are safe for concurrent use. A Cache is not; it is
// meant to be owned by one worker.
package membuf

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// numClasses bounds the size classes: class c holds buffers of capacity
// 1<<c elements, so the largest pooled buffer has 2^30 elements. Larger
// requests are served by plain allocation and dropped on Put.
const numClasses = 31

// class returns the size class that serves a request of n elements: the
// smallest power-of-two exponent with 1<<c >= n.
func classFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// pool is one element type's size-classed free lists.
type pool[T any] struct {
	mu      sync.Mutex
	classes [numClasses][][]T
	// pooled, when non-nil (debug mode), holds the identity of every
	// buffer currently filed, so a double Put panics instead of handing
	// the same backing array to two future Gets.
	pooled map[*T]struct{}
}

func (p *pool[T]) get(a *Arena, n int) []T {
	a.gets.Add(1)
	if n < 0 {
		panic(fmt.Sprintf("membuf: negative buffer length %d", n))
	}
	c := classFor(n)
	if c < numClasses {
		p.mu.Lock()
		if l := len(p.classes[c]); l > 0 {
			b := p.classes[c][l-1]
			p.classes[c][l-1] = nil
			p.classes[c] = p.classes[c][:l-1]
			if p.pooled != nil {
				delete(p.pooled, &b[0:1][0])
			}
			p.mu.Unlock()
			a.hits.Add(1)
			return b[:n]
		}
		p.mu.Unlock()
		a.misses.Add(1)
		return make([]T, n, 1<<c)
	}
	a.misses.Add(1)
	return make([]T, n)
}

func (p *pool[T]) put(a *Arena, b []T) {
	a.puts.Add(1)
	p.putQuiet(b)
}

// putQuiet files a buffer without touching the counters (used when the
// buffer was already accounted as returned, e.g. by a Cache).
func (p *pool[T]) putQuiet(b []T) {
	if cap(b) == 0 {
		return
	}
	// File under the largest class the capacity fully covers, so a later
	// get from that class can always be resliced to its requested length.
	c := bits.Len(uint(cap(b))) - 1
	if c >= numClasses {
		return // outsized: let the GC have it
	}
	b = b[:0]
	p.mu.Lock()
	if p.pooled != nil {
		ptr := &b[0:1][0]
		if _, dup := p.pooled[ptr]; dup {
			p.mu.Unlock()
			panic("membuf: double Put of a buffer")
		}
		p.pooled[ptr] = struct{}{}
	}
	p.classes[c] = append(p.classes[c], b)
	p.mu.Unlock()
}

func (p *pool[T]) setDebug(on bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !on {
		p.pooled = nil
		return
	}
	p.pooled = make(map[*T]struct{})
	for _, class := range p.classes {
		for _, b := range class {
			p.pooled[&b[0:1][0]] = struct{}{}
		}
	}
}

// Arena is a shared, size-classed buffer pool with leak accounting.
// The zero value is not usable; call New.
type Arena struct {
	f64   pool[float64]
	ints  pool[int]
	bytes pool[byte]

	leasePool sync.Pool

	mon Monitor // optional sanitizer hooks; nil in normal runs

	gets, puts   atomic.Int64
	hits, misses atomic.Int64
	leasesLive   atomic.Int64
}

// Monitor observes lease lifecycle events for the runtime sanitizer: the
// sanitizer records each live lease's creation site so leaks are reported
// with a stack instead of a bare count. Implementations must be safe for
// concurrent use and must not retain l after LeaseReleased returns (the
// handle is recycled).
type Monitor interface {
	// LeaseCreated fires when a lease is handed out.
	LeaseCreated(l *Lease, kind Kind, n int)
	// LeaseReleased fires when a lease's final reference is dropped,
	// before the handle is recycled.
	LeaseReleased(l *Lease)
}

// SetMonitor attaches a lease monitor. It must be called before the arena
// is shared; every hook is nil-guarded so the unmonitored path is free.
func (a *Arena) SetMonitor(m Monitor) { a.mon = m }

// New creates an empty arena.
func New() *Arena {
	a := &Arena{}
	a.leasePool.New = func() any { return new(Lease) }
	return a
}

// SetDebug toggles double-Put detection: while on, returning the same
// buffer twice panics at the second Put instead of corrupting the free
// lists. Detection costs one map operation per Get/Put, so it is meant for
// tests and debugging runs, not the hot path.
func (a *Arena) SetDebug(on bool) {
	a.f64.setDebug(on)
	a.ints.setDebug(on)
	a.bytes.setDebug(on)
}

// GetFloat64 returns a []float64 of length n with unspecified contents.
func (a *Arena) GetFloat64(n int) []float64 { return a.f64.get(a, n) }

// PutFloat64 returns a buffer to the arena. The caller must not use the
// slice (or any alias of it) afterwards.
func (a *Arena) PutFloat64(b []float64) { a.f64.put(a, b) }

// GetInt returns a []int of length n with unspecified contents.
func (a *Arena) GetInt(n int) []int { return a.ints.get(a, n) }

// PutInt returns a buffer to the arena.
func (a *Arena) PutInt(b []int) { a.ints.put(a, b) }

// GetByte returns a []byte of length n with unspecified contents.
func (a *Arena) GetByte(n int) []byte { return a.bytes.get(a, n) }

// PutByte returns a buffer to the arena.
func (a *Arena) PutByte(b []byte) { a.bytes.put(a, b) }

// Stats is a snapshot of the arena's counters.
type Stats struct {
	// Gets and Puts count buffer acquisitions and returns. Puts may exceed
	// Gets when foreign buffers (not drawn from this arena) are donated.
	Gets, Puts int64
	// Hits and Misses split Gets by whether the free lists served them.
	Hits, Misses int64
	// Live is Gets - Puts: buffers currently checked out. A leak-free
	// workload ends with Live == 0.
	Live int64
	// LeasesLive counts leases created but not yet fully released.
	LeasesLive int64
}

// HitRate is the fraction of Gets served without allocating.
func (s Stats) HitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Gets)
}

// Stats returns a snapshot of the arena's counters.
func (a *Arena) Stats() Stats {
	g, p := a.gets.Load(), a.puts.Load()
	return Stats{
		Gets: g, Puts: p,
		Hits: a.hits.Load(), Misses: a.misses.Load(),
		Live:       g - p,
		LeasesLive: a.leasesLive.Load(),
	}
}
