package task

import (
	"sync/atomic"
	"testing"
)

// BenchmarkSpawnIndependent measures task spawn+execute+retire cost with
// no dependencies.
func BenchmarkSpawnIndependent(b *testing.B) {
	rt := MustNewRuntime(Options{Workers: 4})
	defer rt.Shutdown()
	var sink int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Spawn("t", func(*Task) { atomic.AddInt64(&sink, 1) })
	}
	rt.Wait()
}

// The dependency benchmarks below run on both entry points: through the
// front door (In/Out/InOut over keys, interned at every Spawn) and, as
// <name>Handle, on reserved region handles, which index the region slab and
// must allocate nothing. entry builds an access for either from a region
// number.
type entry func(region int, m Mode) Access

func byKey(region int, m Mode) Access { return Access{Key: region, Mode: m} }

func byHandle(rt *Runtime, regions int) entry {
	first := rt.Reserve(regions)
	return func(region int, m Mode) Access { return Access{Region: first + Region(region), Mode: m} }
}

func nop(*Task) {}

// drainEvery bounds how far a benchmark's spawning loop runs ahead of the
// workers: it waits the graph out every so many operations, which keeps the
// live task records few and recycled, so that allocs/op is what an operation
// allocates in the steady state and not the backlog's growth.
func drainEvery(rt *Runtime, i, ops int) {
	if i%ops == ops-1 {
		rt.Wait()
	}
}

// benchChain measures a fully serialised dependency chain — the worst case
// for the dependency tracker and the best case for the immediate-successor
// policy.
func benchChain(b *testing.B, opts Options, handles bool) {
	rt := MustNewRuntime(opts)
	defer rt.Shutdown()
	acc := byKey
	if handles {
		acc = byHandle(rt, 1)
	}
	chain := []Access{acc(0, ModeInOut)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Spawn("t", nop, chain...)
		drainEvery(rt, i, 1024)
	}
	rt.Wait()
}

func BenchmarkSpawnChain(b *testing.B)       { benchChain(b, Options{Workers: 4}, false) }
func BenchmarkSpawnChainHandle(b *testing.B) { benchChain(b, Options{Workers: 4}, true) }

// BenchmarkSpawnChainNoImmediateSuccessor is the ablation counterpart of
// BenchmarkSpawnChain: every link goes through the scheduler queue.
func BenchmarkSpawnChainNoImmediateSuccessor(b *testing.B) {
	benchChain(b, Options{Workers: 4, DisableImmediateSuccessor: true}, false)
}

// benchFanOut measures one writer releasing eight readers; an operation is
// the nine spawns.
func benchFanOut(b *testing.B, handles bool) {
	rt := MustNewRuntime(Options{Workers: 4})
	defer rt.Shutdown()
	acc := byKey
	if handles {
		acc = byHandle(rt, 1)
	}
	w, r := []Access{acc(0, ModeOut)}, []Access{acc(0, ModeIn)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Spawn("w", nop, w...)
		for j := 0; j < 8; j++ {
			rt.Spawn("r", nop, r...)
		}
		drainEvery(rt, i, 128)
	}
	rt.Wait()
}

func BenchmarkSpawnFanOut(b *testing.B)       { benchFanOut(b, false) }
func BenchmarkSpawnFanOutHandle(b *testing.B) { benchFanOut(b, true) }

// BenchmarkExternalEvents measures the TAMPI-style bound-event path.
func BenchmarkExternalEvents(b *testing.B) {
	rt := MustNewRuntime(Options{Workers: 4})
	defer rt.Shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Spawn("t", func(t *Task) {
			t.AddEvents(1)
			t.CompleteEvent()
		})
	}
	rt.Wait()
}

// benchMultidependency measures a task with a wide access list, the shape
// of aggregated send tasks.
func benchMultidependency(b *testing.B, handles bool) {
	rt := MustNewRuntime(Options{Workers: 4})
	defer rt.Shutdown()
	acc := byKey
	if handles {
		acc = byHandle(rt, 16)
	}
	accs := make([]Access, 16)
	for i := range accs {
		accs[i] = acc(i, ModeIn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Spawn("t", nop, accs...)
		drainEvery(rt, i, 1024)
	}
	rt.Wait()
}

func BenchmarkMultidependency(b *testing.B)       { benchMultidependency(b, false) }
func BenchmarkMultidependencyHandle(b *testing.B) { benchMultidependency(b, true) }

// benchAllToAll is Task Bench's all-to-all pattern at the benchmark's width
// (bench/micro.go, after Lahnor et al.): 16 columns, column i of step t
// writes cell (i, t mod 2) and reads every cell of step t-1, with empty
// bodies so that only the runtime is timed. An operation is one step: 16
// spawns of 17 accesses, each adding up to 16 edges.
func benchAllToAll(b *testing.B, handles bool) {
	const width = 16
	rt := MustNewRuntime(Options{Workers: 4})
	defer rt.Shutdown()
	acc := byKey
	if handles {
		acc = byHandle(rt, 2*width)
	}
	var accs [2][width][]Access
	for par := range accs {
		for i := range accs[par] {
			for j := 0; j < width; j++ {
				accs[par][i] = append(accs[par][i], acc((1-par)*width+j, ModeIn))
			}
			accs[par][i] = append(accs[par][i], acc(par*width+i, ModeOut))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for t := 0; t < b.N; t++ {
		for i := 0; i < width; i++ {
			rt.Spawn("alltoall", nop, accs[t%2][i]...)
		}
		drainEvery(rt, t, 64)
	}
	rt.Wait()
}

func BenchmarkAllToAll(b *testing.B)       { benchAllToAll(b, false) }
func BenchmarkAllToAllHandle(b *testing.B) { benchAllToAll(b, true) }

// spinSink keeps spinTask's result alive.
var spinSink atomic.Uint64

// spinTask is a body of about a microsecond: a dependent floating-point
// chain the compiler cannot shorten.
func spinTask(*Task) {
	x := 1.0
	for range 400 {
		x = x*1.0000001 + 1e-9
	}
	spinSink.Store(uint64(x))
}

// BenchmarkSpawnBackpressure streams independent tasks of about a
// microsecond from one spawner onto two workers, with no drain until the
// end: the regime of the backlog throttle, where the spawner outruns the
// cores and must give them the CPU. An operation is one task; run it with
// -benchtime 100000x.
func BenchmarkSpawnBackpressure(b *testing.B) {
	rt := MustNewRuntime(Options{Workers: 2})
	defer rt.Shutdown()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		rt.Spawn("t", spinTask)
	}
	rt.Wait()
}
