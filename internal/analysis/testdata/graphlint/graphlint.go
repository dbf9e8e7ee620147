// Package graphcorpus seeds graphlint violations next to a clean
// exemplar pipeline. The stubs mirror the task-runtime and comm API
// shapes the extractor interprets by name; the corpus is analyzed, not
// compiled.
package graphcorpus

// --- stubs mirroring the task runtime and comm layer ---

type access struct{}

func In(keys ...any) access       { return access{} }
func Out(keys ...any) access      { return access{} }
func InOut(keys ...any) access    { return access{} }
func Merge(accs ...access) access { return access{} }

type runtime struct{}

func (r *runtime) Spawn(label string, fn func(), deps ...access) {}
func (r *runtime) WaitKeys(keys ...any)                          {}

type Op int

type Comm struct{ rank int }

func (c *Comm) Rank() int { return c.rank }

func (c *Comm) Isend(buf any, dest, tag int) error                 { return nil }
func (c *Comm) Irecv(buf any, source, tag int) error               { return nil }
func (c *Comm) AllreduceFloat64(v float64, op Op) (float64, error) { return 0, nil }

type plan struct {
	peer int
	tag  int
}

// stageKey names a per-timestep staging buffer: every write must be
// read and every read must have a producer within the timestep.
//
//amr:region stage match=idx
type stageKey struct {
	idx int
}

// gridKey names persistent block state carried across timesteps, so it
// carries no producer/consumer obligations.
//
//amr:region state
type gridKey struct {
	c int
}

// --- clean exemplar: a produce/consume pipeline and a symmetric halo ---

//amr:graph driver=clean phase=pipeline seq=1
func cleanPipeline(rt *runtime) {
	for i := 0; i < 4; i++ {
		rt.Spawn("produce", func() {}, InOut(gridKey{c: i}), Out(stageKey{idx: i}))
		rt.Spawn("consume", func() {}, In(stageKey{idx: i}))
	}
}

//amr:graph driver=clean phase=halo seq=2
func cleanHalo(c *Comm, sendPlans, recvPlans []plan) {
	for _, p := range recvPlans {
		_ = c.Irecv(nil, p.peer, p.tag)
	}
	for _, p := range sendPlans {
		_ = c.Isend(nil, p.peer, p.tag)
	}
}

// --- dropped consumer edge: a staged section nobody reads ---

//amr:graph driver=dropedge phase=pipeline seq=1
func droppedEdge(rt *runtime) {
	rt.Spawn("pack", func() {},
		Out(stageKey{idx: 0}),
		Out(stageKey{idx: 1})) // want "dead write"
	rt.Spawn("send", func() {}, In(stageKey{idx: 0}))
}

// --- regions as handle functions: a call is a term of the function's
// class, its parameters the fields; a section nobody reads is still dead ---

type region int

// section is section idx of message buffer b.
//
//amr:region stage match=b,idx
func section(b *plan, idx int) region { return region(b.tag + idx) }

// cells is block i's persistent state.
//
//amr:region state
func (r *runtime) cells(i int) region { return region(i) }

//amr:graph driver=handles phase=pipeline seq=1
func handlePipeline(rt *runtime, sendPlans, recvPlans []plan) {
	for i := range sendPlans {
		pl := &sendPlans[i]
		rt.Spawn("pack", func() {}, In(rt.cells(i)), Out(section(pl, 0)))
		rt.Spawn("send", func() {}, In(section(pl, 0)))
	}
	for i := range recvPlans {
		pl := &recvPlans[i]
		rt.Spawn("recv", func() {}, Out(section(pl, 0)))  // want "dead write"
		rt.Spawn("unpack", func() {}, In(section(pl, 1)), // want "read-before-write"
			InOut(rt.cells(i)))
	}
}

// --- orphan in: a staged section read before anything writes it ---

//amr:graph driver=rbw phase=pipeline seq=1
func readBeforeWrite(rt *runtime) {
	rt.Spawn("unpack", func() {},
		In(stageKey{idx: 2})) // want "read-before-write"
}

// --- broken halo symmetry: the send tags are shifted off the recvs ---

//amr:graph driver=symmetry phase=halo seq=1
func brokenSymmetry(c *Comm, sendPlans, recvPlans []plan) {
	for _, p := range recvPlans {
		_ = c.Irecv(nil, p.peer, p.tag) // want "no matching send"
	}
	for _, p := range sendPlans {
		_ = c.Isend(nil, p.peer, p.tag+1) // want "no matching receive"
	}
}

// --- rank-dependent collective path: rank 0 returns before the reduce ---

//amr:graph driver=collseq phase=reduce seq=1
func collseqDiverges(c *Comm, v float64) (float64, error) {
	if c.Rank() == 0 { // want "collective sequence diverges across rank paths"
		return v, nil
	}
	return c.AllreduceFloat64(v, 0)
}

// --- directive misuse ---

//amr:graph driver=dupseq phase=alpha seq=1
func dupSeqAlpha(rt *runtime) {
	rt.Spawn("alpha", func() {}, InOut(gridKey{c: 0}))
}

//amr:graph driver=dupseq phase=beta seq=1
func dupSeqBeta(rt *runtime) { // want "duplicate //amr:graph seq=1"
	rt.Spawn("beta", func() {}, InOut(gridKey{c: 0}))
}

//amr:graph phase=orphan
func malformedAnchor(rt *runtime) { // want "malformed //amr:graph directive"
	rt.Spawn("orphan", func() {}, InOut(gridKey{c: 0}))
}

// badKey is missing the region kind.
//
//amr:region bogus
type badKey struct { // want "malformed //amr:region directive"
	v int
}

//amr:region
func badRegion(i int) region { return region(i) } // want "malformed //amr:region directive"
