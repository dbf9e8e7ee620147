package hydro

import (
	"math"
	"sort"

	"miniamr/internal/driver"
	"miniamr/internal/membuf"
	"miniamr/internal/mpi"
	"miniamr/internal/trace"
)

// seg describes one tile face inside an aggregated message: for a send it
// names the interior edge being packed, for a receive the ghost edge
// being filled. Both ends of a message enumerate tiles in the same global
// order, so the i-th send segment of a message always pairs with the i-th
// receive segment on the peer.
type seg struct {
	Tile int // tile id
	Side int // 0 = low edge (west/south), 1 = high edge (east/north)
}

// localCopy is a same-rank edge exchange: src's interior edge on srcSide
// fills dst's opposite ghost edge.
type localCopy struct {
	src, dst int
	srcSide  int
}

// hydroTag is the ghost-exchange tag of a direction; one aggregated
// message per peer and direction.
func hydroTag(dir int) int { return (dir + 1) << 20 }

// state is the per-rank simulation state shared by the three variants.
type state struct {
	cfg   *Config
	comm  *mpi.Comm
	rank  int
	rec   *trace.Recorder
	arena *membuf.Arena

	tnx, tny int     // tile interior extent
	stride   int     // tnx + 2, row stride of a tile plane
	plane    int     // (tny+2) * stride, one variable plane
	dx, dy   float64 // cell widths
	owner    []int   // tile id -> owning rank
	tiles    []int   // owned tile ids, ascending
	data     map[int][]float64

	// plans caches each direction's aggregated message plans and pooled
	// receive slabs (built once: the mesh never changes); locals are the
	// same-rank edge copies.
	plans  [2]driver.Plans[seg]
	locals [2][]localCopy

	oracle driver.Oracle
	dt     float64 // current CFL timestep, set by BeginStep
	flops  int64
}

// newState builds the decomposition, fills the initial condition and
// derives the communication plans. cfg must be validated.
func newState(cfg *Config, c *mpi.Comm, rec *trace.Recorder) *state {
	s := &state{
		cfg:    cfg,
		comm:   c,
		rank:   c.Rank(),
		rec:    rec,
		arena:  c.World().Arena(),
		tnx:    cfg.NX / cfg.TilesX,
		tny:    cfg.NY / cfg.TilesY,
		dx:     1.0 / float64(cfg.NX),
		dy:     1.0 / float64(cfg.NY),
		data:   make(map[int][]float64),
		oracle: driver.Oracle{Tolerance: cfg.ChecksumTolerance},
	}
	s.stride = s.tnx + 2
	s.plane = (s.tny + 2) * s.stride

	// Contiguous tile ranges per rank; the map is replicated so every
	// rank derives identical plans without communicating.
	tileCount := cfg.TilesX * cfg.TilesY
	ranks := c.Size()
	s.owner = make([]int, tileCount)
	for r := 0; r < ranks; r++ {
		for t := r * tileCount / ranks; t < (r+1)*tileCount/ranks; t++ {
			s.owner[t] = r
		}
	}
	for t, r := range s.owner {
		if r == s.rank {
			s.tiles = append(s.tiles, t)
			s.data[t] = s.arena.GetFloat64(hydroVars * s.plane)
			s.fillInitial(t)
		}
	}
	for dir := range s.plans {
		s.plans[dir].Init(s.arena)
	}
	s.buildPlans()
	return s
}

// close returns the pooled tile storage and receive slabs.
func (s *state) close() {
	for _, t := range s.tiles {
		s.arena.PutFloat64(s.data[t])
	}
	s.data = nil
	for dir := range s.plans {
		s.plans[dir].Close()
	}
}

// faceLen is the cells-per-variable length of one tile face normal to
// dir.
func (s *state) faceLen(dir int) int {
	if dir == 0 {
		return s.tny
	}
	return s.tnx
}

// hiNeighbor is the tile across t's high edge in dir, wrapping the
// periodic domain.
func (s *state) hiNeighbor(t, dir int) int {
	tx, ty := t%s.cfg.TilesX, t/s.cfg.TilesX
	if dir == 0 {
		return ty*s.cfg.TilesX + (tx+1)%s.cfg.TilesX
	}
	return ((ty+1)%s.cfg.TilesY)*s.cfg.TilesX + tx
}

// fillInitial writes the smooth periodic initial condition: a density
// and pressure ripple advected by a spatially varying bulk velocity.
func (s *state) fillInitial(t int) {
	u := s.data[t]
	g := s.cfg.Gamma
	tx, ty := t%s.cfg.TilesX, t/s.cfg.TilesX
	st, pl := s.stride, s.plane
	for j := 1; j <= s.tny; j++ {
		y := (float64(ty*s.tny+j-1) + 0.5) * s.dy
		for i := 1; i <= s.tnx; i++ {
			x := (float64(tx*s.tnx+i-1) + 0.5) * s.dx
			rho := 1 + 0.2*math.Sin(2*math.Pi*x)*math.Cos(2*math.Pi*y)
			vx := 1 + 0.1*math.Sin(2*math.Pi*y)
			vy := 0.5 + 0.1*math.Cos(2*math.Pi*x)
			p := 1 + 0.1*math.Sin(2*math.Pi*x)*math.Sin(2*math.Pi*y)
			c0 := j*st + i
			u[varRho*pl+c0] = rho
			u[varMx*pl+c0] = rho * vx
			u[varMy*pl+c0] = rho * vy
			u[varE*pl+c0] = p/(g-1) + 0.5*rho*(vx*vx+vy*vy)
		}
	}
}

// buildPlans derives both directions' aggregated message plans and local
// copies. For every global tile t (ascending) the pair (t, hiNeighbor) is
// classified once; both endpoints of a message enumerate the same tile
// order, so segment lists pair index-by-index without negotiation, and
// peers are sorted so plan order is deterministic too.
func (s *state) buildPlans() {
	tileCount := s.cfg.TilesX * s.cfg.TilesY
	for dir := 0; dir < 2; dir++ {
		face := s.faceLen(dir)
		sendSegs := make(map[int][]seg)
		recvSegs := make(map[int][]seg)
		for t := 0; t < tileCount; t++ {
			nb := s.hiNeighbor(t, dir)
			ot, on := s.owner[t], s.owner[nb]
			switch {
			case ot == s.rank && on == s.rank:
				s.locals[dir] = append(s.locals[dir],
					localCopy{src: t, dst: nb, srcSide: 1},
					localCopy{src: nb, dst: t, srcSide: 0})
			case ot == s.rank:
				// t's high edge goes out; the peer's reply fills t's
				// high ghost.
				sendSegs[on] = append(sendSegs[on], seg{Tile: t, Side: 1})
				recvSegs[on] = append(recvSegs[on], seg{Tile: t, Side: 1})
			case on == s.rank:
				sendSegs[ot] = append(sendSegs[ot], seg{Tile: nb, Side: 0})
				recvSegs[ot] = append(recvSegs[ot], seg{Tile: nb, Side: 0})
			}
		}
		peers := make([]int, 0, len(sendSegs))
		for p := range sendSegs {
			peers = append(peers, p)
		}
		sort.Ints(peers)
		for _, p := range peers {
			s.plans[dir].AddSend(driver.Plan[seg]{
				Peer: p, Tag: hydroTag(dir),
				Cells: len(sendSegs[p]) * face, Segs: sendSegs[p],
			})
			s.plans[dir].AddRecv(driver.Plan[seg]{
				Peer: p, Tag: hydroTag(dir),
				Cells: len(recvSegs[p]) * face, Segs: recvSegs[p],
			}, hydroVars)
		}
	}
}

// segBuf is segment i's section of a message payload.
func (s *state) segBuf(dir int, buf []float64, i int) []float64 {
	n := s.faceLen(dir) * hydroVars
	return buf[i*n : (i+1)*n]
}

// packSeg copies one tile's interior edge into a message section,
// variable-major.
func (s *state) packSeg(dir int, sg seg, dst []float64) {
	u := s.data[sg.Tile]
	st, pl := s.stride, s.plane
	if dir == 0 {
		i := 1
		if sg.Side == 1 {
			i = s.tnx
		}
		for v := 0; v < hydroVars; v++ {
			for j := 1; j <= s.tny; j++ {
				dst[v*s.tny+j-1] = u[v*pl+j*st+i]
			}
		}
		return
	}
	j := 1
	if sg.Side == 1 {
		j = s.tny
	}
	for v := 0; v < hydroVars; v++ {
		copy(dst[v*s.tnx:(v+1)*s.tnx], u[v*pl+j*st+1:v*pl+j*st+1+s.tnx])
	}
}

// unpackSeg fills one tile's ghost edge from a message section.
func (s *state) unpackSeg(dir int, sg seg, src []float64) {
	u := s.data[sg.Tile]
	st, pl := s.stride, s.plane
	if dir == 0 {
		i := 0
		if sg.Side == 1 {
			i = s.tnx + 1
		}
		for v := 0; v < hydroVars; v++ {
			for j := 1; j <= s.tny; j++ {
				u[v*pl+j*st+i] = src[v*s.tny+j-1]
			}
		}
		return
	}
	j := 0
	if sg.Side == 1 {
		j = s.tny + 1
	}
	for v := 0; v < hydroVars; v++ {
		copy(u[v*pl+j*st+1:v*pl+j*st+1+s.tnx], src[v*s.tnx:(v+1)*s.tnx])
	}
}

// copyLocal performs one same-rank edge exchange: src's interior edge on
// srcSide into dst's opposite ghost edge. Interior reads and ghost writes
// are disjoint, so copies never race with each other.
func (s *state) copyLocal(dir int, lc localCopy) {
	src, dst := s.data[lc.src], s.data[lc.dst]
	st, pl := s.stride, s.plane
	if dir == 0 {
		si, gi := 1, s.tnx+1
		if lc.srcSide == 1 {
			si, gi = s.tnx, 0
		}
		for v := 0; v < hydroVars; v++ {
			for j := 1; j <= s.tny; j++ {
				dst[v*pl+j*st+gi] = src[v*pl+j*st+si]
			}
		}
		return
	}
	sj, gj := 1, s.tny+1
	if lc.srcSide == 1 {
		sj, gj = s.tny, 0
	}
	for v := 0; v < hydroVars; v++ {
		copy(dst[v*pl+gj*st+1:v*pl+gj*st+1+s.tnx], src[v*pl+sj*st+1:v*pl+sj*st+1+s.tnx])
	}
}

// scratchLen sizes the per-worker flux scratch for the larger sweep
// direction.
func scratchLen(cfg *Config) int {
	mx := cfg.NX / cfg.TilesX
	if n := cfg.NY / cfg.TilesY; n > mx {
		mx = n
	}
	return hydroVars * (mx + 1)
}

// reduceAndValidate folds the rank-local conserved sums into the global
// checksum and feeds the cross-variant oracle. local is a pooled buffer
// owned by this call.
//
//amr:det
func (s *state) reduceAndValidate(local []float64) error {
	global, err := s.comm.AllreduceFloat64(local, mpi.Sum)
	s.arena.PutFloat64(local)
	if err != nil {
		return err
	}
	return s.oracle.Accept(global)
}

// reduceWave resolves the global CFL timestep from a rank-local maximum
// wave speed.
func (s *state) reduceWave(wave float64) error {
	local := s.arena.GetFloat64(1)
	local[0] = wave
	global, err := s.comm.AllreduceFloat64(local, mpi.Max)
	s.arena.PutFloat64(local)
	if err != nil {
		return err
	}
	s.dt = s.cfg.CFL / global[0]
	return nil
}
