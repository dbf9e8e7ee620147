package task

import "slices"

// WidthMeter is an Observer that measures the dynamic concurrency width
// of a task graph: the high-water mark of the ready set — tasks whose
// predecessors have all finished but which have not themselves finished,
// i.e. everything the scheduler could legally run at one instant. The
// ready set is always an antichain of the dependence DAG, so the
// high-water mark is the empirical counterpart of the cost model's
// MaxWidth (internal/analysis) and must stay at or below the MaxWidth of
// the graph recorded at the same configuration. A taskwait, reported with
// id 0, is not a task and is not counted.
//
// Callbacks arrive serialised under the runtime's lock, so the meter needs
// no lock of its own; read the results only after Wait or Shutdown returned.
//
// The meter deliberately samples on dependence and finish events, not on
// spawns: a task's edges arrive immediately after its spawn under the
// same lock hold, so sampling at spawn would briefly count a dependent
// task as ready. The measurement is therefore a lower bound on the true
// ready-set maximum — safe on both sides of the model comparison.
type WidthMeter struct {
	pending map[uint64]int      // task -> unfinished predecessor count
	succs   map[uint64][]uint64 // finished-notification fan-out
	ready   int
	hwm     int
	spawned int
}

// NewWidthMeter returns an empty meter, ready to be passed as
// task.Options.Observer (or teed alongside a sanitizer with Tee).
func NewWidthMeter() *WidthMeter {
	return &WidthMeter{pending: map[uint64]int{}, succs: map[uint64][]uint64{}}
}

// TaskSpawned implements Observer.
func (m *WidthMeter) TaskSpawned(id uint64, label string, accs []Access) {
	if id == 0 {
		return
	}
	m.pending[id] = 0
	m.ready++
	m.spawned++
}

// TaskDependence implements Observer. The runtime reports edges only
// from unfinished predecessors, so every edge gates the successor.
func (m *WidthMeter) TaskDependence(pred, succ uint64) {
	if _, live := m.pending[pred]; !live {
		return
	}
	m.succs[pred] = append(m.succs[pred], succ)
	m.pending[succ]++
	if m.pending[succ] == 1 {
		m.ready--
	}
	m.hwm = max(m.hwm, m.ready)
}

// TaskFinished implements Observer.
func (m *WidthMeter) TaskFinished(id uint64) {
	m.hwm = max(m.hwm, m.ready) // the finishing task still holds its slot
	m.ready--
	for _, s := range m.succs[id] {
		m.pending[s]--
		if m.pending[s] == 0 {
			m.ready++
		}
	}
	delete(m.succs, id)
	delete(m.pending, id)
	m.hwm = max(m.hwm, m.ready)
}

// Quiesced implements Observer.
func (m *WidthMeter) Quiesced() {}

// RegionsReset implements Observer.
func (m *WidthMeter) RegionsReset() {}

// HighWater returns the ready-set high-water mark observed so far.
func (m *WidthMeter) HighWater() int { return m.hwm }

// Spawned returns the number of tasks observed.
func (m *WidthMeter) Spawned() int { return m.spawned }

// Tee fans lifecycle events out to several observers in argument order,
// dropping nil entries. One live observer is returned unwrapped and none
// gives nil, preserving the runtime's observer-is-nil fast path.
func Tee(obs ...Observer) Observer {
	live := slices.DeleteFunc(slices.Clone(obs), func(o Observer) bool { return o == nil })
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return tee(live)
}

type tee []Observer

func (t tee) TaskSpawned(id uint64, label string, accs []Access) {
	for _, o := range t {
		o.TaskSpawned(id, label, accs)
	}
}

func (t tee) TaskDependence(pred, succ uint64) {
	for _, o := range t {
		o.TaskDependence(pred, succ)
	}
}

func (t tee) TaskFinished(id uint64) {
	for _, o := range t {
		o.TaskFinished(id)
	}
}

func (t tee) Quiesced() {
	for _, o := range t {
		o.Quiesced()
	}
}

func (t tee) RegionsReset() {
	for _, o := range t {
		o.RegionsReset()
	}
}
