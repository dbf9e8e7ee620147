package driver

import (
	"sync"

	"miniamr/internal/task"
)

// Jobs recycles the bodies of one kind of task, so that spawning one
// allocates nothing in the steady state (a closure per spawn is a heap
// object per task). A record holds the kind's arguments as a plain struct
// and a body bound to the record when it is first made; the body runs the
// kind's function on the arguments and, last, puts the record back. Body is
// for the spawning goroutine; the free list is a mutex-guarded stack, no
// slower here than a sync.Pool and not emptied by a collection.
type Jobs[A any] struct {
	run  func(*task.Task, *A)
	mu   sync.Mutex
	free []*job[A]
}

type job[A any] struct {
	args A
	body func(*task.Task)
}

// NewJobs returns an empty free list of records whose bodies call run.
func NewJobs[A any](run func(t *task.Task, args *A)) *Jobs[A] { return &Jobs[A]{run: run} }

// Body takes a record, copies args in and returns its body, for one Spawn.
func (j *Jobs[A]) Body(args A) func(*task.Task) {
	j.mu.Lock()
	var rec *job[A]
	if n := len(j.free); n > 0 {
		rec, j.free = j.free[n-1], j.free[:n-1]
	}
	j.mu.Unlock()
	if rec == nil {
		rec = j.grow()
	}
	rec.args = args
	return rec.body
}

// grow refills the empty free list with a batch of records: one allocation
// for the batch and one for each record's body, made once and recycled from
// then on. It stays out of line, off Body's steady-state path.
//
//go:noinline
func (j *Jobs[A]) grow() *job[A] {
	recs := make([]job[A], jobBatch)
	for i := range recs {
		rec := &recs[i]
		rec.body = func(t *task.Task) {
			j.run(t, &rec.args)
			var zero A
			rec.args = zero // keep no buffer or block reachable
			j.mu.Lock()
			j.free = append(j.free, rec)
			j.mu.Unlock()
		}
	}
	j.mu.Lock()
	for i := 1; i < len(recs); i++ {
		j.free = append(j.free, &recs[i])
	}
	j.mu.Unlock()
	return &recs[0]
}

// jobBatch is how many records grow makes at once.
const jobBatch = 32
