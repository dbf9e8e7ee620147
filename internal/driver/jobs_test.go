package driver

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"

	"miniamr/internal/task"
)

// TestJobRecordsCarryTheirOwnArguments spawns a batch of tasks of one kind
// with distinct arguments in eight dependency chains, so that records come
// back out of spawn order, and then a second batch: every body must see its
// own arguments, and the second batch must run on the first one's records.
// A gate holds each batch until all of it is spawned, so all its records are
// live at once and the first batch makes as many as it spawns, rounded up to
// whole batches of records.
func TestJobRecordsCarryTheirOwnArguments(t *testing.T) {
	const n, chains = 2000, 8
	type args struct {
		i    int
		name string
		seen []int
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rt := task.MustNewRuntime(task.Options{Workers: workers})
			defer rt.Shutdown()
			first := rt.Reserve(chains)
			all := make([]task.Access, chains)
			for c := range all {
				all[c] = task.Access{Region: first + task.Region(c), Mode: task.ModeInOut}
			}
			var wrong atomic.Int32
			jobs := NewJobs(func(_ *task.Task, a *args) {
				if a.name != strconv.Itoa(a.i) {
					wrong.Add(1)
				}
				a.seen[a.i]++
			})
			for batch := 0; batch < 2; batch++ {
				gate := make(chan struct{})
				rt.Spawn("gate", func(*task.Task) { <-gate }, all...)
				seen := make([]int, n)
				for i := 0; i < n; i++ {
					rt.Spawn("job", jobs.Body(args{i: i, name: strconv.Itoa(i), seen: seen}), all[i%chains])
				}
				close(gate)
				rt.Wait()
				for i, k := range seen {
					if k != 1 {
						t.Fatalf("batch %d: task %d ran %d times", batch, i, k)
					}
				}
				if w := wrong.Load(); w != 0 {
					t.Fatalf("batch %d: %d bodies saw another task's arguments", batch, w)
				}
				jobs.mu.Lock()
				made := len(jobs.free)
				jobs.mu.Unlock()
				if want := (n + jobBatch - 1) / jobBatch * jobBatch; made != want {
					t.Fatalf("batch %d: %d records on the free list, want %d (one per live task, reused by the next batch)",
						batch, made, want)
				}
			}
		})
	}
}
