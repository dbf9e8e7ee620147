package tampi

import (
	"sync/atomic"
	"testing"
	"time"

	"miniamr/internal/cluster"
	"miniamr/internal/mpi"
	"miniamr/internal/simnet"
	"miniamr/internal/task"
)

func newWorld(ranks int, net simnet.Model) *mpi.World {
	return mpi.NewWorld(cluster.MustNew(1, ranks, 1), net)
}

func TestIrecvBindingDelaysSuccessor(t *testing.T) {
	// The canonical TAMPI pattern from the paper's Algorithm 3: a receive
	// task binds the request; the consumer (unpack) task depends on the
	// buffer and must only run after the data actually arrived.
	net := simnet.Model{InterNodeLatency: 5 * time.Millisecond}
	w := mpi.NewWorld(cluster.MustNew(2, 1, 1), net)
	err := w.Run(func(c *mpi.Comm) {
		switch c.Rank() {
		case 0:
			time.Sleep(2 * time.Millisecond)
			if err := c.Send([]float64{3.25}, 1, 0); err != nil {
				t.Errorf("send: %v", err)
			}
		case 1:
			rt := task.MustNewRuntime(task.Options{Workers: 2})
			defer rt.Shutdown()
			x := New(c)
			buf := make([]float64, 1)
			var consumed float64
			rt.Spawn("recv", func(tk *task.Task) {
				if err := x.Irecv(tk, buf, 0, 0); err != nil {
					t.Errorf("irecv: %v", err)
				}
				// Task body returns immediately; data must NOT be consumed here.
			}, task.Out("buf")...)
			rt.Spawn("unpack", func(*task.Task) {
				consumed = buf[0]
			}, task.In("buf")...)
			rt.Wait()
			if consumed != 3.25 {
				t.Errorf("consumer saw %v, want 3.25 (ran before message arrival?)", consumed)
			}
			if err := x.Err(); err != nil {
				t.Errorf("async error: %v", err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendCompletesTaskAfterWire(t *testing.T) {
	net := simnet.Model{InterNodeLatency: 5 * time.Millisecond}
	w := mpi.NewWorld(cluster.MustNew(2, 1, 1), net)
	err := w.Run(func(c *mpi.Comm) {
		switch c.Rank() {
		case 0:
			rt := task.MustNewRuntime(task.Options{Workers: 1})
			defer rt.Shutdown()
			x := New(c)
			var sendDone, succStarted time.Time
			rt.Spawn("send", func(tk *task.Task) {
				if err := x.Isend(tk, []float64{1}, 1, 0); err != nil {
					t.Errorf("isend: %v", err)
				}
				sendDone = time.Now()
			}, task.In("payload")...)
			rt.Spawn("reuse", func(*task.Task) {
				succStarted = time.Now()
			}, task.Out("payload")...)
			rt.Wait()
			if gap := succStarted.Sub(sendDone); gap < 3*time.Millisecond {
				t.Errorf("successor started %v after send body; binding should delay it ~5ms", gap)
			}
		case 1:
			buf := make([]float64, 1)
			if _, err := c.Recv(buf, 0, 0); err != nil {
				t.Errorf("recv: %v", err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIwaitMultipleRequests(t *testing.T) {
	w := newWorld(2, simnet.None())
	err := w.Run(func(c *mpi.Comm) {
		switch c.Rank() {
		case 0:
			time.Sleep(time.Millisecond)
			for tag := 0; tag < 3; tag++ {
				if err := c.Send([]int{tag * 10}, 1, tag); err != nil {
					t.Errorf("send: %v", err)
				}
			}
		case 1:
			rt := task.MustNewRuntime(task.Options{Workers: 2})
			defer rt.Shutdown()
			x := New(c)
			bufs := make([][]int, 3)
			var sum int64
			rt.Spawn("recv-all", func(tk *task.Task) {
				var reqs []*mpi.Request
				for tag := 0; tag < 3; tag++ {
					bufs[tag] = make([]int, 1)
					req, err := c.Irecv(bufs[tag], 0, tag)
					if err != nil {
						t.Errorf("irecv: %v", err)
						return
					}
					reqs = append(reqs, req)
				}
				x.Iwait(tk, reqs...)
			}, task.Out("bufs")...)
			rt.Spawn("sum", func(*task.Task) {
				for _, b := range bufs {
					atomic.AddInt64(&sum, int64(b[0]))
				}
			}, task.In("bufs")...)
			rt.Wait()
			if sum != 30 {
				t.Errorf("sum = %d, want 30", sum)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIwaitNilAndEmpty(t *testing.T) {
	w := newWorld(1, simnet.None())
	err := w.Run(func(c *mpi.Comm) {
		rt := task.MustNewRuntime(task.Options{Workers: 1})
		defer rt.Shutdown()
		x := New(c)
		rt.Spawn("noop", func(tk *task.Task) {
			x.Iwait(tk)           // no requests
			x.Iwait(tk, nil, nil) // nil requests
		})
		rt.Wait()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBlockingRecvSuspendsNotBlocks(t *testing.T) {
	// One virtual core: while a task blocks in Recv, another task must be
	// able to run — and in fact must be the one that triggers the send.
	w := newWorld(2, simnet.None())
	err := w.Run(func(c *mpi.Comm) {
		switch c.Rank() {
		case 0:
			buf := make([]int, 1)
			if _, err := c.Recv(buf, 1, 0); err != nil { // wait for the nudge
				t.Errorf("recv nudge: %v", err)
			}
			if err := c.Send([]int{buf[0] * 2}, 1, 1); err != nil {
				t.Errorf("send reply: %v", err)
			}
		case 1:
			rt := task.MustNewRuntime(task.Options{Workers: 1})
			defer rt.Shutdown()
			x := New(c)
			var got int
			rt.Spawn("blocking-recv", func(tk *task.Task) {
				buf := make([]int, 1)
				st, err := x.Recv(tk, buf, 0, 1)
				if err != nil {
					t.Errorf("tampi recv: %v", err)
					return
				}
				if st.Count != 1 {
					t.Errorf("count = %d", st.Count)
				}
				got = buf[0]
			})
			rt.Spawn("nudge", func(tk *task.Task) {
				// This task can only run if blocking-recv released the core.
				if err := x.Send(tk, []int{21}, 0, 0); err != nil {
					t.Errorf("tampi send: %v", err)
				}
			})
			rt.Wait()
			if got != 42 {
				t.Errorf("got %d, want 42", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAsyncErrorRecorded(t *testing.T) {
	w := newWorld(2, simnet.None())
	err := w.Run(func(c *mpi.Comm) {
		switch c.Rank() {
		case 0:
			time.Sleep(time.Millisecond)
			if err := c.Send([]int{1, 2, 3}, 1, 0); err != nil {
				t.Errorf("send: %v", err)
			}
		case 1:
			rt := task.MustNewRuntime(task.Options{Workers: 1})
			defer rt.Shutdown()
			x := New(c)
			rt.Spawn("short-recv", func(tk *task.Task) {
				// Buffer too small: the bound request completes with a
				// truncation error after the body returns.
				if err := x.Irecv(tk, make([]int, 1), 0, 0); err != nil {
					t.Errorf("irecv: %v", err)
				}
			})
			rt.Wait()
			if x.Err() == nil {
				t.Error("truncation error was not recorded in the context")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestImmediateArgumentErrors(t *testing.T) {
	w := newWorld(1, simnet.None())
	err := w.Run(func(c *mpi.Comm) {
		rt := task.MustNewRuntime(task.Options{Workers: 1})
		defer rt.Shutdown()
		x := New(c)
		rt.Spawn("bad", func(tk *task.Task) {
			if err := x.Isend(tk, []int{1}, 99, 0); err == nil {
				t.Error("Isend to invalid rank: want error")
			}
			if err := x.Irecv(tk, "bad", 0, 0); err == nil {
				t.Error("Irecv with bad buffer: want error")
			}
			if err := x.Send(tk, []int{1}, -1, 0); err == nil {
				t.Error("Send to invalid rank: want error")
			}
			if _, err := x.Recv(tk, []int{1}, 42, 0); err == nil {
				t.Error("Recv from invalid rank: want error")
			}
		})
		rt.Wait()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBlockingBurst drives many concurrent blocking operations through the
// suspension path: all tasks pause, all cores stay available, everything
// completes.
func TestBlockingBurst(t *testing.T) {
	w := newWorld(2, simnet.None())
	err := w.Run(func(c *mpi.Comm) {
		const msgs = 40
		rt := task.MustNewRuntime(task.Options{Workers: 2})
		defer rt.Shutdown()
		x := New(c)
		peer := 1 - c.Rank()
		var sum int64
		for i := 0; i < msgs; i++ {
			i := i
			rt.Spawn("send", func(tk *task.Task) {
				if err := x.Send(tk, []int{i}, peer, i); err != nil {
					t.Errorf("send: %v", err)
				}
			})
			rt.Spawn("recv", func(tk *task.Task) {
				buf := make([]int, 1)
				if _, err := x.Recv(tk, buf, peer, i); err != nil {
					t.Errorf("recv: %v", err)
					return
				}
				atomic.AddInt64(&sum, int64(buf[0]))
			})
		}
		rt.Wait()
		if sum != msgs*(msgs-1)/2 {
			t.Errorf("sum = %d, want %d", sum, msgs*(msgs-1)/2)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIwaitRecyclesItsBinding binds, round after round, a request that has
// already completed (Bind then reports it on Iwait's own goroutine), a null
// request and one still in flight, and in every other round only requests
// that have completed. The successor must see both messages, and every round
// must run on the one binding the first made: it goes back to the free list
// after its last request's completion, whichever goroutine reports it.
func TestIwaitRecyclesItsBinding(t *testing.T) {
	const rounds = 20
	const ready, early, late, resume = 0, 1, 2, 3
	w := newWorld(2, simnet.None())
	err := w.Run(func(c *mpi.Comm) {
		must := func(err error) {
			if err != nil {
				t.Error(err)
			}
		}
		if c.Rank() == 0 {
			for r := 0; r < rounds; r++ {
				must(c.Send([]int{r}, 1, early))
				if r%2 == 1 {
					must(c.Send([]int{-r}, 1, late))
				}
				must(c.Send([]int{0}, 1, ready)) // behind early (and late) on the wire
				if r%2 == 0 {
					_, err := c.Recv(make([]int, 1), 1, resume)
					must(err)
					must(c.Send([]int{-r}, 1, late))
				}
			}
			return
		}
		rt := task.MustNewRuntime(task.Options{Workers: 2})
		defer rt.Shutdown()
		x := New(c)
		for r := 0; r < rounds; r++ {
			_, err := c.Recv(make([]int, 1), 0, ready)
			must(err)
			a, b := make([]int, 1), make([]int, 1)
			rt.Spawn("recv", func(tk *task.Task) {
				ra, err := c.Irecv(a, 0, early)
				must(err)
				select {
				case <-ra.Done():
				default:
					t.Errorf("round %d: the early message's receive is still in flight", r)
				}
				rb, err := c.Irecv(b, 0, late)
				must(err)
				x.Iwait(tk, ra, nil, rb)
				if r%2 == 0 {
					must(c.Send([]int{0}, 0, resume))
				}
			}, task.Out("msgs")...)
			rt.Spawn("check", func(*task.Task) {
				if a[0] != r || b[0] != -r {
					t.Errorf("round %d: successor saw %d and %d", r, a[0], b[0])
				}
			}, task.In("msgs")...)
			rt.Wait()
		}
		must(x.Err())
		x.mu.Lock()
		defer x.mu.Unlock()
		if len(x.free) != 1 {
			t.Errorf("%d bindings on the free list after %d rounds, want the one every round reused", len(x.free), rounds)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
