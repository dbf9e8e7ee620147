// Package sanitize is amrsan, the opt-in runtime sanitizer of the
// reproduction: cheap-when-off instrumentation hooks threaded through the
// task runtime, the MPI transport and the buffer arena, verifying at run
// time the invariants the paper's correctness argument rests on and that
// amrlint can only approximate statically.
//
// Three checker families feed one report sink:
//
//   - Dependency races (dep.go): each task's declared access set is
//     recorded at spawn; tasks report their actual reads/writes through
//     NoteRead/NoteWrite. Two concurrently-schedulable tasks with
//     overlapping accesses (at least one a write) that the dependency
//     graph does not order, a write through a region declared only `in`,
//     one buffer bound under two distinct regions, and a region handle
//     used after the runtime's regions were reset are all violations.
//   - MPI deadlock and matching (mpimon.go): a wait-for graph over ranks
//     blocked in Recv/Wait/collectives, watched by a grace-period
//     watchdog (cycle and all-blocked detection, with abort so stuck
//     seeded tests terminate); plus end-of-run audits of never-received
//     messages, dangling posted receives and collective divergence.
//   - Lease leaks (leasemon.go): every live arena lease is tracked with
//     its creation stack, so a leak report names the allocation site
//     instead of a bare count.
//
// A Sanitizer is attached per job: Attach wires the MPI world and its
// arena, Observer(rank) yields the per-rank task observer, Finish stops
// the watchdog, runs the audits and returns the collected reports. With
// no sanitizer attached every hook in the instrumented packages compiles
// to a nil check, preserving the zero-allocation pooled message path.
package sanitize

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"miniamr/internal/mpi"
)

// Kind labels a report's checker.
type Kind string

// The report kinds amrsan emits.
const (
	// KindDepRace: two concurrently-schedulable tasks with conflicting,
	// graph-unordered accesses to one region.
	KindDepRace Kind = "dep-race"
	// KindWriteViaIn: a task wrote a region it declared only as in.
	KindWriteViaIn Kind = "write-via-in"
	// KindKeyAlias: one buffer bound under two distinct dependency keys.
	KindKeyAlias Kind = "key-alias"
	// KindStaleRegion: a task declared a region handle from before the
	// runtime's last region reset.
	KindStaleRegion Kind = "stale-region"
	// KindDeadlock: ranks provably stuck in receive-side waits.
	KindDeadlock Kind = "deadlock"
	// KindUnreceived: a message was sent but never matched by a receive.
	KindUnreceived Kind = "unreceived-message"
	// KindDanglingRecv: a posted receive never completed.
	KindDanglingRecv Kind = "dangling-recv"
	// KindCollectiveMismatch: ranks disagreed on a collective's shape
	// (name, op, root, count) or executed different collective counts.
	KindCollectiveMismatch Kind = "collective-mismatch"
	// KindLeaseLeak: an arena lease was never fully released.
	KindLeaseLeak Kind = "lease-leak"
)

// Report is one structured sanitizer finding.
type Report struct {
	// Check names the violated invariant.
	Check Kind
	// Rank is the rank the violation was observed on, or -1 when the
	// finding is job-global (collective divergence, message audits).
	Rank int
	// Task is the label of the offending task, when one is known.
	Task string
	// Key renders the region key, tag or lease the finding is about.
	Key string
	// Msg is the human-readable diagnosis.
	Msg string
	// Stack is the capture site (creation or detection), when available.
	Stack string
}

// String renders the report on one line (plus the stack, if captured).
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "amrsan: %s", r.Check)
	if r.Rank >= 0 {
		fmt.Fprintf(&b, " [rank %d]", r.Rank)
	}
	if r.Task != "" {
		fmt.Fprintf(&b, " task %q", r.Task)
	}
	if r.Key != "" {
		fmt.Fprintf(&b, " key %s", r.Key)
	}
	fmt.Fprintf(&b, ": %s", r.Msg)
	if r.Stack != "" {
		fmt.Fprintf(&b, "\n%s", r.Stack)
	}
	return b.String()
}

// Options tune a Sanitizer.
type Options struct {
	// DeadlockGrace is how long the blocked-rank condition must hold with
	// no transport activity before a deadlock is reported and the blocked
	// operations aborted. Zero selects a default safe for slow CI hosts;
	// seeded-deadlock tests shorten it.
	DeadlockGrace time.Duration
}

// defaultDeadlockGrace trades detection latency against false suspicion
// on hosts where a compute phase can stall transport activity for a
// while (race detector, loaded CI machines).
const defaultDeadlockGrace = 2 * time.Second

// Sanitizer collects findings from all checkers of one job. Methods are
// safe for concurrent use.
type Sanitizer struct {
	mu       sync.Mutex
	reports  []Report
	seen     map[string]bool // dedup: one report per (kind, key, parties)
	grace    time.Duration
	mpimon   *mpiMonitor
	leases   *leaseMonitor
	deps     []*DepSanitizer
	finished bool
}

// New creates an empty sanitizer.
func New(opts Options) *Sanitizer {
	g := opts.DeadlockGrace
	if g <= 0 {
		g = defaultDeadlockGrace
	}
	return &Sanitizer{seen: make(map[string]bool), grace: g}
}

// Attach wires the sanitizer into a world: transport monitoring (deadlock
// watchdog, matching audit, collective audit) and lease tracking on the
// world's arena. It must be called before World.Run; one Sanitizer
// watches one world.
func (s *Sanitizer) Attach(w *mpi.World) {
	s.mu.Lock()
	if s.mpimon != nil {
		s.mu.Unlock()
		panic("sanitize: Attach called twice")
	}
	s.mpimon = newMPIMonitor(s, w.Size(), s.grace)
	s.leases = newLeaseMonitor(s)
	s.mu.Unlock()
	w.SetMonitor(s.mpimon)
	w.Arena().SetMonitor(s.leases)
	go s.mpimon.watchdog()
}

// Observer returns the dependency-race sanitizer for one rank, to be
// passed as task.Options.Observer and used for NoteRead/NoteWrite/
// BindRegion calls from that rank's driver.
func (s *Sanitizer) Observer(rank int) *DepSanitizer {
	ds := newDepSanitizer(s, rank)
	s.mu.Lock()
	s.deps = append(s.deps, ds)
	s.mu.Unlock()
	return ds
}

// report files a finding, deduplicating on key: violations that repeat
// every stage (the same undeclared overlap, say) yield one report.
func (s *Sanitizer) report(dedup string, r Report) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if dedup != "" && s.seen[dedup] {
		return
	}
	if dedup != "" {
		s.seen[dedup] = true
	}
	s.reports = append(s.reports, r)
}

// Reports returns a snapshot of the findings so far, in a deterministic
// order (by kind, then rank, then key, then message, then stack). The
// stack tiebreak matters: same-site leak reports agree on every other
// field, and without it the order among them would follow insertion
// order, which the collection maps do not pin.
func (s *Sanitizer) Reports() []Report {
	s.mu.Lock()
	out := make([]Report, len(s.reports))
	copy(out, s.reports)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Check != out[j].Check {
			return out[i].Check < out[j].Check
		}
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		if out[i].Msg != out[j].Msg {
			return out[i].Msg < out[j].Msg
		}
		return out[i].Stack < out[j].Stack
	})
	return out
}

// Finish stops the deadlock watchdog, runs the end-of-run audits
// (unreceived messages, dangling receives, collective divergence, leaked
// leases) and returns all findings. It must be called after the job's
// ranks have returned; it is idempotent.
func (s *Sanitizer) Finish() []Report {
	s.mu.Lock()
	done := s.finished
	s.finished = true
	mm, lm := s.mpimon, s.leases
	s.mu.Unlock()
	if !done {
		if mm != nil {
			mm.stop()
			mm.audit()
		}
		if lm != nil {
			lm.audit()
		}
	}
	return s.Reports()
}

// captureStack renders the calling goroutine's stack, skipping `skip`
// frames above captureStack itself, trimmed to the interesting depth.
func captureStack(skip int) string {
	var pcs [16]uintptr
	n := runtime.Callers(skip+2, pcs[:])
	if n == 0 {
		return ""
	}
	frames := runtime.CallersFrames(pcs[:n])
	var b strings.Builder
	for i := 0; i < 8; i++ {
		f, more := frames.Next()
		if f.Function != "" {
			fmt.Fprintf(&b, "    %s\n        %s:%d\n", f.Function, f.File, f.Line)
		}
		if !more {
			break
		}
	}
	return strings.TrimRight(b.String(), "\n")
}
