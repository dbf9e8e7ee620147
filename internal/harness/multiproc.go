package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"miniamr/internal/amr/app"
	"miniamr/internal/cluster"
	"miniamr/internal/driver"
	"miniamr/internal/membuf"
	"miniamr/internal/mpi"
	"miniamr/internal/simnet"
	"miniamr/internal/wire"
)

// Multi-process execution: RunSpec.Procs > 1 re-executes the current
// binary Procs times, gives each child a contiguous rank block over the
// TCP wire transport, and merges the children's partial results into one
// Metrics through the same aggregation as the in-process path.
//
// The protocol between parent and child is three line-oriented messages
// on the child's stdout, prefixed so application output cannot be
// mistaken for them:
//
//	AMRWIRE ADDR <host:port>   child 0 only: the rendezvous coordinator
//	AMRWIRE REPORT <json>      every child: its childReport
//
// plus the childSpec JSON the parent plants in the AMR_WIRE_CHILD
// environment variable. Children are placed in their own process group
// so an expired deadline can kill the whole tree.

// wireChildEnv carries the childSpec JSON into a spawned child. Its
// presence is what MaybeRunWireChild keys on.
const wireChildEnv = "AMR_WIRE_CHILD"

const (
	addrPrefix   = "AMRWIRE ADDR "
	reportPrefix = "AMRWIRE REPORT "
	// bootstrapTimeout bounds the rendezvous phase inside a child.
	bootstrapTimeout = 30 * time.Second
	// quiesceTimeout bounds the reliable-path drain of a chaos run.
	quiesceTimeout = 5 * time.Second
	// defaultProcTimeout applies when RunSpec.ProcTimeout is zero.
	defaultProcTimeout = 2 * time.Minute
)

// childSpec is the complete job description a child needs; everything in
// it survives a JSON round trip (the runtime-only Config fields are
// tagged out by the applications).
type childSpec struct {
	Proc                              int // this child's process id in [0, Procs)
	Procs                             int
	Nodes, RanksPerNode, CoresPerRank int
	Net                               simnet.Model
	App                               string
	Cfg                               json.RawMessage
	Variant                           driver.Variant
	Chaos                             *simnet.Faults
	Resilience                        mpi.Resilience
	// CoordAddr is child 0's listen address; empty for child 0 itself,
	// which learns it from its own listener and prints it for the parent.
	CoordAddr string
}

// childReport is one child's share of the metrics, merged by the parent.
type childReport struct {
	Proc, Lo, Hi int
	// Results holds the local ranks' results, index i for rank Lo+i.
	Results    []driver.Result
	Arena      membuf.Stats
	HeapAllocs uint64
	Faults     simnet.FaultStats
	FaultLog   []simnet.FaultEvent
	Chaos      mpi.ChaosStats
}

// MaybeRunWireChild executes the wire-child role if this process was
// spawned by a multi-process harness run, and never returns in that case
// (it exits with the child's status). It returns false immediately in a
// normal process. Call it first thing in main() — and in TestMain before
// m.Run for test binaries that run multi-process specs, since the parent
// re-executes its own binary.
func MaybeRunWireChild() bool {
	payload := os.Getenv(wireChildEnv)
	if payload == "" {
		return false
	}
	if err := runWireChild(payload); err != nil {
		fmt.Fprintf(os.Stderr, "wire child: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
	return true // unreachable
}

// runWireChild is the child role: bootstrap the wire node, build the
// partial world, run the local ranks, report.
func runWireChild(payload string) error {
	var cs childSpec
	if err := json.Unmarshal([]byte(payload), &cs); err != nil {
		return fmt.Errorf("decoding %s: %w", wireChildEnv, err)
	}
	job, err := driver.DecodeJob(cs.App, cs.Cfg)
	if err != nil {
		return err
	}
	topo, err := cluster.New(cs.Nodes, cs.RanksPerNode, cs.CoresPerRank)
	if err != nil {
		return err
	}
	program, err := job.Bind(cs.Variant, cs.CoresPerRank, nil)
	if err != nil {
		return err
	}

	node, err := wire.Listen("")
	if err != nil {
		return err
	}
	coord := cs.CoordAddr
	if cs.Proc == 0 {
		coord = node.Addr()
		fmt.Printf("%s%s\n", addrPrefix, coord)
	}
	if err := node.Bootstrap(cs.Proc, cs.Procs, topo.Ranks(), coord, bootstrapTimeout); err != nil {
		return fmt.Errorf("bootstrap: %w", err)
	}
	lo, hi := node.LocalRange()
	world, err := mpi.NewWorldPart(topo, cs.Net, lo, hi, node)
	if err != nil {
		return err
	}
	var inj *simnet.Injector
	if cs.Chaos != nil && cs.Chaos.Enabled() {
		inj = simnet.NewInjector(*cs.Chaos)
		world.EnableChaos(inj, cs.Resilience)
	}
	node.Start(world, world.Arena())

	results := make([]driver.Result, topo.Ranks())
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	runErr := world.Run(func(c *mpi.Comm) {
		res, err := program(c, nil)
		if err != nil {
			panic(err) // surface through World.Run and fail peers fast
		}
		results[c.Rank()] = res
	})
	if runErr != nil {
		return runErr
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)

	// Snapshot the fault schedule before the exit protocol below: its
	// barriers run through the same injected world, and their faults are
	// teardown noise that must not pollute the application's schedule
	// (the cross-process oracle compares it byte-for-byte against the
	// single-process run, which has no exit protocol).
	rep := childReport{
		Proc: cs.Proc, Lo: lo, Hi: hi,
		Results:    results[lo:hi],
		HeapAllocs: ms1.Mallocs - ms0.Mallocs,
	}
	if inj != nil {
		rep.Faults = inj.Stats()
		rep.FaultLog = inj.Log()
	}

	// Exit barrier: no process tears its node down while a slower peer
	// still has application traffic in flight.
	if err := world.Run(func(c *mpi.Comm) {
		if err := c.Barrier(); err != nil {
			panic(err)
		}
	}); err != nil {
		return fmt.Errorf("exit barrier: %w", err)
	}
	if inj != nil {
		// Drain the reliable path, re-synchronise, then drain once more.
		// The final quiesce matters: the middle barrier's own messages
		// cross the injected world too, and a process that closed its
		// node while a peer still waited on a dropped barrier release
		// would strand that peer forever — retransmits to a closed node
		// are silently dropped. Draining until every send is acked means
		// the only traffic left when anyone closes is duplicate
		// retransmits and acks, which the teardown tolerates.
		world.QuiesceReliable(quiesceTimeout)
		if err := world.Run(func(c *mpi.Comm) {
			if err := c.Barrier(); err != nil {
				panic(err)
			}
		}); err != nil {
			return fmt.Errorf("quiesce barrier: %w", err)
		}
		world.QuiesceReliable(quiesceTimeout)
		rep.Chaos = world.ChaosStats()
	}
	rep.Arena = world.Arena().Stats()
	out, err := json.Marshal(rep)
	if err != nil {
		return fmt.Errorf("encoding report: %w", err)
	}
	fmt.Printf("%s%s\n", reportPrefix, out)
	if err := node.Close(); err != nil {
		return fmt.Errorf("closing node: %w", err)
	}
	return node.Err()
}

// wireChild is the parent's handle on one spawned child process.
type wireChild struct {
	proc   int
	cmd    *exec.Cmd
	addrCh chan string      // child 0's coordinator address (buffered 1)
	repCh  chan childReport // the child's report (buffered 1)
	scanCh chan error       // stdout scan outcome
}

// runMultiProc is the Procs > 1 path of Run: spawn, collect, merge.
func runMultiProc(spec RunSpec) (Metrics, error) {
	if spec.Recorder != nil {
		return Metrics{}, fmt.Errorf("harness: trace recording is in-process only; not supported with Procs=%d", spec.Procs)
	}
	if spec.CPUProfile != "" {
		return Metrics{}, fmt.Errorf("harness: CPU profiling is in-process only (the ranks run in child processes the profile would not see); not supported with Procs=%d", spec.Procs)
	}
	if spec.Sanitize {
		// The sanitizer audits one process's task graph; a multi-process
		// run would need per-child audits reported back, which nothing
		// consumes yet. (The AMRSAN=1 environment force is deliberately
		// ignored here rather than failing the whole sanitized suite.)
		return Metrics{}, fmt.Errorf("harness: sanitizer is in-process only; not supported with Procs=%d", spec.Procs)
	}
	job := spec.Job
	if job == nil {
		job = app.Job(spec.Cfg)
	}
	if err := driver.CheckVariant(job.App(), spec.Variant); err != nil {
		return Metrics{}, err
	}
	appName, cfgJSON, err := driver.EncodeJob(job)
	if err != nil {
		return Metrics{}, err
	}
	topo, err := cluster.New(spec.Nodes, spec.RanksPerNode, spec.CoresPerRank)
	if err != nil {
		return Metrics{}, err
	}
	if spec.Procs > topo.Ranks() {
		return Metrics{}, fmt.Errorf("harness: %d processes exceed %d ranks", spec.Procs, topo.Ranks())
	}
	exe, err := os.Executable()
	if err != nil {
		return Metrics{}, fmt.Errorf("harness: resolving own binary: %w", err)
	}
	timeout := spec.ProcTimeout
	if timeout <= 0 {
		timeout = defaultProcTimeout
	}
	deadline := time.Now().Add(timeout)

	base := childSpec{
		Procs: spec.Procs,
		Nodes: spec.Nodes, RanksPerNode: spec.RanksPerNode, CoresPerRank: spec.CoresPerRank,
		Net: spec.Net, App: appName, Cfg: cfgJSON, Variant: spec.Variant,
		Resilience: spec.Resilience,
	}
	if spec.Chaos != nil && spec.Chaos.Enabled() {
		base.Chaos = spec.Chaos
	}

	children := make([]*wireChild, spec.Procs)
	// Kill every child's process group on any exit path; harmless for
	// children that already exited.
	defer func() {
		for _, ch := range children {
			if ch != nil {
				ch.kill()
			}
		}
	}()

	// Child 0 first: it owns the rendezvous listener and prints its
	// address, which the others need before they can even start.
	c0, err := spawnWireChild(exe, base, 0, "")
	if err != nil {
		return Metrics{}, err
	}
	children[0] = c0
	coordAddr, err := c0.waitAddr(deadline)
	if err != nil {
		return Metrics{}, err
	}
	for p := 1; p < spec.Procs; p++ {
		ch, err := spawnWireChild(exe, base, p, coordAddr)
		if err != nil {
			return Metrics{}, err
		}
		children[p] = ch
	}

	reports := make([]childReport, spec.Procs)
	for _, ch := range children {
		rep, err := ch.waitReport(deadline)
		if err != nil {
			return Metrics{}, err
		}
		reports[ch.proc] = rep
	}
	return mergeReports(spec, topo, reports)
}

// spawnWireChild starts one child of the current binary with the spec in
// its environment and a scanner goroutine on its stdout.
func spawnWireChild(exe string, base childSpec, proc int, coordAddr string) (*wireChild, error) {
	cs := base
	cs.Proc = proc
	cs.CoordAddr = coordAddr
	payload, err := json.Marshal(cs)
	if err != nil {
		return nil, fmt.Errorf("harness: encoding child spec: %w", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), wireChildEnv+"="+string(payload))
	cmd.Stderr = os.Stderr
	// Own process group: the deadline kill takes out grandchildren too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("harness: child %d stdout: %w", proc, err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("harness: starting child %d: %w", proc, err)
	}
	ch := &wireChild{
		proc: proc, cmd: cmd,
		addrCh: make(chan string, 1),
		repCh:  make(chan childReport, 1),
		scanCh: make(chan error, 1),
	}
	go ch.scan(stdout)
	return ch, nil
}

// scan reads the child's stdout for protocol lines; anything else is
// application chatter and forwarded to the parent's stderr.
func (ch *wireChild) scan(r io.Reader) {
	sc := bufio.NewScanner(r)
	// Reports carry checksum histories and fault logs; give them room.
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, addrPrefix):
			select {
			case ch.addrCh <- strings.TrimPrefix(line, addrPrefix):
			default:
			}
		case strings.HasPrefix(line, reportPrefix):
			var rep childReport
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, reportPrefix)), &rep); err != nil {
				ch.scanCh <- fmt.Errorf("harness: child %d report: %w", ch.proc, err)
				return
			}
			select {
			case ch.repCh <- rep:
			default:
			}
		default:
			fmt.Fprintf(os.Stderr, "[wire child %d] %s\n", ch.proc, line)
		}
	}
	ch.scanCh <- sc.Err()
}

// waitAddr waits for the coordinator address line with a hard deadline.
func (ch *wireChild) waitAddr(deadline time.Time) (string, error) {
	select {
	case addr := <-ch.addrCh:
		return addr, nil
	case err := <-ch.scanCh:
		ch.kill()
		return "", fmt.Errorf("harness: child %d exited before announcing its address (scan err: %v, wait: %v)", ch.proc, err, ch.cmd.Wait())
	case <-time.After(time.Until(deadline)):
		ch.kill()
		return "", fmt.Errorf("harness: timed out waiting for child %d address", ch.proc)
	}
}

// waitReport waits for the child's report and clean exit with a hard
// deadline; on expiry the whole child process group is killed.
func (ch *wireChild) waitReport(deadline time.Time) (childReport, error) {
	var (
		rep    childReport
		gotRep bool
	)
	for {
		select {
		case rep = <-ch.repCh:
			gotRep = true
		case err := <-ch.scanCh:
			// Stdout closed: the child exited (or broke its pipe).
			waitErr := ch.cmd.Wait()
			if waitErr != nil {
				return childReport{}, fmt.Errorf("harness: child %d failed: %w", ch.proc, waitErr)
			}
			if err != nil {
				return childReport{}, fmt.Errorf("harness: child %d stdout: %w", ch.proc, err)
			}
			if !gotRep {
				select {
				case rep = <-ch.repCh:
				default:
					return childReport{}, fmt.Errorf("harness: child %d exited without a report", ch.proc)
				}
			}
			return rep, nil
		case <-time.After(time.Until(deadline)):
			ch.kill()
			return childReport{}, fmt.Errorf("harness: timed out waiting for child %d (killed)", ch.proc)
		}
	}
}

// kill terminates the child's whole process group, then reaps it.
func (ch *wireChild) kill() {
	if ch.cmd.Process == nil {
		return
	}
	// Negative pid addresses the process group created by Setpgid.
	_ = syscall.Kill(-ch.cmd.Process.Pid, syscall.SIGKILL)
	_ = ch.cmd.Process.Kill()
	_ = ch.cmd.Wait()
}

// mergeReports stitches the children's partial results into one Metrics,
// reusing the in-process aggregation for everything per-rank.
func mergeReports(spec RunSpec, topo *cluster.Topology, reports []childReport) (Metrics, error) {
	ranks := topo.Ranks()
	results := make([]driver.Result, ranks)
	m := Metrics{Ranks: ranks, Cores: topo.Cores()}
	for _, rep := range reports {
		lo, hi := wire.RankRange(ranks, spec.Procs, rep.Proc)
		if rep.Lo != lo || rep.Hi != hi || len(rep.Results) != hi-lo {
			return Metrics{}, fmt.Errorf("harness: child %d reported rank range [%d,%d) x%d, want [%d,%d)",
				rep.Proc, rep.Lo, rep.Hi, len(rep.Results), lo, hi)
		}
		copy(results[lo:hi], rep.Results)
		m.Arena.Gets += rep.Arena.Gets
		m.Arena.Puts += rep.Arena.Puts
		m.Arena.Hits += rep.Arena.Hits
		m.Arena.Misses += rep.Arena.Misses
		m.Arena.Live += rep.Arena.Live
		m.Arena.LeasesLive += rep.Arena.LeasesLive
		m.HeapAllocs += rep.HeapAllocs
		m.Faults.Drops += rep.Faults.Drops
		m.Faults.Duplicates += rep.Faults.Duplicates
		m.Faults.Spikes += rep.Faults.Spikes
		m.Faults.PartitionDrops += rep.Faults.PartitionDrops
		m.Faults.Stalls += rep.Faults.Stalls
		m.FaultLog = append(m.FaultLog, rep.FaultLog...)
		m.Chaos.Retransmits += rep.Chaos.Retransmits
		m.Chaos.DupsDiscarded += rep.Chaos.DupsDiscarded
		m.Chaos.Reordered += rep.Chaos.Reordered
		m.Chaos.Recovered += rep.Chaos.Recovered
		m.Chaos.Abandoned += rep.Chaos.Abandoned
	}
	// Restore the deterministic (src, dst, seq, kind) order the
	// single-process injector log guarantees: each child only injects for
	// its own ranks' sends, so the union re-sorts to the same schedule.
	sort.Slice(m.FaultLog, func(i, j int) bool {
		a, b := m.FaultLog[i], m.FaultLog[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		return a.Kind < b.Kind
	})
	m.aggregate(results)
	return m, nil
}
