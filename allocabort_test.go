package rfdet_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"rfdet"
	"rfdet/internal/core"
	"rfdet/internal/harness"
	"rfdet/internal/workloads"
)

// noGoroutineLeak runs fn — one or more complete Run calls — and fails the
// test unless the goroutine count is back to its value from before fn within
// a bounded deadline. Thread goroutines and diff/apply workers finish
// shortly after Run returns (deferred exits, wait-group joins), hence the
// polling instead of a single comparison.
func noGoroutineLeak(t *testing.T, fn func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	fn()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d goroutines before the run, %d after:\n%s", before, n, buf)
		}
		time.Sleep(time.Millisecond)
	}
}

// Double-free litmus: an allocator failure must surface as an error from Run
// on every runtime — the recoverable-abort path — never as an unrecovered
// panic that kills the host process, and never as a hang of the failing
// thread's peers.
func TestDoubleFreeAbortsRecoverably(t *testing.T) {
	runtimes := []rfdet.Runtime{
		rfdet.NewCI(),
		rfdet.NewPF(),
		rfdet.NewDThreads(),
		rfdet.NewCoreDet(1000),
		rfdet.NewPThreads(),
	}
	for _, rt := range runtimes {
		rt := rt
		t.Run(rt.Name(), func(t *testing.T) {
			var err error
			noGoroutineLeak(t, func() {
				_, err = rt.Run(func(th rfdet.Thread) {
					a := th.Malloc(64)
					th.Free(a)
					th.Free(a) // double free
				})
			})
			if err == nil {
				t.Fatal("double free must fail the run")
			}
			if !strings.Contains(err.Error(), "free") {
				t.Fatalf("error %q does not describe the allocator failure", err)
			}
		})
	}
}

// The same, with peer threads blocked on synchronization the failing thread
// will never provide: the abort must unwind them so Run returns, rather than
// leaving the execution deadlocked behind the dead thread.
func TestDoubleFreeUnblocksPeers(t *testing.T) {
	runtimes := []rfdet.Runtime{
		rfdet.NewCI(),
		rfdet.NewDThreads(),
		rfdet.NewPThreads(),
	}
	for _, rt := range runtimes {
		rt := rt
		t.Run(rt.Name(), func(t *testing.T) {
			var err error
			noGoroutineLeak(t, func() {
				_, err = rt.Run(func(th rfdet.Thread) {
					mu, cond := rfdet.Addr(64), rfdet.Addr(128)
					flag := th.Malloc(8)
					waiter := th.Spawn(func(c rfdet.Thread) {
						c.Lock(mu)
						for c.Load64(flag) == 0 {
							c.Wait(cond, mu) // never signaled: main dies first
						}
						c.Unlock(mu)
					})
					a := th.Malloc(64)
					th.Free(a)
					th.Free(a) // double free while the waiter blocks
					th.Join(waiter)
				})
			})
			if err == nil {
				t.Fatal("double free must fail the run")
			}
		})
	}
}

// TestServerReplicaAbortUnwinds is the server-shaped abort litmus: a replica
// whose request log injects a failing request (a zero-count barrier fired
// mid-service, with peer workers blocked on the condvar queue and the
// end-of-run barrier) must unwind cleanly — Run returns the recoverable
// abort, nothing hangs — and the replica checker must report it as
// divergent-by-abort while the clean replicas still agree byte-for-byte.
// This extends the kernel-level abort tests above to a full workload where
// the abort lands inside a lock/queue/barrier web.
func TestServerReplicaAbortUnwinds(t *testing.T) {
	cfg := workloads.Config{Threads: 4, Size: workloads.SizeTest}
	opts := core.DefaultOptions()
	variants := []harness.ReplicaVariant{
		{Name: "clean-a", Opts: opts},
		{Name: "poisoned", Opts: opts, InjectAbort: true},
		{Name: "clean-b", Opts: opts},
	}
	var rep *harness.ReplicaReport
	noGoroutineLeak(t, func() {
		rep = harness.RunServerReplicas(cfg, workloads.DefaultServerSeed, variants)
	})
	if len(rep.Divergences) != 1 {
		t.Fatalf("divergences %v — want exactly the injected abort, with clean replicas agreeing", rep.Divergences)
	}
	if !strings.Contains(rep.Divergences[0], "divergent-by-abort") {
		t.Fatalf("divergence %q not classified as abort", rep.Divergences[0])
	}
	poisoned := rep.Runs[1]
	if poisoned.Err == nil || !strings.Contains(poisoned.Err.Error(), "barrier with count") {
		t.Fatalf("poisoned replica error = %v, want the zero-count barrier abort", poisoned.Err)
	}
	for _, i := range []int{0, 2} {
		run := rep.Runs[i]
		if run.Err != nil {
			t.Fatalf("clean replica %d errored: %v", i, run.Err)
		}
		if run.Summary.StateHash != rep.Runs[0].Summary.StateHash ||
			run.Summary.ResponseHash != rep.Runs[0].Summary.ResponseHash {
			t.Fatal("clean replicas disagree after the abort")
		}
	}
}

// TestZeroCountBarrierAborts pins the pre-turn abort path: Barrier with a
// non-positive count fails before taking the deterministic turn or entering
// the monitor, so the abort reaches the runtime from outside every in-turn
// code path. The run must fail recoverably — and must unwind peers blocked
// on locks, condvars and joins at the moment the abort lands.
func TestZeroCountBarrierAborts(t *testing.T) {
	var err error
	noGoroutineLeak(t, func() {
		_, err = rfdet.New(rfdet.DefaultOptions()).Run(func(th rfdet.Thread) {
			mu, cond, bar := rfdet.Addr(64), rfdet.Addr(128), rfdet.Addr(192)
			flag := th.Malloc(8)
			holder := th.Spawn(func(c rfdet.Thread) {
				c.Lock(mu)
				for c.Load64(flag) == 0 {
					c.Wait(cond, mu) // never signaled: main aborts first
				}
				c.Unlock(mu)
			})
			th.Spawn(func(c rfdet.Thread) {
				c.Tick(1000)
				c.Lock(mu) // queued behind holder forever
				c.Unlock(mu)
			})
			th.Spawn(func(c rfdet.Thread) {
				c.Join(holder) // blocked on a thread that never exits
			})
			th.Tick(100000) // let every peer reach its blocking point
			th.Barrier(bar, 0)
		})
	})
	if err == nil {
		t.Fatal("zero-count barrier must fail the run")
	}
	if !strings.Contains(err.Error(), "barrier with count") {
		t.Fatalf("error %q does not describe the barrier misuse", err)
	}
}

// TestLockJoinDeadlockAborts is the self-deadlock litmus: main holds a mutex
// and joins a child that needs it. Every live thread ends up blocked, which
// the deadlock check must turn into a recoverable error with every thread
// goroutine unwound, on both monitors.
func TestLockJoinDeadlockAborts(t *testing.T) {
	for _, mon := range []core.Monitor{core.MonitorCI, core.MonitorPF} {
		opts := core.DefaultOptions()
		opts.Monitor = mon
		var err error
		noGoroutineLeak(t, func() {
			_, err = rfdet.New(opts).Run(func(th rfdet.Thread) {
				mu := rfdet.Addr(64)
				th.Lock(mu)
				child := th.Spawn(func(c rfdet.Thread) {
					c.Lock(mu) // held by main for good
					c.Unlock(mu)
				})
				th.Join(child)
				th.Unlock(mu)
			})
		})
		if err == nil || !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("monitor=%s: error = %v, want the deterministic deadlock", mon, err)
		}
	}
}
