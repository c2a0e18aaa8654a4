package core

import (
	"runtime"
	"testing"

	"rfdet/internal/api"
)

// lockChainProg builds a lock-handoff chain whose happens-before edges pass
// through two mutexes: A publishes x under m0, B acquires m0, derives y from
// x and publishes both under m1, and C acquires only m1 — so C's view of x
// depends on the transitive edge A --m0--> B --m1--> C carrying A's
// modifications. The generous ticks pin the admission order so the chain is
// the only schedule.
func lockChainProg(m0, m1 api.Addr) api.ThreadFunc {
	return func(th api.Thread) {
		x := th.Malloc(8)
		y := th.Malloc(8)

		// Touch both mutexes once so each carries a release record before
		// the chain runs: B's first Lock(m1) then joins an existing record
		// instead of finding a fresh sync var.
		th.Lock(m0)
		th.Unlock(m0)
		th.Lock(m1)
		th.Unlock(m1)

		a := th.Spawn(func(c api.Thread) {
			c.Tick(100)
			c.Lock(m0)
			c.Store64(x, 1)
			c.Unlock(m0)
		})
		b := th.Spawn(func(c api.Thread) {
			c.Tick(10000)
			c.Lock(m0)
			v := c.Load64(x)
			c.Unlock(m0)
			c.Lock(m1)
			c.Store64(y, v+1)
			c.Unlock(m1)
		})
		cc := th.Spawn(func(c api.Thread) {
			c.Tick(100000)
			c.Lock(m1) // never touches m0
			c.Observe(c.Load64(x), c.Load64(y))
			c.Unlock(m1)
		})

		th.Join(a)
		th.Join(b)
		th.Join(cc)
		th.Observe(th.Load64(x), th.Load64(y))
	}
}

// TestCrossShardLockHandoffChain verifies the transitive happens-before
// chain A --m0--> B --m1--> C: C never locks m0, yet must see A's write.
func TestCrossShardLockHandoffChain(t *testing.T) {
	opts := DefaultOptions()
	opts.Validate = true
	m0, m1 := api.Addr(64), api.Addr(192)
	rep := run(t, opts, lockChainProg(m0, m1))

	if got := rep.Observations[3]; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("C observed %v, want [1 2]: A's write did not reach C through B", got)
	}
	if got := rep.Observations[0]; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("main observed %v, want [1 2]", got)
	}
	if rep.Stats.RendezvousOps == 0 {
		t.Fatal("spawn/join/exit entries were not counted in RendezvousOps")
	}
}

// prelockQueueProg queues several waiters on a mutex whose holder keeps
// running and keeps synchronizing on a second mutex. Each waiter that queues
// on m0 pre-merges from the running holder (prelockLocked clones its clock
// and walks its slice list); each release of m0 pre-merges for the waiters
// still queued (prelockReleaseLocked); and between those two points the
// holder commits slices and bumps its clock under m1. The deterministic turn
// orders those clock and list accesses, which makes this the -race input
// for them.
func prelockQueueProg(m0, m1 api.Addr) api.ThreadFunc {
	return func(th api.Thread) {
		const waiters = 3
		const rounds = 6
		buf := th.Malloc(8 * 64)
		slot := func(i int) api.Addr { return buf + api.Addr(8*i) }

		holder := th.Spawn(func(c api.Thread) {
			c.Lock(m0)
			for i := 0; i < rounds; i++ {
				c.Store64(slot(i), uint64(100+i))
				c.Lock(m1) // commits and clock bumps while m0 waiters queue
				c.Store64(slot(32+i), c.Load64(slot(32+i))+uint64(i+1))
				c.Unlock(m1)
				c.Tick(2000)
			}
			c.Unlock(m0)
		})
		var ids []api.ThreadID
		for w := 0; w < waiters; w++ {
			w := w
			ids = append(ids, th.Spawn(func(c api.Thread) {
				c.Tick(uint64(500 + 100*w))
				c.Lock(m0) // queues behind the running holder
				c.Store64(slot(8+w), c.Load64(slot(rounds-1))+uint64(w))
				c.Unlock(m0) // hands off, pre-merging for the waiters still queued
				c.Lock(m1)
				c.Store64(slot(40+w), c.Load64(slot(32))+c.Load64(slot(8+w)))
				c.Unlock(m1)
			}))
		}
		th.Join(holder)
		for _, id := range ids {
			th.Join(id)
		}
		var fold uint64
		for i := 0; i < 64; i++ {
			fold = fold*31 + th.Load64(slot(i))
		}
		th.Observe(fold)
	}
}

// TestHandoffGOMAXPROCSInvariance runs each handoff program under
// GOMAXPROCS 1, 4 and 8 and requires bit-identical output hashes, virtual
// times and synchronization traces throughout.
func TestHandoffGOMAXPROCSInvariance(t *testing.T) {
	m0, m1 := api.Addr(64), api.Addr(192)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	progs := []struct {
		name    string
		prog    api.ThreadFunc
		prelock bool // must exercise both prelock pre-merge paths
	}{
		{"chain", lockChainProg(m0, m1), false},
		{"prelock", prelockQueueProg(m0, m1), true},
	}
	for _, p := range progs {
		var wantHash, wantVT uint64
		var wantTrace string
		for _, procs := range []int{1, 4, 8} {
			runtime.GOMAXPROCS(procs)
			opts := DefaultOptions()
			opts.Validate = true
			opts.Trace = true
			rep, tr, err := New(opts).RunTraced(p.prog)
			if err != nil {
				t.Fatalf("%s GOMAXPROCS=%d: %v", p.name, procs, err)
			}
			// PlanReuse > 0 means one release pre-merged the same slice
			// list into at least two still-queued waiters.
			if p.prelock && (rep.Stats.PrelockBytes == 0 || rep.Stats.PlanReuse == 0) {
				t.Fatalf("%s GOMAXPROCS=%d: prelock not exercised (PrelockBytes=%d, PlanReuse=%d)",
					p.name, procs, rep.Stats.PrelockBytes, rep.Stats.PlanReuse)
			}
			if wantTrace == "" {
				wantHash, wantVT, wantTrace = rep.OutputHash, rep.VirtualTime, tr.String()
				continue
			}
			if rep.OutputHash != wantHash || rep.VirtualTime != wantVT {
				t.Fatalf("%s GOMAXPROCS=%d: output=%#x vtime=%d differ from baseline output=%#x vtime=%d",
					p.name, procs, rep.OutputHash, rep.VirtualTime, wantHash, wantVT)
			}
			if s := tr.String(); s != wantTrace {
				t.Fatalf("%s GOMAXPROCS=%d: trace diverged:\n--- first ---\n%s\n--- now ---\n%s",
					p.name, procs, wantTrace, s)
			}
		}
	}
}
