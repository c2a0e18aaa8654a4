package core

import (
	"runtime"
	"testing"

	"rfdet/internal/api"
)

// crossShardChainProg builds a lock-handoff chain whose happens-before edges
// cross commit-monitor domains: A publishes x under m0 (one domain), B
// acquires m0, derives y from x and publishes both under m1 (a different
// domain), and C acquires only m1 — so C's view of x depends on the
// transitive edge A --m0--> B --m1--> C carrying A's modifications across a
// domain boundary. The generous ticks pin the admission order so the chain
// is the only schedule.
func crossShardChainProg(m0, m1 api.Addr) api.ThreadFunc {
	return func(th api.Thread) {
		x := th.Malloc(8)
		y := th.Malloc(8)

		// Touch both mutexes once so each carries a release record before
		// the chain runs: a cross-domain acquire is only counted when it
		// joins an existing record, so without this B's first Lock(m1)
		// would find a fresh sync var and no edge to cross.
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
			c.Lock(m1) // never touches m0's domain
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
// chain across domains, and that the domain bookkeeping noticed it: with
// four shards, m0 = 64 and m1 = 192 live in different domains, so B's and
// C's acquires must be counted as cross-domain and every release must be
// stamped by a domain frontier.
func TestCrossShardLockHandoffChain(t *testing.T) {
	opts := DefaultOptions()
	opts.ShardCount = 4
	opts.Validate = true
	m0, m1 := api.Addr(64), api.Addr(192)
	rep := run(t, opts, crossShardChainProg(m0, m1))

	if got := rep.Observations[3]; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("C observed %v, want [1 2]: A's write did not cross the domain boundary", got)
	}
	if got := rep.Observations[0]; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("main observed %v, want [1 2]", got)
	}
	if rep.Stats.MonitorShards != 4 {
		t.Fatalf("MonitorShards = %d, want 4", rep.Stats.MonitorShards)
	}
	if rep.Stats.ShardReleases == 0 {
		t.Fatal("no release was stamped by a domain frontier")
	}
	if rep.Stats.CrossShardAcquires == 0 {
		t.Fatal("the chain crosses domains but CrossShardAcquires = 0")
	}
	if rep.Stats.RendezvousOps == 0 {
		t.Fatal("spawn/join/exit should have used the global rendezvous")
	}
}

// crossShardPrelockProg queues several waiters on a mutex whose holder keeps
// running and keeps synchronizing in a second domain. Each waiter that queues
// on m0 pre-merges from the running holder (prelockLocked clones its clock
// and walks its slice list); each release of m0 pre-merges for the waiters
// still queued (prelockReleaseLocked); and between those two points the
// holder commits slices and bumps its clock under m1's domain, not m0's. The
// deterministic turn is the only thing ordering those clock and list
// accesses across domains, which makes this the -race input for it.
func crossShardPrelockProg(m0, m1 api.Addr) api.ThreadFunc {
	return func(th api.Thread) {
		const waiters = 3
		const rounds = 6
		buf := th.Malloc(8 * 64)
		slot := func(i int) api.Addr { return buf + api.Addr(8*i) }

		holder := th.Spawn(func(c api.Thread) {
			c.Lock(m0)
			for i := 0; i < rounds; i++ {
				c.Store64(slot(i), uint64(100+i))
				c.Lock(m1) // other domain: commits and clock bumps while m0 waiters queue
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

// TestShardCountInvariance runs each cross-domain program at every
// interesting shard count — including 0 (defaulted), 1 (the seed's single
// global domain), a count that does not divide the address range pattern,
// and the maximum — under GOMAXPROCS 1, 4 and 8, and requires bit-identical
// output hashes, virtual times and synchronization traces throughout.
func TestShardCountInvariance(t *testing.T) {
	m0, m1 := api.Addr(64), api.Addr(192)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	progs := []struct {
		name    string
		prog    api.ThreadFunc
		prelock bool // must exercise both prelock pre-merge paths
	}{
		{"chain", crossShardChainProg(m0, m1), false},
		{"prelock", crossShardPrelockProg(m0, m1), true},
	}
	for _, p := range progs {
		var wantHash, wantVT uint64
		var wantTrace string
		for _, procs := range []int{1, 4, 8} {
			runtime.GOMAXPROCS(procs)
			for _, n := range []int{0, 1, 3, 4, 64, 1000} {
				opts := DefaultOptions()
				opts.ShardCount = n
				opts.Validate = true
				opts.Trace = true
				rep, tr, err := New(opts).RunTraced(p.prog)
				if err != nil {
					t.Fatalf("%s GOMAXPROCS=%d ShardCount=%d: %v", p.name, procs, n, err)
				}
				// PlanReuse > 0 means one release pre-merged the same slice
				// list into at least two still-queued waiters.
				if p.prelock && (rep.Stats.PrelockBytes == 0 || rep.Stats.PlanReuse == 0) {
					t.Fatalf("%s GOMAXPROCS=%d ShardCount=%d: prelock not exercised (PrelockBytes=%d, PlanReuse=%d)",
						p.name, procs, n, rep.Stats.PrelockBytes, rep.Stats.PlanReuse)
				}
				if wantTrace == "" {
					wantHash, wantVT, wantTrace = rep.OutputHash, rep.VirtualTime, tr.String()
					continue
				}
				if rep.OutputHash != wantHash || rep.VirtualTime != wantVT {
					t.Fatalf("%s GOMAXPROCS=%d ShardCount=%d: output=%#x vtime=%d differ from baseline output=%#x vtime=%d",
						p.name, procs, n, rep.OutputHash, rep.VirtualTime, wantHash, wantVT)
				}
				if s := tr.String(); s != wantTrace {
					t.Fatalf("%s GOMAXPROCS=%d ShardCount=%d: trace diverged:\n--- first ---\n%s\n--- now ---\n%s",
						p.name, procs, n, wantTrace, s)
				}
			}
		}
	}
}

// TestSingleShardHasNoCrossAcquires: with one domain every acquire is local,
// so the cross-domain counter must stay zero and the configured count must
// be echoed back.
func TestSingleShardHasNoCrossAcquires(t *testing.T) {
	opts := DefaultOptions()
	opts.ShardCount = 1
	rep := run(t, opts, crossShardChainProg(api.Addr(64), api.Addr(192)))
	if rep.Stats.MonitorShards != 1 {
		t.Fatalf("MonitorShards = %d, want 1", rep.Stats.MonitorShards)
	}
	if rep.Stats.CrossShardAcquires != 0 {
		t.Fatalf("CrossShardAcquires = %d with a single domain", rep.Stats.CrossShardAcquires)
	}
}
