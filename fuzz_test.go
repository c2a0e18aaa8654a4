package rfdet_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"rfdet"
	"rfdet/internal/core"
	"rfdet/internal/harness"
	"rfdet/internal/workloads"
)

// This file fuzzes the determinism guarantee: seeded random multithreaded
// programs — full of data races, contended locks, atomics and joins — must
// produce identical outputs on every execution of every deterministic
// runtime, at any GOMAXPROCS. This is the programmatic generalization of
// the §5.1 racey stress test.

// fuzzProgram builds a random program from a seed. The program's *structure*
// (which operations each thread performs) is a pure function of the seed;
// its *behavior* additionally depends on racy memory contents, which is
// exactly what the deterministic runtimes must pin down. With raceFree set,
// every shared access is lock-protected or atomic, so ALL runtimes and ALL
// configurations must agree on the result.
func fuzzProgram(seed int64, raceFree bool) rfdet.ThreadFunc {
	return func(t rfdet.Thread) {
		r := rand.New(rand.NewSource(seed))
		nworkers := 2 + r.Intn(4)
		words := 64
		arr := t.Malloc(uint64(8 * words))
		atomWord := t.Malloc(8)
		nlocks := 1 + r.Intn(3)
		lockBase := rfdet.Addr(1 << 10)

		// Pre-generate each worker's script deterministically.
		type op struct {
			kind int
			a, b int
		}
		scripts := make([][]op, nworkers)
		for w := range scripts {
			nops := 30 + r.Intn(60)
			script := make([]op, nops)
			for i := range script {
				script[i] = op{kind: r.Intn(6), a: r.Intn(words), b: r.Intn(nlocks)}
			}
			scripts[w] = script
		}

		var ids []rfdet.ThreadID
		for w := 0; w < nworkers; w++ {
			script := scripts[w]
			me := uint64(w + 1)
			ids = append(ids, t.Spawn(func(t rfdet.Thread) {
				held := -1
				for _, o := range script {
					if raceFree && (o.kind == 0 || o.kind == 1) && held < 0 {
						// Race-free mode: plain accesses only inside a
						// critical section.
						o.kind = 2
					}
					switch o.kind {
					case 0: // read-modify-write
						v := t.Load64(arr + rfdet.Addr(8*o.a))
						if raceFree {
							// Commutative under the lock: the result is
							// schedule-independent, so every runtime and
							// configuration must agree exactly.
							t.Store64(arr+rfdet.Addr(8*o.a), v+me*2654435761)
						} else {
							t.Store64(arr+rfdet.Addr(8*o.a), v*1099511628211+me)
						}
					case 1: // copy between slots (racy mode only)
						if raceFree {
							v := t.Load64(arr + rfdet.Addr(8*o.a))
							t.Store64(arr+rfdet.Addr(8*o.a), v+me)
						} else {
							dst := (o.a * 7) % words
							t.Store64(arr+rfdet.Addr(8*dst), t.Load64(arr+rfdet.Addr(8*o.a)))
						}
					case 2: // critical section on one of the locks
						if held < 0 {
							lk := o.b
							if raceFree {
								lk = 0 // a single lock guards the shared word
							}
							t.Lock(lockBase + rfdet.Addr(8*lk))
							held = lk
							v := t.Load64(arr)
							t.Store64(arr, v+me) // commutative: schedule-independent
						}
					case 3: // release, if holding
						if held >= 0 {
							t.Unlock(lockBase + rfdet.Addr(8*held))
							held = -1
						}
					case 4: // deterministic atomic
						t.AtomicAdd64(atomWord, me)
					default: // compute
						t.Tick(uint64(10 + o.a))
					}
				}
				if held >= 0 {
					t.Unlock(lockBase + rfdet.Addr(8*held))
				}
			}))
		}
		for _, id := range ids {
			t.Join(id)
		}
		var fold uint64
		for i := 0; i < words; i++ {
			fold = fold*31 + t.Load64(arr+rfdet.Addr(8*i))
		}
		t.Observe(fold, t.Load64(atomWord))
	}
}

// TestFuzzDeterminism runs each generated program repeatedly on each
// deterministic runtime and demands identical hashes. Every run must also
// unwind completely: no thread or worker goroutine outlives it.
func TestFuzzDeterminism(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 5
	}
	runtimes := []func() rfdet.Runtime{
		func() rfdet.Runtime { return rfdet.NewCI() },
		func() rfdet.Runtime { return rfdet.NewPF() },
		func() rfdet.Runtime { return rfdet.NewDThreads() },
		func() rfdet.Runtime { return rfdet.NewCoreDet(5000) },
		func() rfdet.Runtime { return rfdet.NewRCDC(5000) },
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		prog := fuzzProgram(seed, false)
		for _, mk := range runtimes {
			rt := mk()
			var first uint64
			noGoroutineLeak(t, func() {
				for i := 0; i < 3; i++ {
					rep, err := rt.Run(prog)
					if err != nil {
						t.Fatalf("seed %d on %s: %v", seed, rt.Name(), err)
					}
					if i == 0 {
						first = rep.OutputHash
					} else if rep.OutputHash != first {
						t.Fatalf("seed %d on %s: run %d hash %#x != %#x",
							seed, rt.Name(), i, rep.OutputHash, first)
					}
				}
			})
		}
	}
}

// TestFuzzOptionsAgreeRaceFree runs race-free generated programs across the
// full RFDet option matrix. For race-free programs the C++ memory model
// fixes the result completely (§3.3), so every monitor and optimization
// combination — and every runtime — must agree exactly. No run may leave a
// goroutine behind.
func TestFuzzOptionsAgreeRaceFree(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	var opts []rfdet.Options
	for _, monitor := range []rfdet.Monitor{rfdet.MonitorCI, rfdet.MonitorPF} {
		for mask := 0; mask < 8; mask++ {
			opts = append(opts, rfdet.Options{
				Monitor:      monitor,
				SliceMerging: mask&1 != 0,
				Prelock:      mask&2 != 0,
				LazyWrites:   mask&4 != 0,
			})
		}
	}
	for seed := int64(100); seed < 100+int64(seeds); seed++ {
		prog := fuzzProgram(seed, true)
		var firstObs []uint64
		check := func(name string, rep *rfdet.Report) {
			obs := rep.Observations[0]
			if firstObs == nil {
				firstObs = obs
				return
			}
			for i := range obs {
				if obs[i] != firstObs[i] {
					t.Fatalf("seed %d: %s changed a race-free result (%v != %v)",
						seed, name, obs, firstObs)
				}
			}
		}
		noGoroutineLeak(t, func() {
			for _, o := range opts {
				rep, err := rfdet.New(o).Run(prog)
				if err != nil {
					t.Fatalf("seed %d opts %+v: %v", seed, o, err)
				}
				check(fmt.Sprintf("options %+v", o), rep)
			}
			for _, rt := range []rfdet.Runtime{rfdet.NewDThreads(), rfdet.NewPThreads()} {
				rep, err := rt.Run(prog)
				if err != nil {
					t.Fatalf("seed %d on %s: %v", seed, rt.Name(), err)
				}
				check(rt.Name(), rep)
			}
		})
	}
}

// TestFuzzOrderPreservingOptionsAgreeOnRaces: for racy programs, the
// monitor choice and the lazy-writes optimization never reorder
// modification application, so they must not change even racy results.
// (Prelock and slice merging may legitimately select a different —
// still deterministic — resolution of concurrent conflicting writes;
// the paper's guarantee for races is "arbitrary but deterministic",
// §3.4.) No run may leave a goroutine behind.
func TestFuzzOrderPreservingOptionsAgreeOnRaces(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	opts := []rfdet.Options{
		{Monitor: rfdet.MonitorCI},
		{Monitor: rfdet.MonitorPF},
		{Monitor: rfdet.MonitorCI, LazyWrites: true},
		{Monitor: rfdet.MonitorPF, LazyWrites: true},
	}
	for seed := int64(300); seed < 300+int64(seeds); seed++ {
		prog := fuzzProgram(seed, false)
		var first uint64
		noGoroutineLeak(t, func() {
			for i, o := range opts {
				rep, err := rfdet.New(o).Run(prog)
				if err != nil {
					t.Fatalf("seed %d opts %+v: %v", seed, o, err)
				}
				if i == 0 {
					first = rep.OutputHash
				} else if rep.OutputHash != first {
					t.Fatalf("seed %d: options %+v changed the result (%#x != %#x)",
						seed, o, rep.OutputHash, first)
				}
			}
		})
	}
}

// TestFuzzServerReplicasAgree is the end-to-end replica fuzz wall: for random
// request-log seeds and worker-thread counts, k replicas of the KV server
// across differing optimization stacks and GOMAXPROCS must produce
// byte-identical state hashes, response hashes, observation digests and
// virtual times. This fuzzes the active-replication property itself — the
// whole server-shaped execution (condvar queue, shard locks, barrier,
// atomics), not just generated kernels. No replica may leave a goroutine
// behind.
func TestFuzzServerReplicasAgree(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for i := 0; i < seeds; i++ {
		seed := uint64(0x1300) + uint64(i)*0x9e3779b97f4a7c15
		threads := 2 + int(seed%4) // 2..5 workers, derived from the seed
		cfg := workloads.Config{Threads: threads, Size: workloads.SizeTest}

		mk := func(name string, procs int, race bool) harness.ReplicaVariant {
			opts := core.DefaultOptions()
			opts.RaceDetect = race
			return harness.ReplicaVariant{Name: name, Procs: procs, Opts: opts}
		}
		variants := []harness.ReplicaVariant{
			mk("default/p1", 1, false),
			mk("racedetect/p4", 4, true),
			mk("racedetect/p8", 8, true),
			mk("default/p4", 4, false),
			mk("racedetect/p2", 2, true),
		}
		var rep *harness.ReplicaReport
		noGoroutineLeak(t, func() {
			rep = harness.RunServerReplicas(cfg, seed, variants)
		})
		if rep.Divergent() {
			t.Fatalf("seed %#x threads %d: replicas diverged:\n%s",
				seed, threads, fmtDivergences(rep.Divergences))
		}
		for j, run := range rep.Runs {
			if run.Err != nil {
				t.Fatalf("seed %#x replica %d (%s): %v", seed, j, run.Variant, run.Err)
			}
			if run.Summary.Served != uint64(rep.Requests) {
				t.Fatalf("seed %#x replica %d (%s): served %d of %d requests",
					seed, j, run.Variant, run.Summary.Served, rep.Requests)
			}
		}
	}
}

func fmtDivergences(ds []string) string {
	var out string
	for _, d := range ds {
		out += d + "\n"
	}
	return out
}

// TestFuzzValidated runs generated programs with the DLRC invariant checker
// enabled: the slice lists must satisfy the happens-before structure of
// §4.2/§4.3 on every execution, and no run may leave a goroutine behind.
func TestFuzzValidated(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(500); seed < 500+int64(seeds); seed++ {
		o := rfdet.Options{SliceMerging: true, Prelock: true, Validate: true}
		noGoroutineLeak(t, func() {
			if _, err := rfdet.New(o).Run(fuzzProgram(seed, false)); err != nil {
				t.Fatalf("seed %d failed validation: %v", seed, err)
			}
		})
	}
}

// TestFuzzGCPressureAgrees: metadata GC must be invisible to every
// deterministic observable. A pass drops only slices ≤ the meet of all live
// clocks — slices every thread has already merged, which no propagation
// filter can select again — so a metadata space small enough for GC to fire
// throughout the run must reproduce the default capacity's results. Even
// racy programs, under either monitor, with the full optimization stack, at
// any GOMAXPROCS, must produce bit-identical output hashes AND virtual
// times. At 8 KiB GC fires on many of these programs; the wall fails if it
// never fires, since it would then compare nothing. No run may leave a
// goroutine behind.
func TestFuzzGCPressureAgrees(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	bases := []rfdet.Options{
		{Monitor: rfdet.MonitorCI},
		{Monitor: rfdet.MonitorPF},
		{Monitor: rfdet.MonitorCI, SliceMerging: true, Prelock: true, LazyWrites: true},
		{Monitor: rfdet.MonitorPF, SliceMerging: true, Prelock: true, LazyWrites: true},
	}
	var runs, gcRuns int
	for seed := int64(1700); seed < 1700+int64(seeds); seed++ {
		prog := fuzzProgram(seed, false)
		for _, base := range bases {
			var firstOut, firstVT uint64
			haveFirst := false
			noGoroutineLeak(t, func() {
				for _, capacity := range []uint64{0, 8 << 10} {
					for _, procs := range []int{1, 2, 4, 8} {
						old := runtime.GOMAXPROCS(procs)
						o := base
						o.MetadataCapacity = capacity
						rep, err := rfdet.New(o).Run(prog)
						runtime.GOMAXPROCS(old)
						if err != nil {
							t.Fatalf("seed %d opts %+v cap=%d P=%d: %v", seed, base, capacity, procs, err)
						}
						runs++
						if rep.Stats.GCCount > 0 {
							gcRuns++
						}
						if !haveFirst {
							firstOut, firstVT, haveFirst = rep.OutputHash, rep.VirtualTime, true
						} else if rep.OutputHash != firstOut || rep.VirtualTime != firstVT {
							t.Fatalf("seed %d opts %+v cap=%d P=%d: GC changed the result (output %#x vtime %d != %#x %d)",
								seed, base, capacity, procs, rep.OutputHash, rep.VirtualTime, firstOut, firstVT)
						}
					}
				}
			})
		}
	}
	if gcRuns == 0 {
		t.Fatal("metadata GC never fired: the wall compared no GC-pressured run")
	}
	t.Logf("metadata GC fired in %d of %d runs", gcRuns, runs)
}
