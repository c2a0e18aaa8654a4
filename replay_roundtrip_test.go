package rfdet_test

import (
	"hash/fnv"
	"testing"

	"rfdet"
	"rfdet/internal/core"
	"rfdet/internal/replay"
)

// Replay round-trip under the extent-guided diff runtime.
//
// Two halves, mirroring §2's DMT-vs-R+R comparison with the new diffing in
// the loop:
//
//  1. The pthreads recorder/replayer must round-trip a schedule-dependent
//     program: replays reproduce the recorded observations AND the recorded
//     virtual time (virtual time is a pure function of the sync order the
//     log pins down).
//  2. RFDet needs no log at all — but its traced executions must be
//     self-identical across runs and identical between extent-guided and
//     full-page diffing, trace hash, virtual time and output alike.

// roundTripProgram is race-free but schedule-dependent: the final value of x
// encodes the order in which workers won the lock.
func roundTripProgram(t rfdet.Thread) {
	x := t.Malloc(8)
	mu := rfdet.Addr(64)
	var ids []rfdet.ThreadID
	for w := 0; w < 4; w++ {
		me := uint64(w + 1)
		ids = append(ids, t.Spawn(func(c rfdet.Thread) {
			for k := 0; k < 8; k++ {
				c.Lock(mu)
				c.Store64(x, c.Load64(x)*7+me) // non-commutative
				c.Unlock(mu)
			}
		}))
	}
	for _, id := range ids {
		t.Join(id)
	}
	t.Observe(t.Load64(x))
}

func TestReplayRoundTripReproducesVirtualTime(t *testing.T) {
	recRep, log, err := replay.NewRecorder().Record(roundTripProgram)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		repRep, err := replay.NewReplayer(log).Run(roundTripProgram)
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		if repRep.VirtualTime != recRep.VirtualTime {
			t.Fatalf("replay %d: virtual time %d, recorded %d — the log did not pin the schedule",
				i, repRep.VirtualTime, recRep.VirtualTime)
		}
		if got, want := repRep.Observations[0][0], recRep.Observations[0][0]; got != want {
			t.Fatalf("replay %d: observed %d, recorded %d", i, got, want)
		}
	}
}

func TestTracedRunsIdenticalWithExtentDiffing(t *testing.T) {
	traceHash := func() (uint64, *rfdet.Report) {
		opts := core.DefaultOptions()
		opts.Trace = true
		rep, tr, err := core.New(opts).RunTraced(roundTripProgram)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write([]byte(tr.String()))
		return h.Sum64(), rep
	}
	firstHash, firstRep := traceHash()
	for i := 1; i < 3; i++ {
		h, rep := traceHash()
		if h != firstHash || rep.VirtualTime != firstRep.VirtualTime || rep.OutputHash != firstRep.OutputHash {
			t.Fatalf("run %d: trace=%#x vt=%d out=%#x, first trace=%#x vt=%d out=%#x",
				i, h, rep.VirtualTime, rep.OutputHash, firstHash, firstRep.VirtualTime, firstRep.OutputHash)
		}
	}
	// Sanity: the default run actually exercised the fast path.
	if firstRep.Stats.DiffBytesSkipped == 0 {
		t.Fatal("extent-guided run skipped no bytes — dirty tracking was not live")
	}
}
