package api

import (
	"testing"
	"testing/quick"
)

func TestStatsAddAccumulatesCounters(t *testing.T) {
	a := Stats{Locks: 1, Unlocks: 2, Waits: 3, Signals: 4, Forks: 5, Joins: 6,
		Barriers: 7, AtomicsOps: 8, Loads: 9, Stores: 10, StoresWithCopy: 11,
		SlicesCreated: 12, SlicesMerged: 13, SlicesPropagated: 14,
		SlicesFilteredLow: 15, BytesPropagated: 16, PrelockBytes: 17,
		LazyPendingApplied: 18, LazyRunsElided: 19, PageFaults: 20,
		PageProtects: 21, TurnWaits: 22, GCCount: 23}
	b := a
	var sum Stats
	sum.Add(&a)
	sum.Add(&b)
	if sum.Locks != 2 || sum.Unlocks != 4 || sum.Waits != 6 || sum.Signals != 8 ||
		sum.Forks != 10 || sum.Joins != 12 || sum.Barriers != 14 || sum.AtomicsOps != 16 ||
		sum.Loads != 18 || sum.Stores != 20 || sum.StoresWithCopy != 22 {
		t.Fatalf("sync/memory counters wrong: %+v", sum)
	}
	if sum.SlicesCreated != 24 || sum.SlicesMerged != 26 || sum.SlicesPropagated != 28 ||
		sum.SlicesFilteredLow != 30 || sum.BytesPropagated != 32 || sum.PrelockBytes != 34 ||
		sum.LazyPendingApplied != 36 || sum.LazyRunsElided != 38 ||
		sum.PageFaults != 40 || sum.PageProtects != 42 || sum.TurnWaits != 44 {
		t.Fatalf("DLRC counters wrong: %+v", sum)
	}
	if sum.GCCount != 46 {
		t.Fatalf("GCCount = %d", sum.GCCount)
	}
}

func TestStatsAddCollectCounters(t *testing.T) {
	var sum Stats
	sum.Add(&Stats{CollectScanned: 3, CollectSkipped: 40, SliceListLen: 9})
	sum.Add(&Stats{CollectScanned: 5, CollectSkipped: 2, SliceListLen: 7})
	if sum.CollectScanned != 8 || sum.CollectSkipped != 42 || sum.SliceListLen != 9 {
		t.Fatalf("collect counters wrong: %+v", sum)
	}
}

func TestStatsAddTakesMaxOfHighWaters(t *testing.T) {
	var sum Stats
	sum.Add(&Stats{SharedMemBytes: 100, RuntimeMemBytes: 50, MetadataBytes: 10})
	sum.Add(&Stats{SharedMemBytes: 60, RuntimeMemBytes: 200, MetadataBytes: 5})
	if sum.SharedMemBytes != 100 || sum.RuntimeMemBytes != 200 || sum.MetadataBytes != 10 {
		t.Fatalf("high-water merge wrong: %+v", sum)
	}
}

func TestMemOps(t *testing.T) {
	f := func(loads, stores uint32) bool {
		s := Stats{Loads: uint64(loads), Stores: uint64(stores)}
		return s.MemOps() == uint64(loads)+uint64(stores)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestObservationsDigest(t *testing.T) {
	rep := func(obs map[ThreadID][]uint64) *Report { return &Report{Observations: obs} }
	base := rep(map[ThreadID][]uint64{0: {1, 2}, 1: {3}})
	same := rep(map[ThreadID][]uint64{1: {3}, 0: {1, 2}})
	if base.ObservationsDigest() != same.ObservationsDigest() {
		t.Fatal("digest depends on map insertion order")
	}
	// Any change — a value, an owner, or a boundary shift — must change it.
	diffs := []*Report{
		rep(map[ThreadID][]uint64{0: {1, 2}, 1: {4}}),        // value changed
		rep(map[ThreadID][]uint64{0: {1, 2}, 2: {3}}),        // owner changed
		rep(map[ThreadID][]uint64{0: {1, 2, 3}, 1: {}}),      // boundary moved
		rep(map[ThreadID][]uint64{0: {1}, 1: {2, 3}}),        // boundary moved
		rep(map[ThreadID][]uint64{0: {1, 2}, 1: {3}, 2: {}}), // empty log added
	}
	for i, d := range diffs {
		if d.ObservationsDigest() == base.ObservationsDigest() {
			t.Fatalf("variant %d collides with the base digest", i)
		}
	}
}
