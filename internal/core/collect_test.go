package core

import (
	"math/rand"
	"testing"

	"rfdet/internal/api"
	"rfdet/internal/slicestore"
	"rfdet/internal/vclock"
)

// naiveCollect is the reference for collectLocked: the full-history scan,
// which walks the whole of from's list with the upperlimit, lowerlimit and
// pre-merged filters and keeps no watermark.
func naiveCollect(t, from *thread, upper vclock.VC) []*slicestore.Slice {
	var out []*slicestore.Slice
	for _, s := range from.slicePtrs {
		if s.Time.Leq(t.vtime) {
			continue
		}
		if t.preMerged != nil && t.preMerged[s] {
			continue
		}
		if s.Time.Leq(upper) {
			out = append(out, s)
		}
	}
	return out
}

// collectSim drives the slice-list and clock mutations the runtime performs
// — commits, acquires, prelock pre-merges, GC trims, barrier re-clones and
// spawns — on bare thread structs, checking every collection against
// naiveCollect.
type collectSim struct {
	tb       *testing.T
	rng      *rand.Rand
	threads  []*thread
	releases [][]vclock.VC // per thread: the timestamps it has released
	collects int
	skipped  uint64
}

func newCollectSim(tb *testing.T, seed int64, n int) *collectSim {
	s := &collectSim{tb: tb, rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < n; i++ {
		s.addThread(vclock.New(n).Set(i, 1), nil)
	}
	return s
}

func (s *collectSim) addThread(v vclock.VC, list []*slicestore.Slice) *thread {
	t := &thread{id: api.ThreadID(len(s.threads)), vtime: v}
	t.slicePtrs = append(t.slicePtrs, list...)
	s.threads = append(s.threads, t)
	s.releases = append(s.releases, []vclock.VC{v.Clone()})
	return t
}

func (s *collectSim) pick() *thread { return s.threads[s.rng.Intn(len(s.threads))] }

// pickOther returns a thread other than t, or nil if there is none.
func (s *collectSim) pickOther(t *thread) *thread {
	if len(s.threads) < 2 {
		return nil
	}
	for {
		if f := s.pick(); f != t {
			return f
		}
	}
}

// commit publishes a slice stamped with t's clock and bumps the clock, as
// commitSliceLocked does; the pre-bump clock becomes a release timestamp.
func (s *collectSim) commit(t *thread) {
	tend := t.vtime.Clone()
	t.slicePtrs = append(t.slicePtrs, &slicestore.Slice{Tid: int32(t.id), Time: tend})
	t.vtime = t.vtime.Bump(int(t.id))
	s.releases[t.id] = append(s.releases[t.id], tend)
}

// collect runs collectLocked and naiveCollect side by side and fails on any
// difference in the returned list or in the scanned/skipped accounting.
func (s *collectSim) collect(t, from *thread, upper vclock.VC) []*slicestore.Slice {
	s.tb.Helper()
	want := naiveCollect(t, from, upper)
	before := t.st
	got := t.collectLocked(from, upper)
	s.collects++
	if len(got) != len(want) || !sameSlices(got, want) {
		s.tb.Fatalf("collect #%d (T%d from T%d, list %d): got %d slices, want %d",
			s.collects, t.id, from.id, len(from.slicePtrs), len(got), len(want))
	}
	scanned := t.st.CollectScanned - before.CollectScanned
	skipped := t.st.CollectSkipped - before.CollectSkipped
	if scanned+skipped != uint64(len(from.slicePtrs)) {
		s.tb.Fatalf("collect #%d: scanned %d + skipped %d != list length %d",
			s.collects, scanned, skipped, len(from.slicePtrs))
	}
	s.skipped += skipped
	return got
}

// acquire is acquireFromCollectLocked against one of from's past releases.
func (s *collectSim) acquire(t, from *thread) {
	rel := s.releases[from.id]
	upper := rel[s.rng.Intn(len(rel))]
	t.slicePtrs = append(t.slicePtrs, s.collect(t, from, upper)...)
	t.vtime = t.vtime.Join(upper)
	t.preMerged = nil
}

// premerge is prelockLocked: t collects everything up to holder's current
// clock without joining it, remembering the slices in preMerged.
func (s *collectSim) premerge(t, holder *thread) {
	slices := s.collect(t, holder, holder.vtime.Clone())
	if len(slices) == 0 {
		return
	}
	if t.preMerged == nil {
		t.preMerged = make(map[*slicestore.Slice]bool)
	}
	for _, sl := range slices {
		t.preMerged[sl] = true
	}
	t.slicePtrs = append(t.slicePtrs, slices...)
}

// gc trims every list at the meet of all clocks (every thread is live), as
// gcLocked does, then trims again at the same frontier: the second pass
// drops nothing and must keep every list's generation.
func (s *collectSim) gc() {
	clocks := make([]vclock.VC, len(s.threads))
	for i, t := range s.threads {
		clocks[i] = t.vtime
	}
	frontier := vclock.MeetAll(clocks)
	for _, t := range s.threads {
		t.trimSliceList(frontier)
	}
	for _, t := range s.threads {
		gen := t.listGen
		t.trimSliceList(frontier)
		if t.listGen != gen {
			s.tb.Fatalf("T%d: a trim that dropped nothing started a new list generation", t.id)
		}
	}
}

// barrier merges a random subset of at least two threads the way Barrier
// does: the lowest ID collects from every other arrival, then each arrival
// adopts the leader's list and the merged clock.
func (s *collectSim) barrier() {
	var arrivals []*thread
	for _, t := range s.threads {
		if s.rng.Intn(2) == 0 {
			arrivals = append(arrivals, t)
		}
	}
	if len(arrivals) < 2 {
		return
	}
	leader := arrivals[0]
	merged := leader.vtime.Clone()
	for _, a := range arrivals[1:] {
		merged = merged.Join(a.vtime)
	}
	for _, a := range arrivals[1:] {
		v := a.vtime.Clone()
		leader.slicePtrs = append(leader.slicePtrs, s.collect(leader, a, v)...)
		leader.vtime = leader.vtime.Join(v)
	}
	leader.vtime = leader.vtime.Join(merged)
	for _, w := range arrivals[1:] {
		w.adoptSliceList(leader.slicePtrs)
		w.vtime = w.vtime.Join(merged)
		w.preMerged = nil
	}
}

// spawn is Spawn: the parent commits, and the child inherits its list and a
// clock that extends the pre-bump timestamp.
func (s *collectSim) spawn(parent *thread) {
	s.commit(parent)
	rel := s.releases[parent.id]
	tend := rel[len(rel)-1]
	s.addThread(tend.Clone().Set(len(s.threads), 1), parent.slicePtrs)
}

// TestCollectWatermarkMatchesFullScan drives collectLocked through
// randomized histories and demands, on every call, exactly the slices the
// full-history scan returns, in the same order.
func TestCollectWatermarkMatchesFullScan(t *testing.T) {
	seeds, steps := 200, 400
	if testing.Short() {
		seeds = 40
	}
	var collects int
	var skipped uint64
	for seed := int64(1); seed <= int64(seeds); seed++ {
		s := newCollectSim(t, seed, 2+int(seed%3))
		for step := 0; step < steps; step++ {
			switch r := s.rng.Intn(100); {
			case r < 40:
				s.commit(s.pick())
			case r < 75:
				c := s.pick()
				if f := s.pickOther(c); f != nil {
					s.acquire(c, f)
				}
			case r < 82:
				c := s.pick()
				if f := s.pickOther(c); f != nil {
					s.premerge(c, f)
				}
			case r < 90:
				s.gc()
			case r < 97:
				s.barrier()
			default:
				if len(s.threads) < 8 {
					s.spawn(s.pick())
				}
			}
		}
		collects += s.collects
		skipped += s.skipped
	}
	if skipped == 0 {
		t.Fatalf("%d collects never stepped over a watermark: the oracle did not exercise it", collects)
	}
}
