package slicestore

import (
	"sync"
	"sync/atomic"

	"rfdet/internal/mem"
	"rfdet/internal/stats"
	"rfdet/internal/vclock"
)

// Store is the surface EpochStore and the MapStore reference share, so
// bothStores can run one test body against each.
type Store interface {
	// AllocSnapshot charges one page snapshot to the metadata space (taken
	// on the first write to a page within a slice, Figure 4). The stripe
	// hint attributes the charge to the calling thread's accounting cell.
	AllocSnapshot(stripe int)
	// FreeSnapshot releases one page snapshot's accounting: the paper frees
	// snapshot memory immediately after the byte-granularity modification
	// list is built by page diffing (§5.4).
	FreeSnapshot(stripe int)
	// Commit registers a finished slice and reports whether usage crossed
	// the GC threshold, in which case the caller should garbage-collect.
	Commit(s *Slice) (needGC bool)
	// Collect reclaims slices whose timestamps are ≤ frontier (§4.5) and
	// returns the number reclaimed.
	Collect(frontier vclock.VC) int
	// Pin marks the current reclamation epoch as in use. Until the returned
	// pin is released, payload memory of slices collected after the pin was
	// taken is quarantined rather than recycled, so the pinning reader can
	// keep dereferencing the slices it already holds. The zero Pin is a
	// released no-op; the MapStore (where reclaimed payloads are simply
	// garbage-collected by Go) returns it directly.
	Pin() Pin

	Capacity() uint64
	GCThreshold() uint64
	Used() uint64
	HighWater() uint64
	GCCount() uint64
	// EmptyGCCount counts Collect passes that reclaimed nothing. They are
	// reported separately from GCCount so snapshot-churn threshold
	// crossings do not inflate the Table 1 "GC" column.
	EmptyGCCount() uint64
	Live() int
	TotalCreated() uint64
	Stripes() int
	StripeUsed(stripe int) int64
	// Metrics returns implementation-specific counters (zeros for MapStore).
	Metrics() Metrics
}

// MapStore is the seed metadata space, kept as the reference the epoch
// store is checked against: a single mutex-guarded map of live slices with
// a full-sweep Collect. Its budget accounting is the specification
// EpochStore must reproduce byte for byte under the same commits and
// frontiers.
//
// All usage accounting (used, highWater) and the scalar counters are plain
// atomics, so snapshot bookkeeping — AllocSnapshot on the store path of a
// running slice, FreeSnapshot on the off-monitor diff path — never contends
// with commits or collections. The mutex guards only the live-slice map.
//
// Usage is kept twice: one exact atomic (used) that is the capacity budget,
// and a striped per-domain attribution (perStripe) whose cells sum to used.
// The budget deliberately stays a single atomic: GC-trigger decisions must
// see the exact linearized usage at each charge, and a stripe-summed
// approximation would reintroduce the missed/double-trigger races that
// Commit's charge-returned value exists to rule out.
type MapStore struct {
	//detvet:lockorder 30
	mu sync.Mutex //detvet:nativesync guards only the live-slice map; charging is lock-free and commits/collections from different monitor domains must not serialize on usage accounting
	//detvet:guardedby mu
	slices map[uint64]*Slice
	//detvet:notguarded fixed at construction, immutable thereafter
	capacity    uint64
	gcThreshold uint64 //detvet:notguarded fixed at construction, immutable thereafter

	nextID       atomic.Uint64
	used         atomic.Int64 // slices + snapshots, bytes (the exact budget)
	perStripe    *stats.Striped
	highWater    atomic.Int64
	gcCount      atomic.Uint64
	emptyGC      atomic.Uint64
	totalCreated atomic.Uint64
}

// NewStore returns a map-backed metadata space with the given capacity (0
// means DefaultCapacity) and GC threshold percentage (0 means 90), with a
// single accounting stripe.
func NewStore(capacity uint64, thresholdPct int) *MapStore {
	return NewStriped(capacity, thresholdPct, 1)
}

// NewStriped is NewStore with per-domain usage attribution: charges carry a
// stripe hint (a thread or shard id) and accumulate into one of stripes
// cache-padded cells, so concurrent accounting from different commit-monitor
// domains does not bounce a shared cache line for the observability half of
// the bookkeeping. The stripes always sum to the single exact budget.
func NewStriped(capacity uint64, thresholdPct, stripes int) *MapStore {
	capacity, threshold := capacityAndThreshold(capacity, thresholdPct)
	return &MapStore{
		slices:      make(map[uint64]*Slice),
		capacity:    capacity,
		gcThreshold: threshold,
		perStripe:   stats.NewStriped(stripes),
	}
}

// Capacity returns the configured metadata-space size.
func (st *MapStore) Capacity() uint64 { return st.capacity }

// GCThreshold returns the usage level (bytes) at which Commit requests a
// garbage-collection pass.
func (st *MapStore) GCThreshold() uint64 { return st.gcThreshold }

// AllocSnapshot implements Store.
func (st *MapStore) AllocSnapshot(stripe int) { st.charge(stripe, mem.PageSize) }

// FreeSnapshot implements Store.
func (st *MapStore) FreeSnapshot(stripe int) { st.charge(stripe, -mem.PageSize) }

// charge adjusts usage by delta, attributes it to the given stripe, and
// returns the post-add budget value — the exact usage at the instant this
// charge linearized on the used atomic. Callers deciding anything from the
// charge (Commit's GC trigger) must use the returned value, never a
// re-load: between Add and a later Load, a FreeSnapshot on the off-monitor
// diff path can dip usage back under a threshold the Add crossed.
func (st *MapStore) charge(stripe int, delta int64) int64 {
	st.perStripe.Add(stripe, delta)
	used := st.used.Add(delta)
	for {
		hw := st.highWater.Load()
		if used <= hw || st.highWater.CompareAndSwap(hw, used) {
			return used
		}
	}
}

// Commit registers a finished slice and reports whether usage has crossed
// the GC threshold, in which case the caller should garbage-collect. The
// decision is made from the commit's own post-charge usage, so a threshold
// crossing is reported by exactly the charge that crossed it regardless of
// how concurrent snapshot frees interleave.
//
// The charge lands before the slice is published to the map: a Collect
// racing this commit (turn-elided commits run off-turn) either misses the
// slice entirely or sees it with its cost already in the budget, so the
// collection's credit always cancels a charge that happened. Publishing
// first would let a racing Collect delete-and-credit the slice before its
// own charge landed, permanently inflating the budget by one slice cost.
func (st *MapStore) Commit(s *Slice) (needGC bool) {
	s.ID = st.nextID.Add(1)
	st.totalCreated.Add(1)
	needGC = uint64(st.charge(int(s.Tid), int64(s.Cost()))) >= st.gcThreshold
	st.mu.Lock()
	st.slices[s.ID] = s
	st.mu.Unlock()
	return needGC
}

// Collect removes every slice whose timestamp is ≤ frontier: such slices
// have been merged into the local memory of every thread (§4.5, "Garbage
// Collection") and can never again pass a propagation filter. It returns the
// number of slices reclaimed.
//
// Victims are credited back to the budget before the mutex is released —
// atomically with publishing the collection. Crediting after the unlock
// opens a window in which the map no longer holds the victims but the
// budget still charges for them, so a concurrent Commit or Used reading
// observes inflated usage and can spuriously report needGC.
func (st *MapStore) Collect(frontier vclock.VC) int {
	st.mu.Lock()
	var victims []*Slice
	//detvet:orderfree victims is only summed over (Cost) and counted; membership, not order, matters. See TestCollectOrderFree.
	for id, s := range st.slices {
		if s.Time.Leq(frontier) {
			victims = append(victims, s)
			delete(st.slices, id)
		}
	}
	// Credit each victim back to the stripe its commit charged, so the
	// stripes keep summing to the budget.
	for _, s := range victims {
		st.charge(int(s.Tid), -int64(s.Cost()))
	}
	st.mu.Unlock()
	if len(victims) > 0 {
		st.gcCount.Add(1)
	} else {
		st.emptyGC.Add(1)
	}
	return len(victims)
}

// Pin implements Store. Reclaimed map-store slices are ordinary Go garbage,
// so readers never need protection; the returned pin is the released zero
// value.
func (st *MapStore) Pin() Pin { return Pin{} }

// Stripes returns the number of usage-attribution stripes.
func (st *MapStore) Stripes() int { return st.perStripe.Len() }

// StripeUsed returns the usage attributed to one stripe. Stripes are
// attribution for observability, not budgets; only their sum (== Used when
// quiescent) is the capacity budget.
func (st *MapStore) StripeUsed(stripe int) int64 { return st.perStripe.Load(stripe) }

// Used returns the current metadata-space usage in bytes.
func (st *MapStore) Used() uint64 { return uint64(st.used.Load()) }

// HighWater returns the metadata-space usage high-water mark (the
// MetadataSpaceMemory term in §5.4's footprint equation).
func (st *MapStore) HighWater() uint64 { return uint64(st.highWater.Load()) }

// GCCount returns the number of Collect passes that reclaimed at least one
// slice (Table 1, "GC"). Passes that found nothing below the frontier are
// counted by EmptyGCCount instead.
func (st *MapStore) GCCount() uint64 { return st.gcCount.Load() }

// EmptyGCCount returns the number of Collect passes that reclaimed nothing.
func (st *MapStore) EmptyGCCount() uint64 { return st.emptyGC.Load() }

// Live returns the number of live slices.
func (st *MapStore) Live() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.slices)
}

// TotalCreated returns the number of slices ever committed.
func (st *MapStore) TotalCreated() uint64 { return st.totalCreated.Load() }

// Metrics implements Store; the map store has no segments or arenas.
func (st *MapStore) Metrics() Metrics { return Metrics{} }
