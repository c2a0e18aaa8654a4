// Package slicestore implements slices and the shared metadata space that
// holds them (paper §4.2, §4.5).
//
// A slice is the paper's triple <tid, modifications, timestamp>: the
// byte-granularity memory updates of one synchronization-free stretch of one
// thread's execution, stamped with a vector clock. Slices are immutable once
// committed; threads exchange them by pointer during memory modification
// propagation (§4.3), so the store also plays the role of the paper's
// metadata space: it accounts for the memory slices and page snapshots
// consume and triggers garbage collection when usage crosses a threshold.
//
// The store is EpochStore (epoch.go): a log-structured store that appends
// commits into per-stripe arena-backed segments and reclaims whole segments
// against the vclock frontier. The seed's mutex-guarded map with a frontier
// sweep survives only as a reference implementation in the package tests
// (mapstore_test.go).
package slicestore

import (
	"rfdet/internal/mem"
	"rfdet/internal/vclock"
)

// Slice is one synchronization-free execution slice's modifications.
type Slice struct {
	// ID is a store-unique identifier (diagnostics only; determinism never
	// depends on it).
	ID uint64
	// Tid is the thread that executed the slice.
	Tid int32
	// Time is the slice's vector-clock timestamp: the owning thread's clock
	// when the slice ended. Slice A happens-before slice B iff
	// A.Time < B.Time (§4.2).
	Time vclock.VC
	// Mods is the ordered modification list, as byte runs. Under the
	// EpochStore the run payloads point into segment arena memory; the Run
	// headers and the Slice itself stay ordinary Go objects, so holding a
	// *Slice (propagation lists, pre-merge dedup) is always safe — only
	// reading payload bytes requires the slice to be uncollected or the
	// reader to hold an epoch pin.
	Mods []mem.Run
	// Bytes caches mem.RunBytes(Mods).
	Bytes uint64
}

// Cost returns the metadata-space bytes charged for the slice: the run
// payloads plus a fixed per-run and per-slice overhead approximating the
// paper's modification-list representation.
func (s *Slice) Cost() uint64 {
	return 64 + uint64(len(s.Mods))*24 + s.Bytes
}

const (
	// DefaultCapacity is the paper's metadata-space size (256 MB, §5.4).
	DefaultCapacity = 256 << 20
	// DefaultGCThresholdPct triggers GC at 90% usage (§5.4).
	DefaultGCThresholdPct = 90
)

// Metrics reports the epoch store's segment and arena internals for
// observability (Table 1 companions).
type Metrics struct {
	// SegmentsLive is the current number of epoch segments holding slices.
	SegmentsLive uint64
	// SegmentsDropped counts segments reclaimed whole by Collect.
	SegmentsDropped uint64
	// ArenaChunksAllocated counts arena chunks ever created.
	ArenaChunksAllocated uint64
	// ArenaChunksReused counts arena chunk gets served by recycling.
	ArenaChunksReused uint64
	// ArenaBytesInterned is the total payload bytes copied into arenas.
	ArenaBytesInterned uint64
}

// Pin is a handle on a reclamation epoch; see EpochStore.Pin. The zero value is
// released and Release on it is a no-op, so pins can be passed by value
// through wake events unconditionally.
type Pin struct {
	es *EpochStore
	id uint64
}

// Release ends the pin. Idempotence is not required of callers; the runtime
// releases each pin exactly once, after the deferred slice application it
// protects.
func (p Pin) Release() {
	if p.es != nil {
		p.es.unpin(p.id)
	}
}

// capacityAndThreshold applies the shared capacity/threshold defaulting.
func capacityAndThreshold(capacity uint64, thresholdPct int) (uint64, uint64) {
	if capacity == 0 {
		capacity = DefaultCapacity
	}
	if thresholdPct <= 0 || thresholdPct > 100 {
		thresholdPct = DefaultGCThresholdPct
	}
	// Multiply before dividing: capacity/100*pct truncates the quotient
	// first, which for capacities that are not multiples of 100 rounds
	// the threshold down by up to 99*pct bytes — and to zero for
	// capacities under 100, making every commit trigger a GC pass.
	return capacity, capacity * uint64(thresholdPct) / 100
}

// trimShrinkFloor is the retained-length cap below which TrimList reallocates
// instead of reslicing, when the backing array is at least 4x larger.
const trimShrinkFloor = 64

// TrimList filters a slice-pointer list in place, dropping slices with
// timestamps ≤ frontier, and returns the retained list. Threads call this
// during GC so their slice-pointer lists (§4.3) do not retain collected
// slices.
//
// When a trim retains only a small fraction of a large backing array, the
// survivors are copied into a right-sized allocation and the old array is
// released — the same retention class as a waitq kept at its high-water
// capacity forever: a thread that once accumulated a huge pointer list
// between GC passes would otherwise pin that array for the rest of the run.
func TrimList(list []*Slice, frontier vclock.VC) []*Slice {
	out := list[:0]
	for _, s := range list {
		if !s.Time.Leq(frontier) {
			out = append(out, s)
		}
	}
	// Zero the tail so collected slices become unreachable.
	for i := len(out); i < len(list); i++ {
		list[i] = nil
	}
	if cap(out) > trimShrinkFloor && len(out) < cap(out)/4 {
		shrunk := make([]*Slice, len(out))
		copy(shrunk, out)
		return shrunk
	}
	return out
}
