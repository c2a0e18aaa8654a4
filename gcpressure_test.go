package rfdet_test

import (
	"testing"

	"rfdet"
	"rfdet/internal/core"
	"rfdet/internal/workloads"
)

// gcPressureCap is a metadata space small enough that slice GC fires
// throughout the small-size runs.
const gcPressureCap = 32 * 1024

// TestGCPressureInvisible runs every workload at small size with a 32 KiB
// metadata space against the default one. GC drops only slices below the
// meet of all live clocks — slices every live thread has already merged —
// so output and virtual time must not move. It must also fire on the
// workloads that commit the most slices, and it must not make collection
// rescan history: a trim that drops entries restarts the collect watermarks
// over that list, but a GC pass that reclaims nothing must leave them
// intact, so forced GC may cost at most a quarter more compared slices.
func TestGCPressureInvisible(t *testing.T) {
	names := append(workloads.Names(), "server", "canneal", "racey")
	mustGC := map[string]bool{"dedup": true, "ferret": true, "server": true}
	threads := []int{2, 4}
	if testing.Short() {
		threads = threads[:1]
	}
	forcedOpts := core.DefaultOptions()
	forcedOpts.MetadataCapacity = gcPressureCap
	def, forced := rfdet.New(core.DefaultOptions()), rfdet.New(forcedOpts)
	for _, n := range threads {
		cfg := workloads.Config{Threads: n, Size: workloads.SizeSmall}
		for _, name := range names {
			w, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			base, err := def.Run(w.Prog(cfg))
			if err != nil {
				t.Fatalf("%s/%d default: %v", name, n, err)
			}
			gc, err := forced.Run(w.Prog(cfg))
			if err != nil {
				t.Fatalf("%s/%d %d-byte metadata: %v", name, n, gcPressureCap, err)
			}
			if gc.OutputHash != base.OutputHash || gc.VirtualTime != base.VirtualTime {
				t.Fatalf("%s/%d: GC pressure changed output=%#x vtime=%d, default output=%#x vtime=%d",
					name, n, gc.OutputHash, gc.VirtualTime, base.OutputHash, base.VirtualTime)
			}
			if mustGC[name] && gc.Stats.GCCount == 0 {
				t.Fatalf("%s/%d: no reclaiming GC pass at a %d-byte metadata space", name, n, gcPressureCap)
			}
			if s, b := gc.Stats.CollectScanned, base.Stats.CollectScanned; 4*s > 5*b {
				t.Fatalf("%s/%d: forced GC compared %d slices in collection, default %d (bound 1.25x)",
					name, n, s, b)
			}
		}
	}
}
