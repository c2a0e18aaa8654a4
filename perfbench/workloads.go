package main

import (
	"fmt"

	"rfdet/internal/api"
	"rfdet/internal/workloads"
)

// threads is the worker count of every workload: the number of cores of
// the host the benchmark was calibrated on, so workers do not share a core.
const threads = 2

// workload is one program the benchmark runs on every runtime.
type workload struct {
	name string
	// server marks the KV server. Its responses depend on the order workers
	// win locks, so only its schedule-independent digests are compared
	// across runtimes; the other workloads are race-free kernels whose
	// output is the same on every runtime.
	server bool
	size   workloads.Size
	prog   func(size workloads.Size, seed uint64) api.ThreadFunc
}

// The kernels' inputs are fixed by internal/workloads; only the server's
// request log is generated from the seed.
var benchWorkloads = []workload{
	{
		// water-ns: mutex ping-pong, so collect and turn arbitration
		// dominate and memory diffing is light.
		name: "lock-handoff", size: workloads.SizeMedium,
		prog: func(size workloads.Size, _ uint64) api.ThreadFunc {
			return workloads.WaterNS(workloads.Config{Threads: threads, Size: size})
		},
	},
	{
		// The KV server: the same acquire path reached through condvar
		// wake handoffs, plan reuse and atomics; the heaviest slice-store
		// user.
		name: "kv-server", server: true, size: workloads.SizeSmall,
		prog: func(size workloads.Size, seed uint64) api.ThreadFunc {
			return workloads.ServerSeeded(workloads.Config{Threads: threads, Size: size}, seed)
		},
	},
	{
		// fft: few sync operations but MB-scale diffs and propagation,
		// so page diffing and applying dominate.
		name: "bulk-barrier", size: workloads.SizeMedium,
		prog: func(size workloads.Size, _ uint64) api.ThreadFunc {
			return workloads.FFT(workloads.Config{Threads: threads, Size: size})
		},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// serverLogs is how many request logs a kv-server run cycles through. Logs
// from different seeds differ by about 4 % in collect work, so one run
// measures the mean of several rather than the luck of one.
const serverLogs = 8

// inputs returns the program seeds a run with the given seed cycles
// through: serverLogs request-log seeds for the server, and the seed alone
// for a kernel, whose input it does not change.
func (w workload) inputs(seed uint64) []uint64 {
	if !w.server {
		return []uint64{seed}
	}
	in := make([]uint64, serverLogs)
	for k := range in {
		in[k] = seed*serverLogs + uint64(k)
	}
	return in
}

// requests is the number of requests one execution serves: the server's
// log length, or 1 for a batch kernel, whose whole execution is the
// request.
func (w workload) requests() int {
	if w.server {
		return workloads.ServerRequests(w.size)
	}
	return 1
}
