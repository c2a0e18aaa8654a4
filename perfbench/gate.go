package main

import (
	"fmt"

	"rfdet/internal/api"
	"rfdet/internal/workloads"
)

// gate is the determinism check every execution of a run passes through.
// Executions are compared per input, the program seed they ran on. An
// execution fails if it returns an error or if any of these differ:
//   - a deterministic runtime's OutputHash or VirtualTime from that
//     runtime's first execution of the input (traced executions included:
//     tracing is observational);
//   - a race-free kernel's OutputHash from pthreads' first OutputHash;
//   - the server's request count or schedule-independent log digest from
//     what the input's log must give.
//
// A failed execution is counted, never skipped.
type gate struct {
	w         workload
	first     map[gateRef]*api.Report
	attempted int
	failed    int
	errs      []error
}

// gateRef names a runtime's executions of one input.
type gateRef struct {
	key   string
	input int
}

func newGate(w workload) *gate {
	return &gate{w: w, first: map[gateRef]*api.Report{}}
}

// check records one execution of input on the runtime with the given gate
// key. The key "pthreads" marks the nondeterministic baseline, whose first
// execution of an input is the cross-runtime reference; every other key is
// a deterministic runtime.
func (g *gate) check(key string, input int, rep *api.Report, err error) bool {
	g.attempted++
	if err == nil {
		err = g.compare(gateRef{key, input}, rep)
	}
	if err != nil {
		g.failed++
		if len(g.errs) < 5 {
			g.errs = append(g.errs, fmt.Errorf("%s execution %d on %s, input %d: %w", g.w.name, g.attempted, key, input, err))
		}
		return false
	}
	return true
}

func (g *gate) compare(r gateRef, rep *api.Report) error {
	ref, seen := g.first[r]
	if !seen {
		g.first[r] = rep
	}
	base, haveBase := g.first[gateRef{"pthreads", r.input}]
	if g.w.server {
		sum, err := workloads.SummarizeServer(rep)
		if err != nil {
			return err
		}
		if want := uint64(g.w.requests()); sum.Served != want {
			return fmt.Errorf("served %d requests, want %d", sum.Served, want)
		}
		if haveBase {
			bs, err := workloads.SummarizeServer(base)
			if err != nil {
				return err
			}
			if sum.LogHash != bs.LogHash {
				return fmt.Errorf("request-log digest %#x, pthreads had %#x", sum.LogHash, bs.LogHash)
			}
		}
	} else if haveBase && rep.OutputHash != base.OutputHash {
		return fmt.Errorf("output hash %#x, pthreads had %#x", rep.OutputHash, base.OutputHash)
	}
	if r.key == "pthreads" || !seen {
		return nil
	}
	if rep.OutputHash != ref.OutputHash || rep.VirtualTime != ref.VirtualTime {
		return fmt.Errorf("output hash %#x / virtual time %d, first execution had %#x / %d",
			rep.OutputHash, rep.VirtualTime, ref.OutputHash, ref.VirtualTime)
	}
	return nil
}
