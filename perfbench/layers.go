package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"rfdet"
	"rfdet/internal/api"
	"rfdet/internal/trace"
)

// perLayer is the traced run. Each round runs the next input on pthreads,
// RFDet-ci untraced, RFDet-ci traced (Options.PhaseTrace plus the timing
// wrapper) and dthreads, all through the gate. Per-layer metrics are medians over the
// traced executions; the first traced execution's spans stay in memory and
// are written as Chrome-trace JSON when the run ends.
func (b *bench) perLayer(d time.Duration, outDir string, log io.Writer) (map[string]float64, error) {
	opts := rfdet.DefaultOptions()
	opts.PhaseTrace = true
	traced := rfdet.New(opts)
	dthreads := rfdet.NewDThreads()

	layers := map[string][]float64{}
	var plain, tracedWall, pt, dt, gcs, pauses, mallocs []float64
	var kept []chromeEvent
	steal := startSteal()
	deadline := time.Now().Add(d)
	for round := 0; round < minExecutions || time.Now().Before(deadline); round++ {
		in := round % len(b.inputs)
		pt = append(pt, ms(b.execute(b.pthreads, "pthreads", in, nil).wall))
		ex := b.execute(b.ci, "rfdet-ci", in, nil)
		plain = append(plain, ms(ex.wall))
		gcs = append(gcs, float64(ex.gcs))
		pauses = append(pauses, float64(ex.gcPauseNs)/1e6)
		mallocs = append(mallocs, float64(ex.mallocs))

		var rec *recorder
		ex = b.execute(traced, "rfdet-ci", in, func(p api.ThreadFunc) api.ThreadFunc {
			rec = newRecorder()
			return rec.wrap(p)
		})
		tracedWall = append(tracedWall, ms(ex.wall))
		if ex.ok {
			m, theta, err := analyze(ex.rep, rec)
			if err != nil {
				return nil, fmt.Errorf("traced execution %d: %w", round, err)
			}
			for k, v := range m {
				layers[k] = append(layers[k], v)
			}
			if kept == nil {
				kept = chromeSpans(round, ex.rep.Phases, rec, theta)
			}
		}
		dt = append(dt, ms(b.execute(dthreads, "dthreads", in, nil).wall))
	}
	fmt.Fprintf(log, "# CPU steal during the timed loop: %s\n", steal.share())
	if kept == nil {
		return nil, fmt.Errorf("no traced execution passed the determinism gate")
	}
	path := filepath.Join(outDir, "perfbench-"+b.w.name+"-trace.json")
	if err := writeChrome(path, kept); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "# traced rfdet-ci: %d executions, wall ms quartiles %s\n", len(tracedWall), quartileString(tracedWall))
	fmt.Fprintf(log, "# untraced rfdet-ci: %d executions, wall ms quartiles %s\n", len(plain), quartileString(plain))
	fmt.Fprintf(log, "# spans of the first traced execution: %d events in %s (validated)\n", len(kept), path)

	out := map[string]float64{
		"go.gc_cycles":         median(gcs),
		"go.gc_pause_ms":       median(pauses),
		"go.mallocs":           median(mallocs),
		"pthreads.wall_ms":     median(pt),
		"dthreads.wall_ms":     median(dt),
		"trace.wall_ms":        median(tracedWall),
		"trace.overhead_ratio": median(tracedWall) / median(plain),
	}
	for k, vs := range layers {
		out[k] = median(vs)
	}
	return out, nil
}

// analyze computes one traced execution's per-layer metrics and the offset
// of its phase collector's epoch on the recorder's clock. It fails if the
// phase spans do not reconcile with the Stats counters.
func analyze(rep *api.Report, rec *recorder) (map[string]float64, int64, error) {
	ph, st := rep.Phases, &rep.Stats
	if ph == nil {
		return nil, 0, fmt.Errorf("no phase report")
	}
	counts, totals, pcts := ph.PhaseCounts(), ph.PhaseTotals(), ph.PhasePercentiles()
	if counts[trace.PhaseTurnWait] != st.TurnWaits {
		return nil, 0, fmt.Errorf("turn-wait spans %d != Stats.TurnWaits %d", counts[trace.PhaseTurnWait], st.TurnWaits)
	}
	if got := uint64(totals[trace.PhaseDiff]); got != st.DiffNanos {
		return nil, 0, fmt.Errorf("diff span total %d ns != Stats.DiffNanos %d", got, st.DiffNanos)
	}
	if got := uint64(totals[trace.PhaseApply] + totals[trace.PhasePremerge]); got != st.ApplyNanos {
		return nil, 0, fmt.Errorf("apply+premerge span total %d ns != Stats.ApplyNanos %d", got, st.ApplyNanos)
	}
	theta, err := epochOffset(ph, rec)
	if err != nil {
		return nil, 0, err
	}

	m := map[string]float64{}
	var durs [numOps][]int64
	for _, l := range rec.logs {
		for _, c := range l.calls {
			durs[c.op] = append(durs[c.op], c.end-c.start)
		}
	}
	for _, d := range durs {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	}
	for _, o := range timedOps {
		d := durs[o]
		var total int64
		for _, x := range d {
			total += x
		}
		p := "core." + o.String()
		m[p+"_calls"] = float64(len(d))
		m[p+"_us_p50"] = float64(nearestRank(d, 50)) / 1e3
		m[p+"_us_p99"] = float64(nearestRank(d, 99)) / 1e3
		m[p+"_ms"] = float64(total) / 1e6
	}
	for _, o := range countedOps {
		m["core."+o.String()+"_calls"] = float64(len(durs[o]))
	}
	m["alloc.malloc_calls"] = float64(len(durs[opMalloc]))
	m["alloc.malloc_us_p50"] = float64(nearestRank(durs[opMalloc], 50)) / 1e3
	coreSelf, memSelf := selfTimes(ph, rec, theta)
	m["core.self_ms"] = ms(coreSelf)
	m["core.user_ms"] = ms(ph.UserTime())
	m["core.monitor_wait_ms"] = ms(totals[trace.PhaseMonitorWait])
	m["core.collect_scanned"] = float64(st.CollectScanned)
	m["core.collect_useful_ratio"] = ratio(st.SlicesPropagated, st.CollectScanned)
	m["core.monitor_acquires"] = float64(st.MonitorAcquires)
	m["core.rendezvous_ops"] = float64(st.RendezvousOps)

	tw := pcts[trace.PhaseTurnWait]
	m["kendo.turn_waits"] = float64(st.TurnWaits)
	m["kendo.turn_wait_ms"] = ms(totals[trace.PhaseTurnWait])
	m["kendo.turn_wait_us_p50"] = float64(tw.P50) / 1e3
	m["kendo.turn_wait_us_p95"] = float64(tw.P95) / 1e3
	m["kendo.turn_wait_us_p99"] = float64(tw.P99) / 1e3

	m["mem.self_ms"] = ms(memSelf)
	m["mem.diff_ms"] = ms(totals[trace.PhaseDiff])
	m["mem.plan_ms"] = ms(totals[trace.PhasePlanBuild])
	// Prelock pre-merge is apply work done early (§4.5); fft never does it.
	m["mem.apply_ms"] = ms(totals[trace.PhaseApply] + totals[trace.PhasePremerge])
	m["mem.lazy_flush_ms"] = ms(totals[trace.PhaseLazyFlush])
	m["mem.block_ms"] = ms(totals[trace.PhaseBlock])
	m["mem.diff_bytes_scanned"] = float64(st.DiffBytesScanned)
	m["mem.diff_skip_ratio"] = ratio(st.DiffBytesSkipped, st.DiffBytesScanned+st.DiffBytesSkipped)
	m["mem.bytes_propagated"] = float64(st.BytesPropagated)
	m["mem.coalesced_away_ratio"] = ratio(st.BytesCoalescedAway, st.BytesPropagated)
	m["mem.stores_with_copy"] = float64(st.StoresWithCopy)
	m["mem.plan_reuse"] = float64(st.PlanReuse)

	m["slicestore.slices_created"] = float64(st.SlicesCreated)
	m["slicestore.slices_merged"] = float64(st.SlicesMerged)
	m["slicestore.metadata_kb"] = float64(st.MetadataBytes) / 1e3
	m["slicestore.gc_passes"] = float64(st.GCCount + st.GCEmptyPasses)
	m["slicestore.arena_reuse_ratio"] = ratio(st.ArenaChunksReused, st.ArenaChunksAllocated+st.ArenaChunksReused)
	m["slicestore.arena_interned_kb"] = float64(st.ArenaBytesInterned) / 1e3
	return m, theta, nil
}

// epochOffset places the phase collector's epoch on the recorder's clock.
// The runtime marks a thread's start (Timeline.Start) just before it calls
// the thread body, whose entry the recorder times, so entry minus start
// bounds the offset from above for every thread; the tightest bound is
// within a slice set-up of the true offset. Phase spans shifted by it land
// inside the wrapped calls that contain them.
func epochOffset(ph *trace.Report, rec *recorder) (int64, error) {
	entry := map[api.ThreadID]int64{}
	for _, l := range rec.logs {
		entry[l.id] = l.entry
	}
	theta, found := int64(0), false
	for _, tl := range ph.Threads {
		e, ok := entry[api.ThreadID(tl.ID)]
		if !ok || tl.Start < 0 {
			continue
		}
		if off := e - tl.Start; !found || off < theta {
			theta, found = off, true
		}
	}
	if !found {
		return 0, fmt.Errorf("no thread appears in both the phase report and the call log")
	}
	return theta, nil
}

// interval is a half-open [lo, hi) span of host nanoseconds.
type interval struct{ lo, hi int64 }

// selfTimes returns the core layer's self time — time inside wrapped sync
// calls that no phase span covers: collection, clock and monitor
// bookkeeping — and the mem layer's, the union of its phase spans. Both
// are summed over threads.
func selfTimes(ph *trace.Report, rec *recorder, theta int64) (coreSelf, memSelf time.Duration) {
	logs := map[api.ThreadID]*threadLog{}
	for _, l := range rec.logs {
		logs[l.id] = l
	}
	for _, tl := range ph.Threads {
		var all, memSpans []interval
		for _, s := range tl.Spans {
			iv := interval{theta + s.Start, theta + s.Start + s.Dur}
			all = append(all, iv)
			switch s.Phase {
			case trace.PhaseDiff, trace.PhasePlanBuild, trace.PhaseApply, trace.PhasePremerge, trace.PhaseLazyFlush:
				memSpans = append(memSpans, iv)
			}
		}
		for _, iv := range union(memSpans) {
			memSelf += time.Duration(iv.hi - iv.lo)
		}
		l := logs[api.ThreadID(tl.ID)]
		if l == nil {
			continue
		}
		covered := union(all)
		j := 0
		for _, c := range l.calls {
			if c.op == opMalloc || c.op == opFree {
				continue
			}
			for j < len(covered) && covered[j].hi <= c.start {
				j++
			}
			self := c.end - c.start
			for k := j; k < len(covered) && covered[k].lo < c.end; k++ {
				self -= min(covered[k].hi, c.end) - max(covered[k].lo, c.start)
			}
			coreSelf += time.Duration(self)
		}
	}
	return coreSelf, memSelf
}

// union merges intervals sorted by lo into disjoint sorted intervals.
func union(ivs []interval) []interval {
	var out []interval
	for _, iv := range ivs {
		if n := len(out); n > 0 && iv.lo <= out[n-1].hi {
			out[n-1].hi = max(out[n-1].hi, iv.hi)
			continue
		}
		out = append(out, iv)
	}
	return out
}

// nearestRank returns the pct-th nearest-rank percentile of sorted xs, or 0
// for an empty list.
func nearestRank(xs []int64, pct int) int64 {
	if len(xs) == 0 {
		return 0
	}
	i := (len(xs)*pct + 99) / 100
	return xs[max(i, 1)-1]
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// chromeEvent is one Trace Event Format entry, the subset
// trace.ValidateChrome reads.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Rows of the span file. Wrapped calls and phase spans come from two
// clocks aligned only to within a slice set-up, so they get separate rows
// and each row stays well nested.
const (
	rootTid    = 999  // the execution root span
	apiTidBase = 1000 // + thread id: the thread's wrapped API calls
)

// chromeSpans renders one traced execution as Chrome-trace events: an
// execution root span, one span per wrapped call and the runtime's phase
// spans, every one carrying the execution id and thread id and naming the
// root as its parent. Timestamps are microseconds on the recorder's clock.
func chromeSpans(execID int, ph *trace.Report, rec *recorder, theta int64) []chromeEvent {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	root := fmt.Sprintf("execution %d", execID)
	args := func(tid int) map[string]any {
		return map[string]any{"exec": execID, "thread": tid, "parent": root}
	}
	var evs []chromeEvent
	var end int64
	name := func(tid int, label string) {
		evs = append(evs, chromeEvent{Name: "thread_name", Ph: "M", Tid: tid, Args: map[string]any{"name": label}})
	}
	name(rootTid, root)
	for _, l := range rec.logs {
		tid := int(l.id)
		name(apiTidBase+tid, fmt.Sprintf("thread %d api calls", tid))
		a := args(tid)
		for _, c := range l.calls {
			evs = append(evs, chromeEvent{Name: c.op.String(), Cat: "api", Ph: "X",
				Ts: us(c.start), Dur: us(c.end - c.start), Tid: apiTidBase + tid, Args: a})
			end = max(end, c.end)
		}
		end = max(end, l.exit)
	}
	for _, tl := range ph.Threads {
		name(tl.ID, fmt.Sprintf("thread %d phases", tl.ID))
		a := args(tl.ID)
		for _, s := range tl.Spans {
			evs = append(evs, chromeEvent{Name: s.Phase.String(), Cat: "phase", Ph: "X",
				Ts: us(theta + s.Start), Dur: us(s.Dur), Tid: tl.ID, Args: a})
			end = max(end, theta+s.Start+s.Dur)
		}
	}
	return append(evs, chromeEvent{Name: root, Cat: "execution", Ph: "X", Dur: us(end), Tid: rootTid,
		Args: map[string]any{"exec": execID}})
}

// writeChrome writes the events as a Chrome-trace JSON file and checks the
// written bytes with trace.ValidateChrome.
func writeChrome(path string, evs []chromeEvent) error {
	data, err := json.Marshal(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{evs, "ns"})
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	if err := trace.ValidateChrome(data); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
