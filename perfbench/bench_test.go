package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rfdet"
	"rfdet/internal/api"
	"rfdet/internal/trace"
	"rfdet/internal/workloads"
)

func TestGateCountsEveryMismatch(t *testing.T) {
	w, err := workloadByName("lock-handoff")
	if err != nil {
		t.Fatal(err)
	}
	g := newGate(w)
	steps := []struct {
		key  string
		rep  *api.Report
		err  error
		pass bool
	}{
		{"pthreads", &api.Report{OutputHash: 1, VirtualTime: 5}, nil, true},
		{"rfdet-ci", &api.Report{OutputHash: 1, VirtualTime: 9}, nil, true},
		{"rfdet-ci", &api.Report{OutputHash: 1, VirtualTime: 9}, nil, true},
		{"rfdet-ci", &api.Report{OutputHash: 1, VirtualTime: 8}, nil, false}, // virtual time moved
		{"rfdet-ci", &api.Report{OutputHash: 2, VirtualTime: 9}, nil, false}, // output moved
		{"dthreads", &api.Report{OutputHash: 3, VirtualTime: 4}, nil, false}, // differs from pthreads
		{"pthreads", nil, errors.New("abort"), false},
	}
	for i, s := range steps {
		if got := g.check(s.key, 0, s.rep, s.err); got != s.pass {
			t.Errorf("step %d (%s): pass = %v, want %v", i, s.key, got, s.pass)
		}
	}
	if g.attempted != len(steps) || g.failed != 4 {
		t.Fatalf("attempted %d failed %d, want %d and 4", g.attempted, g.failed, len(steps))
	}
}

func TestGateChecksServerDigests(t *testing.T) {
	w, err := workloadByName("kv-server")
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(w.requests())
	obs := func(served, logHash uint64) *api.Report {
		return &api.Report{Observations: map[api.ThreadID][]uint64{0: {1, 2, served, 4, logHash}}}
	}
	g := newGate(w)
	if !g.check("pthreads", 0, obs(n, 77), nil) || !g.check("rfdet-ci", 0, obs(n, 77), nil) {
		t.Fatal("consistent server executions failed the gate")
	}
	if g.check("rfdet-ci", 0, obs(n-1, 77), nil) || g.check("dthreads", 0, obs(n, 78), nil) {
		t.Fatal("a short request count or a different log digest passed the gate")
	}
	// Another input is another log: its own digest, its own references.
	if !g.check("pthreads", 1, obs(n, 99), nil) || !g.check("rfdet-ci", 1, obs(n, 99), nil) {
		t.Fatal("a second input was held to the first input's digest")
	}
}

// TestTracedPipeline runs the traced execution path at test size: the
// reconciliation checks pass, every per-layer metric is produced, and the
// span file validates.
func TestTracedPipeline(t *testing.T) {
	opts := rfdet.DefaultOptions()
	opts.PhaseTrace = true
	for _, w := range benchWorkloads {
		t.Run(w.name, func(t *testing.T) {
			rec := newRecorder()
			rep, err := rfdet.New(opts).Run(rec.wrap(w.prog(workloads.SizeTest, 3)))
			if err != nil {
				t.Fatal(err)
			}
			m, theta, err := analyze(rep, rec)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range perLayerMetrics() {
				if _, ok := m[s.name]; !ok && !runLevel(s.name) {
					t.Errorf("analyze did not produce %s", s.name)
				}
			}
			var calls float64
			for _, l := range rec.logs {
				for _, c := range l.calls {
					calls += float64(c.end-c.start) / 1e6
				}
			}
			if m["core.self_ms"] < 0 || m["core.self_ms"] > calls {
				t.Errorf("core self time %v ms is outside the wrapped calls' total %v ms", m["core.self_ms"], calls)
			}
			if n := misaligned(rep.Phases, rec, theta); n > 0 {
				t.Errorf("%d turn-wait or block spans fall outside every wrapped call after alignment", n)
			}
			path := filepath.Join(t.TempDir(), "spans.json")
			if err := writeChrome(path, chromeSpans(0, rep.Phases, rec, theta)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestReconciliationMismatchFails(t *testing.T) {
	opts := rfdet.DefaultOptions()
	opts.PhaseTrace = true
	rec := newRecorder()
	w := benchWorkloads[0]
	rep, err := rfdet.New(opts).Run(rec.wrap(w.prog(workloads.SizeTest, 1)))
	if err != nil {
		t.Fatal(err)
	}
	rep.Stats.TurnWaits++
	if _, _, err := analyze(rep, rec); err == nil {
		t.Fatal("analyze accepted a turn-wait count the spans do not match")
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json's workload and metric lists
// in step with what the program runs and reports.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(benchWorkloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(benchWorkloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != benchWorkloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, benchWorkloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics())
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nosuch"},
		{"-workload", "kv-server", "-trace", "2"},
		{"-workload", "kv-server", "-seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no result", args, code, out.String())
		}
	}
}

// runLevel reports whether perLayer, not analyze, computes the metric.
func runLevel(name string) bool {
	for _, p := range []string{"go.", "pthreads.", "dthreads.", "trace."} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// misaligned counts turn-wait and block spans that, shifted by theta, do
// not lie inside a wrapped call of their thread. Both happen only inside
// sync calls, except the turn-wait of a thread's exit, after its body has
// returned. The slack covers the runtime's work between marking a thread's
// start and entering its body, by which theta may overshoot.
func misaligned(ph *trace.Report, rec *recorder, theta int64) int {
	const slack = 50 * int64(time.Microsecond)
	logs := map[api.ThreadID]*threadLog{}
	for _, l := range rec.logs {
		logs[l.id] = l
	}
	n := 0
	for _, tl := range ph.Threads {
		l := logs[api.ThreadID(tl.ID)]
		if l == nil {
			n += len(tl.Spans)
			continue
		}
		for _, s := range tl.Spans {
			lo, hi := theta+s.Start, theta+s.Start+s.Dur
			if (s.Phase != trace.PhaseTurnWait && s.Phase != trace.PhaseBlock) || lo >= l.exit {
				continue
			}
			inside := false
			for _, c := range l.calls {
				if lo >= c.start-slack && hi <= c.end+slack {
					inside = true
					break
				}
			}
			if !inside {
				n++
			}
		}
	}
	return n
}
