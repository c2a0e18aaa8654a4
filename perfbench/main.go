// Command perfbench is the repository's host wall-clock benchmark. For one
// workload it runs the program on RFDet-ci (rfdet.NewCI, the defaults users
// get) and on the pthreads baseline in the same process, interleaved, and
// prints the end-to-end metrics; with -trace 1 it instead makes the traced
// run that yields the per-layer metrics. Every execution passes the
// determinism gate (gate.go). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload lock-handoff --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"rfdet"
	"rfdet/internal/api"
)

// processStart approximates the process start: package initialization runs
// before main, after only the Go runtime's own start-up.
var processStart = time.Now()

const (
	// minExecutions is the fewest timed RFDet-ci executions a run makes,
	// however short -seconds is, so a median always exists.
	minExecutions = 3
	// pthreadsPerRound is how many pthreads executions go with each timed
	// RFDet-ci execution. pthreads is two orders of magnitude faster, so
	// several samples per round keep its median as steady as RFDet's.
	pthreadsPerRound = 5
	// setupProbes is how many extra processes a run starts only to measure
	// set-up; with the run's own set-up they give the setup_s median.
	setupProbes = 4
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: lock-handoff, kv-server or bulk-barrier")
	seed := fs.Uint64("seed", 1, "seed of the kv-server request log (the kernels' inputs are fixed)")
	seconds := fs.Float64("seconds", 10, "how long the timed loop runs")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := fs.String("out", ".", "directory for the traced run's Chrome-trace span file")
	probe := fs.Bool("setup-probe", false, "set up, print the set-up seconds and exit (used by the run itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		if err == nil {
			err = errors.New("-trace must be 0 or 1 and -seconds positive")
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	b := newBench(w, *seed)
	b.warmUp()
	setup := time.Since(processStart).Seconds()
	if *probe {
		if b.gate.failed > 0 {
			fmt.Fprintln(stderr, "perfbench:", b.gate.errs[0])
			return 1
		}
		fmt.Fprintln(stdout, strconv.FormatFloat(setup, 'g', -1, 64))
		return 0
	}

	fmt.Fprintf(stdout, "# host: %s\n", hostFingerprint())
	fmt.Fprintf(stdout, "# workload %s (seed %d, %d threads, %s size), %.0f s timed loop\n",
		w.name, *seed, threads, w.size, *seconds)
	var metrics map[string]float64
	if *traced == 0 {
		metrics, err = b.endToEnd(time.Duration(*seconds*float64(time.Second)), setup, stdout)
	} else {
		metrics, err = b.perLayer(time.Duration(*seconds*float64(time.Second)), *out, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, e := range b.gate.errs {
		fmt.Fprintln(stderr, "perfbench: determinism gate:", e)
	}
	specs := endToEndMetrics
	if *traced == 1 {
		specs = perLayerMetrics()
	}
	res := result{
		Correct:   b.gate.failed == 0,
		Attempted: b.gate.attempted,
		Failed:    b.gate.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, s := range specs {
		v, ok := metrics[s.name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured\n", s.name)
			return 1
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
		fmt.Fprintf(stdout, "# %-34s %14.6g %s\n", s.name, v, s.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// bench holds one workload's inputs, runtimes and determinism gate.
type bench struct {
	w        workload
	seed     uint64
	inputs   []uint64 // program seeds the timed loops cycle through
	gate     *gate
	ci       api.Runtime
	pthreads api.Runtime
}

func newBench(w workload, seed uint64) *bench {
	return &bench{w: w, seed: seed, inputs: w.inputs(seed), gate: newGate(w),
		ci: rfdet.NewCI(), pthreads: rfdet.NewPThreads()}
}

// execution is one measured Runtime.Run.
type execution struct {
	rep  *api.Report
	ok   bool
	wall time.Duration
	// Go allocator deltas over the Run.
	allocBytes, mallocs, gcs, gcPauseNs uint64
}

// execute runs one execution of the workload's input-th input on rt behind
// a fresh garbage collection, so every execution starts from the same heap
// state, and passes it through the gate under key. wrap, when not nil,
// replaces the program just before it runs. The allocator deltas count the
// forced collection, which collects the previous execution's garbage.
func (b *bench) execute(rt api.Runtime, key string, input int, wrap func(api.ThreadFunc) api.ThreadFunc) execution {
	prog := b.w.prog(b.w.size, b.inputs[input])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runtime.GC()
	if wrap != nil {
		prog = wrap(prog)
	}
	start := time.Now()
	rep, err := rt.Run(prog)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	ex := execution{rep: rep, wall: wall, ok: b.gate.check(key, input, rep, err)}
	ex.allocBytes = after.TotalAlloc - before.TotalAlloc
	ex.mallocs = after.Mallocs - before.Mallocs
	ex.gcs = uint64(after.NumGC - before.NumGC)
	ex.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	return ex
}

// warmUp runs one untimed execution of the first input per runtime. It
// fills the allocator's pools and the heap.
func (b *bench) warmUp() {
	b.execute(b.pthreads, "pthreads", 0, nil)
	b.execute(b.ci, "rfdet-ci", 0, nil)
}

// endToEnd is the untraced run: rounds of pthreads executions and one
// timed RFDet-ci execution, each round on the next input, for d; then the
// process-level measurements. pthreads goes first in a round, so its first
// execution of an input is the gate's cross-runtime reference.
func (b *bench) endToEnd(d time.Duration, setup float64, log io.Writer) (map[string]float64, error) {
	var ci, pt, alloc []float64
	steal := startSteal()
	deadline := time.Now().Add(d)
	for round := 0; round < minExecutions || time.Now().Before(deadline); round++ {
		in := round % len(b.inputs)
		for i := 0; i < pthreadsPerRound; i++ {
			pt = append(pt, ms(b.execute(b.pthreads, "pthreads", in, nil).wall))
		}
		ex := b.execute(b.ci, "rfdet-ci", in, nil)
		ci = append(ci, ms(ex.wall))
		alloc = append(alloc, float64(ex.allocBytes)/1e6)
	}
	fmt.Fprintf(log, "# CPU steal during the timed loop: %s\n", steal.share())
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	setups := []float64{setup}
	for i := 0; i < setupProbes; i++ {
		s, err := b.probeSetup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	fmt.Fprintf(log, "# rfdet-ci: %d executions, wall ms quartiles %s\n", len(ci), quartileString(ci))
	fmt.Fprintf(log, "# pthreads: %d executions, wall ms quartiles %s\n", len(pt), quartileString(pt))
	fmt.Fprintf(log, "# set-up: %d samples, s %v\n", len(setups), setups)
	fmt.Fprintf(log, "# fail_frac: %d failed / %d attempted executions\n", b.gate.failed, b.gate.attempted)
	wall := median(ci)
	return map[string]float64{
		"wall_ms":              wall,
		"req_per_s":            float64(b.w.requests()) / (wall / 1e3),
		"slowdown_vs_pthreads": wall / median(pt),
		"alloc_mb":             median(alloc),
		"rss_peak_mb":          rss,
		"setup_s":              median(setups),
	}, nil
}

// probeSetup starts this program again in -setup-probe mode and returns the
// set-up seconds it measured for itself.
func (b *bench) probeSetup() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	cmd := exec.Command(exe, "-workload", b.w.name, "-seed", strconv.FormatUint(b.seed, 10), "-setup-probe")
	cmd.Stderr = os.Stderr
	outb, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	s, err := strconv.ParseFloat(strings.TrimSpace(string(outb)), 64)
	if err != nil {
		return 0, fmt.Errorf("set-up probe output: %w", err)
	}
	return s, nil
}

// peakRSSMB reads the process's peak resident set size from /proc.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// hostFingerprint names what the numbers depend on besides the code.
func hostFingerprint() string {
	model := "unknown CPU"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc %d, GOMAXPROCS %d, %s, %s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), model)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// median returns the median of xs (the mean of the middle two for an even
// count); xs must not be empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func quartileString(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return fmt.Sprintf("min %.3f q1 %.3f median %.3f q3 %.3f max %.3f",
		s[0], s[n/4], median(s), s[(3*n)/4], s[n-1])
}

// cpuTicks returns the host's CPU-steal and total ticks from /proc/stat,
// or zeros where that is unavailable.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	for i := 1; i <= 8 && i < len(f); i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// stealMeter measures the share of CPU time the hypervisor took from this
// machine since it started. It explains noisy wall times; it changes none.
type stealMeter struct{ steal, total uint64 }

func startSteal() stealMeter {
	s, t := cpuTicks()
	return stealMeter{s, t}
}

// share formats the steal share since the meter started.
func (m stealMeter) share() string {
	s, t := cpuTicks()
	if t <= m.total {
		return "unknown"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(s-m.steal)/float64(t-m.total))
}
