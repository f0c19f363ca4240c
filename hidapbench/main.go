// Command hidapbench is the repository's end-to-end benchmark. One
// invocation runs one named workload in-process for a fixed time, checks
// every output for correctness, and prints a result line:
//
//	go run . --workload suite --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end metrics; with --trace 1 the run also executes one traced unit
// of work and the metrics are the per-layer ones. The line before it is the
// full record: run metadata, every metric with its unit and better
// direction, and the per-job latency details. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// metricDef names one metric with its unit and better direction. The two
// tables below are the benchmark's contract and must match BENCHMARK.json
// (the self-tests check that they do).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"max_rss_mb", "MB", "lower"},
	{"job_p50_s", "s", "lower"},
	{"job_tail_s", "s", "lower"},
	{"wl_norm_geomean", "ratio", "lower"},
	{"wl_m", "m", "lower"},
	{"wns_mean_pct", "%", "higher"},
	{"grc_mean_pct", "%", "lower"},
	{"ok_frac", "ratio", "higher"},
}

var perLayer = []metricDef{
	{"place.run_s", "s", "lower"},
	{"place.calls", "count", "lower"},
	{"place.cells_per_s", "1/s", "higher"},
	{"core.place_s", "s", "lower"},
	{"core.shapecurves_s", "s", "lower"},
	{"core.levels", "count", "lower"},
	{"core.level_blocks", "count", "lower"},
	{"sched.tasks", "count", "lower"},
	{"sched.steals", "count", "lower"},
	{"sched.steal_ratio", "ratio", "lower"},
	{"indeda.place_s", "s", "lower"},
	{"handfp.place_s", "s", "lower"},
	{"eval.evaluate_s", "s", "lower"},
	{"route.estimate_s", "s", "lower"},
	{"sta.analyze_s", "s", "lower"},
	{"metrics.hpwl_s", "s", "lower"},
	{"netlist.read_json_s", "s", "lower"},
	{"netlist.json_mb", "MB", "lower"},
	{"engine.submit_s", "s", "lower"},
	{"engine.run_s", "s", "lower"},
	{"engine.design_hit_ratio", "ratio", "higher"},
	{"engine.cluster_cache_hits", "count", "higher"},
	{"autocluster.cluster_s", "s", "lower"},
	{"autocluster.clusters", "count", "lower"},
	{"seqgraph.build_s", "s", "lower"},
	{"hier.new_s", "s", "lower"},
	{"graph.bipartite_s", "s", "lower"},
	{"circuits.generate_s", "s", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// setups is how many times a run builds its inputs; setup_s is the median.
const setups = 5

// op is one checked operation: a flows.Run call (suite), a core.Place call
// (macro), a design job (serve), or a scoring evaluation after the timed
// region.
type op struct {
	name string
	err  error // nil when the operation succeeded and passed every check
}

// unitOut is what one unit of timed work reports back to the harness.
type unitOut struct {
	ops []op
	// lat holds the unit's job latencies: one per flows.Run call (suite),
	// core.Place call (macro) or design job (serve).
	lat []float64
	// rows is the unit's comparable output, used by the traced-versus-
	// untraced determinism check.
	rows []string
	// data is the workload's own view of the unit's results, read back
	// by its quality step.
	data any
}

// workload is one named benchmark workload. setup builds the inputs (it is
// called several times and its last result kept), unit runs one timed unit
// of work (untraced when tr is nil), and quality computes the quality
// metrics of the first unit after the timed region, adding its own checked
// operations.
type workload interface {
	setup(ctx context.Context, tr *tracer) error
	unit(ctx context.Context, k int, tr *tracer) (*unitOut, error)
	quality(ctx context.Context, first *unitOut) (map[string]float64, []op, error)
	// layers adds the workload's own per-layer metrics of a traced unit
	// (counters read outside the span tree) to m.
	layers(ctx context.Context, m map[string]float64) error
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	tiny     bool // a seconds-long configuration, for the self-tests
}

func main() {
	var (
		o     options
		trace int
		secs  int
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: suite, macro or serve")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: sets the placement seed and the serve job order")
	flag.IntVar(&secs, "seconds", 20, "how long to keep starting timed units of work (at least one always runs)")
	flag.IntVar(&trace, "trace", 0, "1 also runs one traced unit and reports the per-layer metrics")
	flag.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "hidapbench-out"), "directory for the run record and the span dump")
	flag.Parse()
	o.seconds = float64(secs)
	o.trace = trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rec, err := run(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hidapbench:", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, o, rec); err != nil {
		fmt.Fprintln(os.Stderr, "hidapbench:", err)
		os.Exit(1)
	}
}

// newWorkload returns the named workload.
func newWorkload(name string, tiny bool, seed int64) (workload, error) {
	switch name {
	case "suite":
		return newSuite(tiny, seed), nil
	case "macro":
		return newMacro(tiny, seed), nil
	case "serve":
		return newServe(tiny, seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want suite, macro or serve)", name)
}

// record is everything one run measured. Result is the last output line;
// the rest is the detail printed on the line before it.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Meta      meta               `json:"meta"`
	Units     int                `json:"units"`
	UnitWallS []float64          `json:"unit_wall_s"`
	SetupS    []float64          `json:"setup_s"`
	Jobs      jobStats           `json:"jobs"`
	Failures  []string           `json:"failures,omitempty"`
	Defs      []metricDef        `json:"metric_defs"`
	Values    map[string]float64 `json:"values"`
	Layers    []layerSummary     `json:"layers,omitempty"`
	Result    result             `json:"-"`
}

// jobStats describes the per-job latency sample behind job_p50_s and
// job_tail_s.
type jobStats struct {
	Samples        int     `json:"samples"`
	P50S           float64 `json:"p50_s"`
	TailPercentile float64 `json:"tail_percentile"`
	TailS          float64 `json:"tail_s"`
	Beyond         int     `json:"samples_beyond_tail"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one benchmark run: setups, timed units, the optional traced
// unit, and the quality check.
func run(ctx context.Context, o options) (*record, error) {
	w, err := newWorkload(o.workload, o.tiny, o.seed)
	if err != nil {
		return nil, err
	}
	if o.seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	rec := &record{Workload: o.workload, Seed: o.seed, Trace: o.trace, Meta: collectMeta(), Values: map[string]float64{}}

	// Set-up: build the inputs several times and report the median, so
	// work moved into set-up shows. In a traced run the last set-up is
	// traced, giving the set-up layers.
	var setupTr *tracer
	for i := 0; i < setups; i++ {
		var tr *tracer
		if o.trace && i == setups-1 {
			tr = newTracer()
			setupTr = tr
		}
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(ctx, tr); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		rec.SetupS = append(rec.SetupS, time.Since(t0).Seconds())
	}

	// Timed region: whole units of work until --seconds have passed.
	var (
		ops                       []op
		first                     *unitOut
		cpuS, allocMB, walls, lat []float64
	)
	start := time.Now()
	for k := 0; k == 0 || time.Since(start).Seconds() < o.seconds; k++ {
		runtime.GC()
		m0 := readMem()
		c0 := cpuSeconds()
		t0 := time.Now()
		out, err := w.unit(ctx, k, nil)
		wall := time.Since(t0).Seconds()
		c1 := cpuSeconds()
		m1 := readMem()
		if err != nil {
			return nil, fmt.Errorf("unit %d: %w", k, err)
		}
		walls = append(walls, wall)
		cpuS = append(cpuS, c1-c0)
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		ops = append(ops, out.ops...)
		lat = append(lat, out.lat...)
		if first == nil {
			first = out
		}
	}
	rec.Units = len(walls)
	rec.UnitWallS = walls

	if o.trace {
		tr := newTracer()
		runtime.GC()
		g0 := readMem().NumGC
		t0 := time.Now()
		out, err := w.unit(ctx, 0, tr)
		wall := time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("traced unit: %w", err)
		}
		gcs := readMem().NumGC - g0
		ops = append(ops, out.ops...)
		if d := diffRows(first.rows, out.rows); d != "" {
			ops = append(ops, op{name: "trace-determinism", err: fmt.Errorf("traced rows differ from untraced rows: %s", d)})
		} else {
			ops = append(ops, op{name: "trace-determinism"})
		}
		vals := tr.layerMetrics(wall)
		for k, v := range setupTr.layerMetrics(0) {
			vals[k] += v
		}
		if err := w.layers(ctx, vals); err != nil {
			return nil, fmt.Errorf("layer counters: %w", err)
		}
		if vals["place.run_s"] > 0 {
			vals["place.cells_per_s"] = vals["place.cells"] / vals["place.run_s"]
		}
		if vals["sched.tasks"] > 0 {
			vals["sched.steal_ratio"] = vals["sched.steals"] / vals["sched.tasks"]
		}
		vals["runtime.gc_cycles"] = float64(gcs)
		vals["trace.overhead_frac"] = wall/median(walls) - 1
		rec.Layers = tr.summary(wall)
		rec.Layers = append(rec.Layers, setupTr.summary(0)...)
		for _, d := range perLayer {
			rec.Values[d.Name] = vals[d.Name]
		}
		if err := tr.dump(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed), setupTr); err != nil {
			return nil, err
		}
	}

	q, qops, err := w.quality(ctx, first)
	if err != nil {
		return nil, fmt.Errorf("quality: %w", err)
	}
	ops = append(ops, qops...)

	failed := 0
	for _, p := range ops {
		if p.err != nil {
			failed++
			rec.Failures = append(rec.Failures, fmt.Sprintf("%s: %v", p.name, p.err))
		}
	}
	rec.Jobs = latencyStats(lat)
	okFrac := 1 - float64(failed)/float64(len(ops))

	if !o.trace {
		rec.Values["setup_s"] = median(rec.SetupS)
		rec.Values["wall_s"] = median(walls)
		rec.Values["cpu_s"] = median(cpuS)
		rec.Values["alloc_mb"] = median(allocMB)
		rec.Values["max_rss_mb"] = maxRSSMB()
		rec.Values["job_p50_s"] = rec.Jobs.P50S
		rec.Values["job_tail_s"] = rec.Jobs.TailS
		for k, v := range q {
			rec.Values[k] = v
		}
		rec.Values["ok_frac"] = okFrac
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	rec.Defs = defs
	rec.Result = result{
		Correct:   failed == 0,
		Attempted: len(ops),
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v, ok := rec.Values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		rec.Result.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return rec, nil
}

// emit prints the record line, writes it under the output directory, and
// prints the result line last.
func emit(f *os.File, o options, rec *record) error {
	detail, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("record-%s-seed%d.json", o.workload, o.seed)
	if o.trace {
		name = fmt.Sprintf("record-%s-seed%d-traced.json", o.workload, o.seed)
	}
	if err := os.WriteFile(filepath.Join(o.outDir, name), append(detail, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n%s\n", detail, line)
	return err
}

// latencyStats reports the median and the highest percentile that leaves
// at least ten samples beyond it (the maximum when there are fewer than
// eleven samples).
func latencyStats(lat []float64) jobStats {
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	n := len(s)
	js := jobStats{Samples: n}
	if n == 0 {
		return js
	}
	js.P50S = median(s)
	idx := n - 11
	if idx < 0 {
		idx = n - 1
	}
	js.TailS = s[idx]
	js.Beyond = n - 1 - idx
	js.TailPercentile = 100 * float64(idx+1) / float64(n)
	return js
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// maxRSSMB is the process's peak resident set size (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// fmtFloat renders a float exactly, for row comparison.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
