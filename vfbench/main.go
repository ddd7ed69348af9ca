// Command vfbench is the repository's benchmark. It runs one of three
// seeded workloads through the library's public API, checks the
// controller's and the cluster's outputs every period, and prints every
// end-to-end metric by name with its unit. With -trace 1 it instead
// records a span around every call the benchmark makes into a layer and
// prints the per-layer metrics. See README.md for the metrics, the
// workloads and how to run it.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash vfbench/run.sh --workload cluster-dynamic --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are the
// human-readable report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// world is one workload's running system plus the benchmark code that
// drives and checks it. A period is prepare → program → check; only
// program's calls into the library count toward the period's host time.
type world interface {
	// prepare materialises period p's inputs: benchmark-side work,
	// excluded from the period's host time.
	prepare(p int)
	// program makes period p's calls into the library.
	program(p int)
	// check is the correctness gate after period p.
	check(p int) error
	// report returns the workload's end-to-end and per-layer metrics
	// and releases the world's sample buffers, so the heap measured
	// after it is the program's.
	report(r *runStats) (e2e, layers []metric)
	close()
}

// env is what a world shares with the runner.
type env struct {
	seed      int64
	tr        *tracer // nil in untraced runs
	work      string  // directory for on-disk fixtures
	measuring bool    // false during warm-up
	// simEnd is the first period past the window the simulated metrics
	// cover: warm-up plus the spec's minimum measured periods.
	simEnd int
	// benchAllocs is set by worlds whose prepare or check allocate:
	// the runner then brackets them out of alloc_b_per_period.
	benchAllocs bool
	// wrap puts the counting Host decorator under node-churn's
	// controller even in untraced runs (tests compare with and without).
	wrap bool
	// monitorWorkers, when positive, overrides node-churn's
	// Config.MonitorWorkers (tests pin it to 1 so fault draws follow
	// one order).
	monitorWorkers int
}

// spec describes a workload to the runner.
type spec struct {
	name  string
	build func(e *env) (world, error)
	// minPeriods is the fixed count of measured periods every run
	// makes (runs continue past it until --seconds has elapsed); the
	// simulated metrics cover exactly these periods.
	minPeriods int
	warmup     int // periods run during set-up
	setups     int // set-ups per run; setup_s is their median
	nodes      int // node-periods per period
	spanRoom   int // spans one traced period can record
}

var specs = []spec{
	{name: "linux-steady", build: buildLinux, minPeriods: 1500, warmup: 20, setups: 7, nodes: 1, spanRoom: 2048},
	{name: "node-churn", build: buildChurn, minPeriods: 600, warmup: 20, setups: 5, nodes: 1, spanRoom: 4096},
	{name: "cluster-dynamic", build: buildCluster, minPeriods: 150, warmup: 5, setups: 3, nodes: clusterNodes, spanRoom: 4096},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// runStats is what the runner measured, handed to world.report.
type runStats struct {
	spec     spec
	periods  int     // measured periods
	tracedNs samples // host time of program() in traced periods
	plainNs  samples // the same, untraced periods
	tr       *tracer
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string
	spans    string
	// Test hooks: 0 keeps the workload's defaults.
	minPeriods, setups int
}

type outcome struct {
	attempted, failed int
	errs              []string
	e2e, layers       []metric
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: linux-steady, node-churn or cluster-dynamic")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured wall-clock seconds (runs also make a fixed minimum of periods)")
	flag.IntVar(&traceFlag, "trace", 0, "1 records per-layer spans and prints the per-layer metrics")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for on-disk fixtures (created if missing)")
	flag.StringVar(&o.spans, "spans", "", "with -trace 1, write the spans still buffered at the end to this file")
	flag.Parse()
	o.trace = traceFlag == 1
	if err := checkCheckout(); err != nil {
		fmt.Fprintln(os.Stderr, "vfbench:", err)
		os.Exit(2)
	}
	g, err := loadGated("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "vfbench:", err)
		os.Exit(2)
	}
	if _, ok := findSpec(o.workload); !ok {
		fmt.Fprintf(os.Stderr, "vfbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	if o.seconds <= 0 || traceFlag < 0 || traceFlag > 1 {
		fmt.Fprintln(os.Stderr, "vfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	out, err := execute(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vfbench:", err)
		os.Exit(1)
	}
	printReport(os.Stdout, o, out)
	line, err := contractLine(g, o.trace, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if out.failed > 0 {
		os.Exit(1)
	}
}

// checkCheckout refuses to run outside a repository checkout: the
// benchmark measures the library built from the surrounding source.
func checkCheckout() error {
	b, err := os.ReadFile("go.mod")
	if err != nil || !strings.HasPrefix(strings.TrimSpace(string(b)), "module vfreq\n") {
		return fmt.Errorf("run from the repository root (no vfreq go.mod here)")
	}
	return nil
}

// execute sets the workload up several times, then runs the measured
// loop and gathers the metrics.
func execute(o options) (*outcome, error) {
	sp, _ := findSpec(o.workload)
	if o.minPeriods > 0 {
		sp.minPeriods = o.minPeriods
	}
	if o.setups > 0 {
		sp.setups = o.setups
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	e := &env{seed: o.seed, work: o.work, simEnd: sp.warmup + sp.minPeriods}
	if o.trace {
		e.tr = newTracer(1 << 19)
	}
	rs := &runStats{spec: sp, tr: e.tr}
	var w world
	var setups samples
	for i := 0; i < sp.setups; i++ {
		if w != nil {
			w.close()
			w = nil
			runtime.GC()
		}
		e.measuring = false
		t0 := time.Now()
		var err error
		if w, err = sp.build(e); err != nil {
			return nil, fmt.Errorf("setting up %s: %w", sp.name, err)
		}
		for p := 0; p < sp.warmup; p++ {
			w.prepare(p)
			w.program(p)
			if err := w.check(p); err != nil {
				w.close()
				return nil, fmt.Errorf("warm-up period %d: %w", p, err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if w != nil {
			w.close()
		}
	}()

	out := &outcome{}
	hostNs := newSamples(sp.minPeriods + int(o.seconds*20_000))
	var excluded uint64
	var ms runtime.MemStats
	pause := func() uint64 {
		if !e.benchAllocs {
			return 0
		}
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	resume := func(a0 uint64) {
		if e.benchAllocs {
			runtime.ReadMemStats(&ms)
			excluded += ms.TotalAlloc - a0
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	alloc0, gc0 := ms.TotalAlloc, ms.NumGC
	e.measuring = true
	tr := e.tr
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	traced := make([]bool, 0, cap(hostNs))
	for i := 0; i < sp.minPeriods || time.Now().Before(deadline); i++ {
		p := sp.warmup + i
		on := tr != nil && i%2 == 0
		if tr != nil {
			tr.beginPeriod(p, on, sp.spanRoom)
		}
		ld := layerOpen(tr, spDrive)
		a := pause()
		w.prepare(p)
		resume(a)
		layerClose(tr, ld)
		t0 := time.Now()
		w.program(p)
		hostNs = append(hostNs, float64(time.Since(t0).Nanoseconds()))
		traced = append(traced, on)
		lc := layerOpen(tr, spCheck)
		a = pause()
		err := w.check(p)
		resume(a)
		layerClose(tr, lc)
		if tr != nil {
			tr.endPeriod()
		}
		out.attempted++
		if err != nil {
			out.failed++
			if len(out.errs) < 5 {
				out.errs = append(out.errs, fmt.Sprintf("period %d: %v", p, err))
			}
		}
	}
	runtime.ReadMemStats(&ms)
	rs.periods = out.attempted
	allocB := float64(ms.TotalAlloc-alloc0-excluded) / float64(rs.periods)
	gcs := float64(ms.NumGC - gc0)
	for i, on := range traced {
		if on {
			rs.tracedNs = append(rs.tracedNs, hostNs[i])
		} else {
			rs.plainNs = append(rs.plainNs, hostNs[i])
		}
	}
	if tr != nil {
		if o.spans != "" {
			if err := tr.writeSpans(o.spans); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
		}
		tr.fold()
	}

	wE2E, wLayers := w.report(rs)
	out.e2e = append([]metric{m("setup_s", "s", setups.p50())}, wE2E...)
	out.e2e = append(out.e2e,
		m("periods_per_s", "node-periods/s", float64(sp.nodes)*1e9/hostNs.p50()),
		m("alloc_b_per_period", "B", allocB),
	)
	out.layers = append(wLayers,
		m("go.gc_per_kperiod", "count", 1000*gcs/float64(rs.periods)),
	)
	if tr != nil {
		out.layers = append(out.layers, traceLayers(rs)...)
	}

	// heap_inuse_mb: the program's live heap at the end of the run, with
	// the benchmark's own buffers released first.
	rs.tracedNs, rs.plainNs, hostNs, traced = nil, nil, nil, nil
	if tr != nil {
		tr.buf, tr.order, tr.covered = nil, nil, nil
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(w)
	out.e2e = append(out.e2e, m("heap_inuse_mb", "MB", float64(ms.HeapInuse)/(1<<20)))
	return out, nil
}

// clockOrigin anchors nowNs on the monotonic clock.
var clockOrigin = time.Now()

// nowNs reads the monotonic clock in nanoseconds.
func nowNs() int64 { return int64(time.Since(clockOrigin)) }

func layerOpen(tr *tracer, n spanName) int32 {
	if tr == nil {
		return -1
	}
	return tr.layer(n)
}

func layerClose(tr *tracer, i int32) {
	if tr != nil {
		tr.endLayer(i)
	}
}

// traceLayers turns the folded span totals into the runtime and
// benchmark rows of the per-layer table.
func traceLayers(rs *runStats) []metric {
	tr := rs.tr
	periods := float64(tr.periods)
	root := float64(tr.total[spPeriod])
	return []metric{
		m("trace.overhead_frac", "ratio", ratio(rs.tracedNs.p50(), rs.plainNs.p50())-1),
		m("trace.residual_frac", "ratio", ratio(float64(tr.self[spPeriod]), root)),
		m("trace.periods", "count", periods),
		m("trace.dropped_spans", "count", float64(tr.dropped.Load())),
		m("bench.drive_us", "us/period", ratio(float64(tr.self[spDrive]), periods)/1e3),
		m("bench.check_us", "us/period", ratio(float64(tr.self[spCheck]), periods)/1e3),
	}
}

// layerSelfUs is a span name's mean self time per traced period.
func layerSelfUs(tr *tracer, n spanName) float64 {
	return ratio(float64(tr.self[n]), float64(tr.periods)) / 1e3
}

// gated is the metric set BENCHMARK.json declares, read from the
// checkout root: the JSON line carries exactly its end-to-end metrics
// (untraced runs) or its per-layer metrics (traced runs).
type gated struct {
	EndToEnd []gatedMetric `json:"end_to_end"`
	PerLayer []gatedMetric `json:"per_layer"`
}

type gatedMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadGated(path string) (gated, error) {
	var g gated
	b, err := os.ReadFile(path)
	if err != nil {
		return g, err
	}
	if err := json.Unmarshal(b, &g); err != nil {
		return g, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// contractLine builds the JSON line. Every gated end-to-end metric must
// have been measured (it is an error otherwise); a per-layer metric of a
// layer the workload does not exercise reads 0.
func contractLine(g gated, trace bool, out *outcome) ([]byte, error) {
	want, rows := g.EndToEnd, out.e2e
	if trace {
		want, rows = g.PerLayer, out.layers
	}
	metrics := map[string]any{}
	for _, c := range want {
		v := 0.0
		if r, ok := lookup(rows, c.Name); ok {
			if r.unit != c.Unit {
				return nil, fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", c.Name, r.unit, c.Unit)
			}
			v = r.value
		} else if !trace {
			return nil, fmt.Errorf("end-to-end metric %s not measured", c.Name)
		}
		metrics[c.Name] = map[string]any{"value": v, "unit": c.Unit}
	}
	return json.Marshal(map[string]any{
		"correct": out.failed == 0, "attempted": out.attempted, "failed": out.failed, "metrics": metrics,
	})
}

// printReport writes the human-readable report.
func printReport(w *os.File, o options, out *outcome) {
	fmt.Fprintf(w, "vfbench %s seed=%d seconds=%g trace=%v: %d periods, %d failed\n",
		o.workload, o.seed, o.seconds, o.trace, out.attempted, out.failed)
	for _, e := range out.errs {
		fmt.Fprintln(w, "  FAIL", e)
	}
	rows := out.e2e
	title := "end-to-end"
	if o.trace {
		rows, title = out.layers, "per-layer"
	}
	fmt.Fprintf(w, "%s metrics:\n", title)
	for _, r := range rows {
		if r.na {
			fmt.Fprintf(w, "  %-30s %14s %-14s %s\n", r.name, "-", r.unit, r.note)
			continue
		}
		fmt.Fprintf(w, "  %-30s %14.6g %-14s %s\n", r.name, r.value, r.unit, r.note)
	}
}

func lookup(rows []metric, name string) (metric, bool) {
	for _, r := range rows {
		if r.name == name && !r.na {
			return r, true
		}
	}
	return metric{}, false
}
