package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"syscall"
)

// metricDef names a reported figure and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are the figures a user of the system sees, in the order
// BENCHMARK.json lists them. The plain run reports every one on every
// workload. On solve-outofcache a job is one CLI solve; on serve-mix it
// is one service job.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"solve_s", "s"},
	{"peak_rss_mb", "MB"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"within_limit_share", "share"},
}

// reportOnlyMetrics are end-to-end figures printed in the report but kept
// out of the result line: failed_share is 0 on a healthy run, and the
// result line carries the same information as attempted and failed.
var reportOnlyMetrics = []metricDef{
	{"failed_share", "share"},
}

// perLayerMetrics are the traced run's figures, one layer each, in the
// order BENCHMARK.json lists them. A layer a workload does not reach
// reports 0 with 0 samples.
var perLayerMetrics = []metricDef{
	{"core.sample_ns_per_update", "ns"},
	{"core.set_temperature_us_per_sweep", "us"},
	{"core.conv_hit_ratio", "share"},
	{"core.cutoffs_per_label", "share"},
	{"core.truncated_per_label", "share"},
	{"core.nofire_per_update", "share"},
	{"core.ties_per_update", "share"},
	{"mrf.sweep_ns_per_update", "ns"},
	{"mrf.sweep_p90_ns_per_update", "ns"},
	{"mrf.nonsample_ns_per_update", "ns"},
	{"mrf.sampler_busy_share", "share"},
	{"mrf.flip_ratio", "share"},
	{"apps.setup_ms", "ms"},
	{"synth.build_ms", "ms"},
	{"apps.score_ms", "ms"},
	{"serve.queue_ms_p50", "ms"},
	{"serve.queue_ms_p90", "ms"},
	{"serve.run_ms_p50", "ms"},
	{"serve.sweep_share", "share"},
	{"serve.pair_hit_ratio", "share"},
	{"serve.dataset_hit_ratio", "share"},
	{"serve.conv_hit_ratio", "share"},
	{"serve.rejected_share", "share"},
	{"serve.uq_collect_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// report collects one workload run's figures.
type report struct {
	attempted, failed int
	values            map[string]float64
	samples           map[string]int
	notes             []string
}

func newReport() *report {
	return &report{values: make(map[string]float64), samples: make(map[string]int)}
}

// set records a figure computed from n samples.
func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// notef adds a line to the printed report.
func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation and says why.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.notef("FAIL: "+format, args...)
}

// header is the run header every report starts with.
type header struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

func (h header) print(w io.Writer) {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%d trace=%d\n", h.workload, h.seed, h.seconds, b2i(h.trace))
	fmt.Fprintf(w, "# num_cpu=%d gomaxprocs=%d go=%s goos=%s goarch=%s commit=%s serve_rate=%g/s serve_limit_ms=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit(),
		serveRate, serveLimit.Milliseconds())
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// commit is the VCS revision the binary was built from, when the build
// could stamp it.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// print writes the report's figures for the run mode, then its notes.
func (r *report) print(w io.Writer, trace bool) {
	defs := append(append([]metricDef(nil), endToEndMetrics...), reportOnlyMetrics...)
	if trace {
		defs = perLayerMetrics
	}
	for _, d := range defs {
		n, ok := r.samples[d.name]
		if !ok || n == 0 {
			fmt.Fprintf(w, "%-36s %14s %-6s n=0 (layer not reached)\n", d.name, "0", d.unit)
			continue
		}
		fmt.Fprintf(w, "%-36s %14.6g %-6s n=%d\n", d.name, r.values[d.name], d.unit, n)
	}
	fmt.Fprintf(w, "%-36s %14d\n%-36s %14d\n", "attempted", r.attempted, "failed", r.failed)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// resultLine is the one-line JSON summary the report ends with: the
// end-to-end metrics for a plain run, the per-layer ones for a traced run.
func (r *report) resultLine(trace bool) ([]byte, error) {
	defs := endToEndMetrics
	if trace {
		defs = perLayerMetrics
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]resultMetric)}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !trace {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = resultMetric{Value: v, Unit: d.unit}
	}
	return json.Marshal(res)
}
