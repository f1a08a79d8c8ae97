package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"rsu/internal/core"
	"rsu/internal/serve"
)

// The wrapper must be a BatchSampler itself: otherwise core.AsBatch would
// wrap it in the per-pixel adapter, and the traced run would time a
// different program from the plain one.
func TestTimedSamplerIsBatchSampler(t *testing.T) {
	var built []core.LabelSampler
	s := factory(1, nil, &built)(0)
	w := newTimedSampler(s, clock{base: time.Now()}, 0, sampleEvery)
	if b, ok := core.AsBatch(w).(*timedSampler); !ok || b != w {
		t.Fatalf("core.AsBatch(timedSampler) = %T, want the wrapper itself", core.AsBatch(w))
	}
	if _, ok := w.inner.(*core.Unit); !ok {
		t.Fatalf("wrapper reaches %T, want the unit's own SampleBatch", w.inner)
	}
}

// Traced solves must reproduce the plain solve bit for bit: labels, scores,
// sweep count and every Unit.Stats counter. Workers 1 runs the serial
// engine through Sample; workers 2 runs the checkerboard pool through
// SampleBatch.
func TestTracedSolveMatchesPlain(t *testing.T) {
	for _, w := range []solveWorkload{
		{name: "serial", scale: 1, sweeps: 30, workers: 1},
		{name: "pool", scale: 1, sweeps: 30, workers: 2},
	} {
		t.Run(w.name, func(t *testing.T) { checkTracedMatchesPlain(t, w, 3) })
	}
}

// The out-of-cache workload's auto-sharded engine, on two sweeps.
func TestTracedShardedSolveMatchesPlain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 640x480 problem")
	}
	w := solveOutOfCache
	w.sweeps = 2
	checkTracedMatchesPlain(t, w, 1)
}

func checkTracedMatchesPlain(t *testing.T, w solveWorkload, seed uint64) {
	t.Helper()
	plain, _, err := w.plainSolve(seed)
	if err != nil {
		t.Fatal(err)
	}
	st := &solveTrace{tr: &tracer{clk: clock{base: time.Now()}}}
	traced, _, err := w.tracedSolve(seed, st)
	if err != nil {
		t.Fatal(err)
	}
	if traced != plain {
		t.Fatalf("traced outcome %+v, plain %+v", traced, plain)
	}
	if plain.Sweeps != w.sweeps {
		t.Fatalf("sweeps = %d, want %d", plain.Sweeps, w.sweeps)
	}
	if st.sampler.updates != uint64(plain.Stats.Evaluations) {
		t.Fatalf("wrapper saw %d updates, units evaluated %d", st.sampler.updates, plain.Stats.Evaluations)
	}
	if st.sampler.timedUpdates == 0 || st.sweeps != w.sweeps {
		t.Fatalf("traced %d updates over %d sweeps, want some over %d", st.sampler.timedUpdates, st.sweeps, w.sweeps)
	}
}

// The out-of-cache workload's first solve at the default seed is the
// recorded reference.
func TestOutOfCacheMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 640x480 problem")
	}
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		t.Fatal(err)
	}
	got, _, err := solveOutOfCache.plainSolve(ref.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if want := ref.Solves[solveOutOfCache.name]; got != want {
		t.Fatalf("outcome %+v, reference %+v", got, want)
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	a := schedule(7, serveRate, 20*time.Second)
	b := schedule(7, serveRate, 20*time.Second)
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed gave different schedules (%d and %d jobs)", len(a), len(b))
	}
	if c := schedule(8, serveRate, 20*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i].at <= a[i-1].at {
			t.Fatalf("arrival %d at %v is not after %v", i, a[i].at, a[i-1].at)
		}
	}
	if last := a[len(a)-1].at; last >= 20*time.Second {
		t.Fatalf("last arrival %v is past the 20s span", last)
	}
	// Every seed offers the same load.
	if want := int(20 * serveRate); len(a) != want {
		t.Fatalf("%d arrivals in 20s at %g/s, want %d", len(a), serveRate, want)
	}
}

// Every whole deck dealt holds each app exactly as often as the deck does,
// whatever the seed, so seeds change the order and not the mix.
func TestDealKeepsTheMix(t *testing.T) {
	count := func(specs []serve.JobSpec) map[string]int {
		m := make(map[string]int)
		for _, s := range specs {
			m[s.App+"/"+s.Sampler]++
		}
		return m
	}
	want := count(deck)
	for _, seed := range []uint64{1, 2, 3} {
		sched := schedule(seed, serveRate, 30*time.Second)
		n := len(sched) / len(deck) * len(deck)
		if n == 0 {
			t.Fatalf("seed %d: %d jobs, fewer than one deck", seed, len(sched))
		}
		for i := 0; i < n; i += len(deck) {
			round := make([]serve.JobSpec, len(deck))
			for j := range round {
				round[j] = sched[i+j].spec
			}
			if got := count(round); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d round %d: mix %v, want %v", seed, i/len(deck), got, want)
			}
		}
	}
}

// The reference holds every spec the schedule can deal, so the serve-mix
// output check applies to every seed.
func TestReferenceCoversEveryJob(t *testing.T) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		t.Fatal(err)
	}
	specs := allJobSpecs()
	if len(ref.Jobs) != len(specs) {
		t.Fatalf("reference has %d jobs, the deck deals %d distinct specs", len(ref.Jobs), len(specs))
	}
	for _, s := range specs {
		if _, ok := ref.Jobs[specKey(s)]; !ok {
			t.Fatalf("no reference for %s", specKey(s))
		}
	}
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		for _, a := range schedule(seed, serveRate, 30*time.Second) {
			if _, ok := ref.Jobs[specKey(a.spec)]; !ok {
				t.Fatalf("seed %d deals %s, which has no reference", seed, specKey(a.spec))
			}
		}
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{n: 0}, {n: 19},
		{n: 20, q: 0.5, ok: true}, {n: 99, q: 0.5, ok: true},
		{n: 100, q: 0.9, ok: true}, {n: 999, q: 0.9, ok: true},
		{n: 1000, q: 0.99, ok: true}, {n: 10000, q: 0.999, ok: true}, {n: 50000, q: 0.999, ok: true},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[len(xs)-1-i] = float64(i + 1) // descending: tail must sort
		}
		q, v, ok := tail(xs)
		if ok != tc.ok || q != tc.q {
			t.Fatalf("n=%d: tail = p%g ok=%v, want p%g ok=%v", tc.n, q*100, ok, tc.q*100, tc.ok)
		}
		if !ok {
			continue
		}
		if beyond := tc.n - int(v); beyond < minTail {
			t.Fatalf("n=%d: p%g = %g leaves %d samples beyond it", tc.n, q*100, v, beyond)
		}
		if supported(tc.n, q) != true {
			t.Fatalf("n=%d: supported(p%g) = false", tc.n, q*100)
		}
	}
	if got := percentile([]float64{5, 1, 4, 2, 3}, 0.5); got != 3 {
		t.Fatalf("median of 1..5 = %g", got)
	}
	if got := percentile([]float64{5, 1, 4, 2, 3}, 1); got != 5 {
		t.Fatalf("p100 of 1..5 = %g", got)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// The metric tables follow the naming rules and match BENCHMARK.json, so
// the result line reports exactly the metrics the benchmark declares.
func TestMetricNames(t *testing.T) {
	if len(endToEndMetrics) > 16 || len(perLayerMetrics) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(endToEndMetrics), len(perLayerMetrics))
	}
	seen := make(map[string]bool)
	for _, set := range [][]metricDef{endToEndMetrics, reportOnlyMetrics, perLayerMetrics} {
		for _, m := range set {
			if !metricName.MatchString(m.name) || !unitName.MatchString(m.unit) || seen[m.name] {
				t.Fatalf("metric %q (unit %q) is malformed or repeated", m.name, m.unit)
			}
			seen[m.name] = true
		}
	}

	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(defs []metricDef, entries []entry) bool {
		if len(defs) != len(entries) {
			return false
		}
		for i, d := range defs {
			if d.name != entries[i].Name || d.unit != entries[i].Unit {
				return false
			}
		}
		return true
	}
	if !same(endToEndMetrics, bench.EndToEnd) || !same(perLayerMetrics, bench.PerLayer) {
		t.Fatal("the metric tables differ from BENCHMARK.json's end_to_end and per_layer")
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
}
