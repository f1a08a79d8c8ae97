package benchkit

import (
	"encoding/json"
	"strings"
	"testing"
)

func gateReport(speedups map[string]float64) Report {
	rep := Report{Schema: Schema, GOMAXPROCS: 4, Workers: 4}
	for _, name := range MicroSet() {
		s := speedups[name]
		if s == 0 {
			s = 2.0
		}
		rep.Benchmarks = append(rep.Benchmarks, Result{
			Name: name, NsOpBefore: 1000, NsOpAfter: 1000 / s, Speedup: s,
		})
	}
	return rep
}

func TestCompareIdenticalPasses(t *testing.T) {
	base := gateReport(nil)
	got, err := Compare(base, base, MicroSet(), 0)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if got.Regressed {
		t.Fatalf("identical reports flagged as regressed:\n%s", got)
	}
	if len(got.Checks) != len(MicroSet()) {
		t.Fatalf("checks = %d, want %d", len(got.Checks), len(MicroSet()))
	}
	if got.Tolerance != DefaultTolerance {
		t.Fatalf("tolerance = %v, want default %v", got.Tolerance, DefaultTolerance)
	}
}

func TestCompareWithinTolerancePasses(t *testing.T) {
	base := gateReport(nil)
	// 10% slower than baseline: inside the 15% band.
	cur := gateReport(map[string]float64{"unit-sample-new8": 2.0 / 1.10})
	got, err := Compare(base, cur, MicroSet(), 0)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if got.Regressed {
		t.Fatalf("10%% drift inside the 15%% tolerance flagged as regressed:\n%s", got)
	}
}

// TestCompareFailsOnInjected2xSlowdown is the gate's own acceptance check:
// a 2x slowdown of the optimized path must trip the gate, both when built
// synthetically and when injected through Report.WithInjectedSlowdown (the
// path the CI self-test step exercises).
func TestCompareFailsOnInjected2xSlowdown(t *testing.T) {
	base := gateReport(nil)
	got, err := Compare(base, base.WithInjectedSlowdown(2), MicroSet(), 0)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if !got.Regressed {
		t.Fatalf("2x slowdown not flagged:\n%s", got)
	}
	for _, c := range got.Checks {
		if !c.Regressed {
			t.Fatalf("check %s not regressed under 2x slowdown: ratio %v limit %v", c.Name, c.Ratio, c.Limit)
		}
		if c.Ratio < 0.49 || c.Ratio > 0.51 {
			t.Fatalf("check %s ratio = %v, want ~0.5", c.Name, c.Ratio)
		}
	}
	if !strings.Contains(got.String(), "PERFORMANCE REGRESSION") {
		t.Fatalf("report text missing verdict:\n%s", got)
	}
}

func TestCompareSingleBenchmarkRegression(t *testing.T) {
	base := gateReport(nil)
	cur := gateReport(map[string]float64{"label-energies-stereo": 1.0}) // 2x drop on one
	got, err := Compare(base, cur, MicroSet(), 0)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if !got.Regressed {
		t.Fatal("single-benchmark 2x regression not flagged")
	}
	regressed := 0
	for _, c := range got.Checks {
		if c.Regressed {
			regressed++
		}
	}
	if regressed != 1 {
		t.Fatalf("regressed checks = %d, want exactly 1", regressed)
	}
}

func TestCompareMalformedInputs(t *testing.T) {
	base := gateReport(nil)
	if _, err := Compare(Report{Schema: "other/v9"}, base, MicroSet(), 0); err == nil {
		t.Fatal("schema mismatch not rejected")
	}
	missing := base
	missing.Benchmarks = base.Benchmarks[:2]
	if _, err := Compare(missing, base, MicroSet(), 0); err == nil {
		t.Fatal("missing baseline benchmark not rejected")
	}
	if _, err := Compare(base, missing, MicroSet(), 0); err == nil {
		t.Fatal("missing current benchmark not rejected")
	}
	zero := gateReport(nil)
	zero.Benchmarks[0].Speedup = 0
	if _, err := Compare(zero, base, MicroSet(), 0); err == nil {
		t.Fatal("non-positive speedup not rejected")
	}
}

// TestMicroSetMatchesSuite pins the gate's benchmark names to the suite so a
// renamed benchmark breaks the build here instead of in CI.
func TestMicroSetMatchesSuite(t *testing.T) {
	rep := Report{Schema: Schema}
	rep.Benchmarks = []Result{
		{Name: "unit-sample-new8", NsOpBefore: 2, NsOpAfter: 1, Speedup: 2},
		{Name: "unit-sample-new56", NsOpBefore: 2, NsOpAfter: 1, Speedup: 2},
		{Name: "unit-sample-prev56", NsOpBefore: 2, NsOpAfter: 1, Speedup: 2},
		{Name: "label-energies-stereo", NsOpBefore: 2, NsOpAfter: 1, Speedup: 2},
		{Name: "sweep-row-kernel", NsOpBefore: 2, NsOpAfter: 1, Speedup: 2},
		{Name: "sample-batch", NsOpBefore: 2, NsOpAfter: 1, Speedup: 2},
		{Name: "energy-incremental", NsOpBefore: 2, NsOpAfter: 1, Speedup: 2},
		{Name: "schedule-temperature-500", NsOpBefore: 2, NsOpAfter: 1, Speedup: 2},
		{Name: "stereo-full-app", NsOpBefore: 2, NsOpAfter: 1, Speedup: 2},
	}
	if _, err := Compare(rep, rep, MicroSet(), 0); err != nil {
		t.Fatalf("MicroSet names out of sync with the suite: %v", err)
	}
}

// TestReportRecordsNumCPU: a report names the machine's CPU count next to
// GOMAXPROCS, and a report written before the field existed still decodes.
func TestReportRecordsNumCPU(t *testing.T) {
	rep := Report{Schema: Schema, GOMAXPROCS: 4, NumCPU: 2, Workers: 4}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"gomaxprocs":4,"num_cpu":2`) {
		t.Fatalf("report JSON %s lacks num_cpu next to gomaxprocs", data)
	}
	if !strings.Contains(rep.String(), "GOMAXPROCS 4, NumCPU 2") {
		t.Fatalf("report header %q lacks NumCPU", rep.String())
	}
	var old Report
	if err := json.Unmarshal([]byte(`{"schema":"x","gomaxprocs":4,"workers":4,"benchmarks":[]}`), &old); err != nil {
		t.Fatalf("decoding a report without num_cpu: %v", err)
	}
	if old.NumCPU != 0 || old.GOMAXPROCS != 4 {
		t.Fatalf("old report decoded as %+v", old)
	}
}
