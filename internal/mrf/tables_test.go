package mrf

import (
	"math"
	"testing"

	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/rng"
)

// TestTemperatureMatchesLoop pins the closed-form schedule to the O(k)
// multiplication loop it replaced, including the 1e-4 floor.
func TestTemperatureMatchesLoop(t *testing.T) {
	loop := func(s Schedule, k int) float64 {
		v := s.T0
		for i := 0; i < k; i++ {
			v *= s.Alpha
		}
		if v < 1e-4 {
			v = 1e-4
		}
		return v
	}
	schedules := []Schedule{
		{T0: 32, Alpha: 0.9885, Iterations: 500},
		{T0: 32, Alpha: 0.982, Iterations: 300},
		{T0: 6, Alpha: 1, Iterations: 30},
		{T0: 1, Alpha: 0.1, Iterations: 100},
	}
	for _, s := range schedules {
		for _, k := range []int{0, 1, 2, 7, 50, 499, 2000} {
			got, want := s.Temperature(k), loop(s, k)
			if math.Abs(got-want) > 1e-9*want {
				t.Errorf("T0=%v Alpha=%v k=%d: Temperature %v, loop %v", s.T0, s.Alpha, k, got, want)
			}
		}
	}
}

// tablesTestProblems returns problems covering every distance kind, a custom
// PairDist, and truncation.
func tablesTestProblems() []*Problem {
	single := func(x, y, l int) float64 { return float64(l*(x+2*y)) * 0.7 }
	return []*Problem{
		{W: 5, H: 4, Labels: 6, Singleton: single, PairWeight: 1.5, Dist: Absolute},
		{W: 5, H: 4, Labels: 6, Singleton: single, PairWeight: 2, Dist: Squared, TruncateDist: 9},
		{W: 4, H: 5, Labels: 3, Singleton: single, PairWeight: 20, Dist: Binary},
		{W: 4, H: 4, Labels: 4, Singleton: single, PairWeight: 1,
			PairDist: func(a, b int) float64 { return float64((a - b) * (a - b) % 5) }, Dist: Squared},
	}
}

// TestTablesLabelEnergiesMatchDirect checks the LUT fast path against the
// direct per-call evaluation on every pixel (interior and border) under a
// non-trivial labeling.
func TestTablesLabelEnergiesMatchDirect(t *testing.T) {
	for pi, p := range tablesTestProblems() {
		tab := p.BuildTables()
		lab := img.NewLabels(p.W, p.H)
		for i := range lab.L {
			lab.L[i] = (i*7 + 3) % p.Labels
		}
		singles := p.singletonTable(0, 0, p.W, p.H)
		direct := make([]float64, p.Labels)
		fast := make([]float64, p.Labels)
		for y := 0; y < p.H; y++ {
			for x := 0; x < p.W; x++ {
				p.LabelEnergies(direct, singles, lab, x, y)
				tab.LabelEnergies(fast, lab, x, y)
				for l := 0; l < p.Labels; l++ {
					if direct[l] != fast[l] {
						t.Fatalf("problem %d (%d,%d) label %d: direct %v, tables %v",
							pi, x, y, l, direct[l], fast[l])
					}
				}
			}
		}
	}
}

// TestShardCellsBalanced checks the short-and-wide fix: with H < workers,
// every worker still receives cells, shards are disjoint, and together they
// cover the whole color class.
func TestShardCellsBalanced(t *testing.T) {
	const w, h, workers = 40, 2, 8
	cells := checkerCells(w, h)
	for color := 0; color < 2; color++ {
		shards := shardCells(cells[color], workers)
		seen := map[int32]bool{}
		for wi, shard := range shards {
			if len(shard) == 0 {
				t.Fatalf("color %d worker %d got an empty shard (H < workers imbalance)", color, wi)
			}
			if d := len(shard) - len(cells[color])/workers; d < 0 || d > 1 {
				t.Fatalf("color %d worker %d shard size %d not balanced", color, wi, len(shard))
			}
			for _, c := range shard {
				if seen[c] {
					t.Fatalf("cell %d assigned twice", c)
				}
				seen[c] = true
			}
		}
		if len(seen) != len(cells[color]) {
			t.Fatalf("color %d: shards cover %d cells, class has %d", color, len(seen), len(cells[color]))
		}
	}
}

func sfactory(seed uint64) func(int) core.LabelSampler {
	return func(w int) core.LabelSampler {
		return core.NewSoftwareSampler(rng.NewXoshiro256(seed + 1000*uint64(w)))
	}
}

// TestSolveAutoSerialMatchesSolve pins Workers=1 to the exact serial path.
func TestSolveAutoSerialMatchesSolve(t *testing.T) {
	p := twoRegionProblem(14, 9)
	sched := Schedule{T0: 4, Alpha: 0.9, Iterations: 20}
	a, err := SolveAuto(p, sfactory(21), sched, SolveOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(p, sfactory(21)(0), sched, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.L {
		if a.L[i] != b.L[i] {
			t.Fatalf("Workers=1 SolveAuto differs from Solve at index %d", i)
		}
	}
}

// TestSolveAutoDeterministicPerWorkerCount: same seed + same worker count
// must be bit-identical; different worker counts must still land at
// comparable energies (same stationary distribution).
func TestSolveAutoDeterministicPerWorkerCount(t *testing.T) {
	p := twoRegionProblem(18, 5)
	sched := Schedule{T0: 4, Alpha: 0.88, Iterations: 30}
	for _, workers := range []int{1, 2, 3, 8} {
		a, err := SolveAuto(p, sfactory(7), sched, SolveOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		b, err := SolveAuto(p, sfactory(7), sched, SolveOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.L {
			if a.L[i] != b.L[i] {
				t.Fatalf("workers=%d: two identical runs diverge at index %d", workers, i)
			}
		}
	}
	e1, err := SolveAuto(p, sfactory(7), sched, SolveOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e4, err := SolveAuto(p, sfactory(7), sched, SolveOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(p.TotalEnergy(e1) - p.TotalEnergy(e4)); d > p.TotalEnergy(e1)*0.3+20 {
		t.Fatalf("1-worker vs 4-worker energies diverge: %v vs %v", p.TotalEnergy(e1), p.TotalEnergy(e4))
	}
}

func TestSolveAutoErrors(t *testing.T) {
	p := twoRegionProblem(6, 6)
	sched := Schedule{T0: 2, Alpha: 0.9, Iterations: 2}
	if _, err := SolveAuto(p, nil, sched, SolveOptions{}); err == nil {
		t.Error("nil factory must error")
	}
	if _, err := SolveAuto(p, sfactory(1), Schedule{}, SolveOptions{Workers: 2}); err == nil {
		t.Error("bad schedule must error through the parallel path")
	}
}

// TestSolveOptionsTablesReuse: precomputed tables produce identical results
// and tables from another problem are rejected.
func TestSolveOptionsTablesReuse(t *testing.T) {
	p := twoRegionProblem(10, 8)
	sched := Schedule{T0: 3, Alpha: 0.9, Iterations: 10}
	tab := p.BuildTables()
	a, err := Solve(p, core.NewSoftwareSampler(rng.NewXoshiro256(31)), sched, SolveOptions{Tables: tab})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(p, core.NewSoftwareSampler(rng.NewXoshiro256(31)), sched, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.L {
		if a.L[i] != b.L[i] {
			t.Fatal("reused tables changed the solve result")
		}
	}
	other := twoRegionProblem(10, 8)
	if _, err := Solve(p, core.NewSoftwareSampler(rng.NewXoshiro256(31)), sched,
		SolveOptions{Tables: other.BuildTables()}); err == nil {
		t.Error("tables from a different problem must be rejected")
	}
}

func TestResolveWorkers(t *testing.T) {
	if ResolveWorkers(3) != 3 {
		t.Error("explicit worker count must pass through")
	}
	if ResolveWorkers(0) < 1 {
		t.Error("0 must resolve to GOMAXPROCS >= 1")
	}
}
