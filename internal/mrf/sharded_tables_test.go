package mrf

import (
	"runtime"
	"strings"
	"testing"

	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/rng"
	"rsu/internal/shard"
)

// TestShardedTableBuildPanicBecomesError: a Singleton that panics while the
// tiles build their tables must fail the solve with an error naming the
// tile, as a panicking sampler in compute does — not crash the process — and
// leak no executor goroutines, at every executor count.
func TestShardedTableBuildPanicBecomesError(t *testing.T) {
	const w, h = 20, 14
	base := shardTestProblem(w, h, 4)
	p := *base
	// The bottom-right pixel lies only in tile 3's extended rectangle.
	p.Singleton = func(x, y, l int) float64 {
		if x == w-1 && y == h-1 {
			panic("bad pixel")
		}
		return base.Singleton(x, y, l)
	}
	for _, executors := range []int{1, 2, 4} {
		baseline := runtime.NumGoroutine()
		lab, err := SolveSharded(&p, rsugFactory(3), Schedule{T0: 4, Alpha: 0.9, Iterations: 3},
			SolveOptions{Shards: shard.Geometry{Rows: 2, Cols: 2}, Executors: executors})
		if err == nil || !strings.Contains(err.Error(), "mrf: tile 3 ") || !strings.Contains(err.Error(), "bad pixel") {
			t.Fatalf("executors=%d: err = %v, want tile 3's panic surfaced as an error", executors, err)
		}
		if lab != nil {
			t.Fatalf("executors=%d: a solve that never swept returned a labeling", executors)
		}
		waitForGoroutines(t, baseline)
	}
}

// TestShardedEnergyIndependentOfSuppliedTables: the sharded solver takes only
// the Pair LUT from SolveOptions.Tables and computes its initial energy from
// the problem, so supplying tables must not change a single bit of the
// tracked energy sequence or the labels.
func TestShardedEnergyIndependentOfSuppliedTables(t *testing.T) {
	p := shardTestProblem(26, 19, 5)
	init := img.NewLabels(p.W, p.H)
	for i := range init.L {
		init.L[i] = (i*7 + 2) % p.Labels
	}
	run := func(tab *Tables) ([]float64, []int) {
		var energies []float64
		lab, err := SolveSharded(p, rsugFactory(13), Schedule{T0: 8, Alpha: 0.9, Iterations: 6}, SolveOptions{
			Init:   init,
			Shards: shard.Geometry{Rows: 2, Cols: 3},
			Tables: tab,
			OnSweep: func(_ int, _ *img.Labels, st SolveStats) {
				energies = append(energies, st.Energy)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return energies, lab.L
	}
	wantE, wantL := run(nil)
	gotE, gotL := run(p.BuildTables())
	if len(gotE) != len(wantE) {
		t.Fatalf("%d sweeps reported with tables, %d without", len(gotE), len(wantE))
	}
	for i := range wantE {
		if gotE[i] != wantE[i] {
			t.Fatalf("sweep %d energy %v with tables, %v without", i, gotE[i], wantE[i])
		}
	}
	for i := range wantL {
		if gotL[i] != wantL[i] {
			t.Fatalf("label %d is %d with tables, %d without", i, gotL[i], wantL[i])
		}
	}
	// The initial energy the solver starts from is the full-table energy.
	if a, b := p.TotalEnergy(init), p.BuildTables().TotalEnergy(init); a != b {
		t.Fatalf("Problem.TotalEnergy %v != Tables.TotalEnergy %v", a, b)
	}
}

// TestShardedSolveAllocatesOneTable is the memory regression guard: a
// sharded solve builds each tile's data term in place, so everything it
// allocates stays under 1.25 full W×H×Labels tables. Building the full table
// and then copying it into the tiles allocates two.
func TestShardedSolveAllocatesOneTable(t *testing.T) {
	const w, h, labels = 160, 120, 48
	p := shardTestProblem(w, h, labels)
	factory := core.StreamFactory(17, func(src rng.Source) core.LabelSampler {
		return core.NewSoftwareSampler(src)
	})
	sched := Schedule{T0: 4, Alpha: 0.9, Iterations: 1}
	opts := SolveOptions{Shards: shard.Geometry{Rows: 2, Cols: 2}}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := SolveSharded(p, factory, sched, opts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	table := float64(w * h * labels * 8)
	alloc := float64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("sharded solve allocated %.0f bytes = %.3f tables", alloc, alloc/table)
	if alloc >= 1.25*table {
		t.Fatalf("sharded solve allocated %.0f bytes, %.2f full tables; the bound is 1.25", alloc, alloc/table)
	}
}
