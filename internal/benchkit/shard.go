package benchkit

import (
	"runtime"
	"time"

	"rsu/internal/apps/stereo"
	"rsu/internal/core"
	"rsu/internal/mrf"
	"rsu/internal/rng"
	"rsu/internal/shard"
	"rsu/internal/synth"
)

// ShardSchema identifies the shard-sweep report format (BENCH_3.json).
const ShardSchema = "rsu-bench-shard/v1"

// shardSweepScale is the synthetic dataset scale of the sweep's stereo
// problem. Scale 4 is 256x192 — 16x the area of the micro-suite's poster
// scene, with per-pixel label tables (11.8 MB) that no longer fit the L2
// slice of one core. At 49,152 px it is still below mrf.AutoShardPixels
// (2^18), so SolveAuto would not shard it on its own; the sweep passes each
// geometry explicitly.
const shardSweepScale = 4

// shardSweepSweeps matches the micro-suite's stereo-full-app sweep count so
// the two reports' per-solve times are comparable.
const shardSweepSweeps = 12

// shardSweepGeometries are the tilings the sweep measures against the
// monolithic baseline: a row split (north/south halos only), a square
// split, and an over-decomposed 4x2.
func shardSweepGeometries() []shard.Geometry {
	return []shard.Geometry{
		{Rows: 2, Cols: 1},
		{Rows: 2, Cols: 2},
		{Rows: 4, Cols: 2},
	}
}

// ShardSweep benchmarks the tile-sharded solver on an out-of-cache grid:
// one stereo solve of the scale-4 poster scene per op, first by the
// monolithic checkerboard-parallel solver and then by the sharded solver
// at each geometry. Result.NsOpBefore is the shared monolithic baseline,
// NsOpAfter the sharded time, so Speedup > 1 means the tiling won at that
// geometry. workers selects the baseline's checkerboard worker count
// (0 = GOMAXPROCS); the sharded arms use one goroutine per tile. Every arm
// gets the same prebuilt tables, but the sharded solver takes only their
// Pair LUT, so its time includes building the tiles' data terms.
func ShardSweep(workers int) Report {
	w := mrf.ResolveWorkers(workers)
	prob := stereo.BuildProblem(synth.Poster(shardSweepScale), stereo.DefaultParams())
	tab := prob.BuildTables()
	sched := mrf.Schedule{T0: 32, Alpha: 0.99, Iterations: shardSweepSweeps}

	solve := func(g shard.Geometry) func(n int) {
		return func(n int) {
			for it := 0; it < n; it++ {
				// One converter cache per op, shared across workers/tiles —
				// the same reuse the serving layer gets (see stereoFullAppPair).
				cc := core.NewConverterCache(0)
				factory := core.StreamFactory(1, func(src rng.Source) core.LabelSampler {
					u := core.MustUnit(core.NewRSUG(), src, true)
					u.SetConverterCache(cc)
					return u
				})
				opts := mrf.SolveOptions{Workers: w, Tables: tab, Shards: g}
				if _, err := mrf.SolveAuto(prob, factory, sched, opts); err != nil {
					panic(err)
				}
			}
		}
	}

	// One solve per op is already seconds of work, so the nanosecond minTime
	// pins n to 1 and measure reduces to best-of-three whole solves.
	base := measure(time.Nanosecond, solve(shard.Geometry{}))
	rep := Report{Schema: ShardSchema, GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Workers: w}
	for _, g := range shardSweepGeometries() {
		after := measure(time.Nanosecond, solve(g))
		rep.Benchmarks = append(rep.Benchmarks, Result{
			Name:       "stereo-poster4-shard-" + g.String(),
			NsOpBefore: base,
			NsOpAfter:  after,
			Speedup:    base / after,
		})
	}
	return rep
}
