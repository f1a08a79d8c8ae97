package mrf

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"rsu/internal/core"
	"rsu/internal/fault"
	"rsu/internal/img"
	"rsu/internal/shard"
)

// DefaultTFloor is the temperature floor a Schedule applies when its TFloor
// field is zero — the historical hard-coded value.
const DefaultTFloor = 1e-4

// Schedule is a geometric simulated-annealing schedule: iteration k runs at
// temperature T0 * Alpha^k, for Iterations full Gibbs sweeps. Alpha = 1
// gives fixed-temperature Gibbs sampling (used by image segmentation, which
// the paper runs for 30 plain iterations).
type Schedule struct {
	T0         float64
	Alpha      float64
	Iterations int
	// TFloor is the minimum temperature the schedule ever emits. Late
	// annealing sweeps are clamped here so they stay numerically valid.
	// 0 selects DefaultTFloor (1e-4, the historical behavior); schedules
	// that intentionally anneal below that set a smaller positive floor.
	TFloor float64
}

// floor resolves the effective temperature floor.
func (s Schedule) floor() float64 {
	if s.TFloor > 0 {
		return s.TFloor
	}
	return DefaultTFloor
}

// Validate reports schedule errors. Non-finite parameters (NaN, ±Inf) are
// rejected: a NaN or +Inf T0 used to slip through the sign checks and
// produce a schedule whose temperatures never change any label.
func (s Schedule) Validate() error {
	switch {
	case !(s.T0 > 0) || math.IsInf(s.T0, 1):
		return fmt.Errorf("mrf: T0 must be positive and finite, got %v", s.T0)
	case !(s.Alpha > 0 && s.Alpha <= 1):
		return fmt.Errorf("mrf: Alpha must be in (0,1], got %v", s.Alpha)
	case s.Iterations <= 0:
		return fmt.Errorf("mrf: Iterations must be positive")
	case s.TFloor < 0 || math.IsNaN(s.TFloor) || math.IsInf(s.TFloor, 1):
		return fmt.Errorf("mrf: TFloor must be finite and non-negative, got %v", s.TFloor)
	}
	return nil
}

// Temperature returns the temperature of sweep k, floored at the schedule's
// TFloor (DefaultTFloor when unset) so late annealing iterations stay
// numerically valid. The closed form keeps an N-sweep anneal at O(N)
// multiplications total (the per-sweep O(k) loop it replaces made it O(N²)).
func (s Schedule) Temperature(k int) float64 {
	t := s.T0 * math.Pow(s.Alpha, float64(k))
	if floor := s.floor(); t < floor {
		t = floor
	}
	return t
}

// tempIter streams the schedule's temperatures T(0), T(1), ... via a running
// product — one multiplication per sweep instead of Temperature's math.Pow.
// Temperature stays the public closed form; the solvers use the iterator, and
// a regression test pins the two within 1-ulp-per-step accumulation error
// (they agree exactly for the first dozen sweeps and whenever Alpha is a
// power of two or one).
type tempIter struct {
	t, alpha, floor float64
}

// iter returns the running-product iterator for the schedule.
func (s Schedule) iter() tempIter {
	return tempIter{t: s.T0, alpha: s.Alpha, floor: s.floor()}
}

// next returns the current sweep's temperature and advances the product.
// Once the product reaches the floor it is pinned there, mirroring the
// closed form's clamp (both sequences are non-increasing).
func (it *tempIter) next() float64 {
	t := it.t
	if t <= it.floor {
		it.t = it.floor
		return it.floor
	}
	it.t = t * it.alpha
	return t
}

// SolveStats is the per-sweep observability record delivered to the OnSweep
// hook — the software analogue of the per-iteration chain statistics the
// RSU-G's follow-up work treats as first-class outputs.
type SolveStats struct {
	// Sweep is the 0-based sweep index (equal to OnSweep's iter argument).
	Sweep int
	// T is the annealing temperature the sweep ran at.
	T float64
	// Energy is the total MRF energy of the labeling after the sweep.
	Energy float64
	// Flips is the number of variables whose label changed during the sweep.
	Flips int
	// Elapsed is the wall-clock duration of the sweep (sampling only, not
	// the hook itself).
	Elapsed time.Duration
}

// Collector receives the labeling after every completed sweep — the hook the
// uncertainty-quantification subsystem (internal/uq) accumulates posterior
// samples through. The contract is identical under Solve, SolveParallel and
// the persistent worker pool:
//
//   - Collect runs on the goroutine driving the solve, after the sweep's
//     label writes are published (the phase barrier in the parallel solver)
//     and after the OnSweep hook, so its cost is never charged to
//     SolveStats.Elapsed.
//   - The *img.Labels argument is the solver's reused working buffer, exactly
//     as for OnSweep: a collector that retains labels beyond the call must
//     copy them. Collectors that only fold the labeling into an aggregate
//     (histograms, moments) need no copy.
//   - Collection is observation only. It consumes no RNG draws and never
//     mutates the labeling, so attaching a Collector leaves the label trace
//     bit-identical to a run without one.
type Collector interface {
	Collect(sweep int, lab *img.Labels)
}

// SolveOptions tunes a Solve run.
type SolveOptions struct {
	// Init is the starting labeling; nil starts from all-zero labels.
	Init *img.Labels
	// OnSweep, if non-nil, is called after each sweep with the sweep index,
	// the current labeling, and the sweep's SolveStats record.
	//
	// The *img.Labels argument is the solver's working buffer: every solver
	// (serial and parallel) reuses the same storage across sweeps and keeps
	// mutating it after the hook returns. Callers that retain the labeling
	// beyond the hook invocation MUST take a copy (lab.Clone()); retaining
	// the pointer observes later sweeps' mutations. The SolveStats value is
	// safe to retain.
	OnSweep func(iter int, lab *img.Labels, st SolveStats)
	// Workers selects the solver parallelism for entry points that can
	// construct one sampler per worker (SolveAuto and the application
	// drivers): 0 = GOMAXPROCS, 1 = the exact serial Solve behavior,
	// n > 1 = n checkerboard-parallel workers. Solve and SolveParallel
	// themselves ignore it — their sampler arguments fix the worker count.
	Workers int
	// Executors caps how many goroutines actually run the logical worker
	// shards of the parallel solver. Logical workers fix the output — each
	// owns one sampler (RNG stream) and one shard per color — while
	// executors merely schedule them, so every executor count yields a
	// bit-identical labeling. 0 = min(workers, NumCPU, GOMAXPROCS): running
	// more OS threads than physical cores buys no parallelism and only adds
	// scheduler churn at the color-phase barriers. Values above the worker
	// count are clamped to it.
	Executors int
	// Tables, when non-nil, supplies precomputed lookup tables for the
	// problem (see Problem.BuildTables), letting multi-restart callers
	// amortize table construction across solves. Must have been built
	// from the same Problem value passed to the solver. The sharded solver
	// takes only its Pair LUT: it evaluates each tile's data term into the
	// tile's own table rather than copying rows out of Singles.
	Tables *Tables
	// Collector, when non-nil, observes the labeling after every sweep
	// (see the Collector interface for the retention and neutrality
	// contract). nil — the default — adds no work to the sweep loop.
	Collector Collector
	// Faults, when non-nil, attaches the device-fault injection layer to
	// every hardware sampler for the duration of the solve: worker w's
	// sampler hosts Faults.Model(w), whose randomness comes from a dedicated
	// per-stream RNG (never the label stream). Samplers that model no device
	// (the software baseline) are silently left ideal. A nil Faults — or an
	// attached injection whose rates are all zero — leaves every solver path
	// byte-identical to the golden traces (the zero-fault invariant).
	Faults *fault.Injection
	// CheckpointEvery, with OnCheckpoint set, captures a SolverState snapshot
	// after every CheckpointEvery-th sweep (never after the final one). 0
	// disables periodic capture; OnCheckpoint then still fires once on
	// cancellation. Captures happen between sweeps on the goroutine driving
	// the solve, so they never race the workers and cost nothing when off.
	CheckpointEvery int
	// OnCheckpoint, when non-nil, receives each captured snapshot (periodic
	// and on-cancellation). The SolverState and everything it references is
	// freshly allocated per capture and safe to retain. An error aborts the
	// solve (periodic) or is joined onto the cancellation cause — a caller
	// that asked for durability must hear that it was not delivered.
	// Checkpointing requires every sampler (and the Collector, if any) to be
	// checkpointable; the first capture reports a violation as an error.
	OnCheckpoint func(*SolverState) error
	// Shards selects the tile-sharded solver geometry for the factory entry
	// points (SolveAuto and the application drivers): the grid is split into
	// Shards.Rows × Shards.Cols tiles with 1-pixel halos exchanged at every
	// checkerboard color-phase barrier, each tile drawing from its own RNG
	// stream (factory(tileIndex)). The zero value — the default — means not
	// sharded; SolveAuto may still shard automatically for grids of
	// AutoShardPixels pixels or more. A 1×1 geometry delegates to the serial
	// solver and is byte-identical to it. Multi-tile output differs from the
	// monolithic solvers only through RNG stream assignment — the transition
	// kernel (and so the stationary distribution) is identical, which
	// rsu-verify's sharding-equivalence battery gates. For a fixed geometry
	// and seed the result is bit-exactly reproducible at any Executors count.
	// Workers is ignored when sharding: the tile lattice fixes the
	// parallelism.
	Shards shard.Geometry
	// shardPhaseHook, when non-nil, observes the full gathered labeling after
	// every color-phase halo exchange of the sharded solver — a test-only
	// seam the halo-exchange property tests use to compare against the
	// monolithic checkerboard reference at each barrier.
	shardPhaseHook func(sweep, color int, lab *img.Labels)
	// Resume, when non-nil, restores a previously captured snapshot instead
	// of starting fresh: the grid, every worker's RNG stream and counters,
	// the schedule position, the incremental energy, and the fault/collector
	// state. The run configuration must match the capturing run (problem
	// shape, worker count, schedule, fault and collector presence); Init is
	// ignored. A resumed run is bit-identical to the uninterrupted one — the
	// guarantee rsu-verify's checkpoint gate enforces against all golden
	// traces.
	Resume *SolverState
}

// attachFaults installs opts.Faults' per-stream models on the samplers and
// returns the detach func to defer (solvers must not leave a past run's
// injector on a caller-owned sampler). Serial solves are stream 0.
func attachFaults(opts SolveOptions, samplers ...core.LabelSampler) func() {
	if opts.Faults == nil {
		return func() {}
	}
	var detach []func()
	for w, s := range samplers {
		if d := opts.Faults.Attach(s, w); d != nil {
			detach = append(detach, d)
		}
	}
	return func() {
		for _, d := range detach {
			d()
		}
	}
}

// ResolveWorkers maps the SolveOptions.Workers knob onto a concrete worker
// count: 0 (the default) means GOMAXPROCS, anything else is used as given.
func ResolveWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// prepare validates the problem and schedule, clones or allocates the
// initial labeling, and resolves the lookup tables — the entry sequence
// shared by Solve and SolveParallel.
func prepare(p *Problem, sched Schedule, opts SolveOptions) (*img.Labels, *Tables, error) {
	lab, err := initLabels(p, sched, opts)
	if err != nil {
		return nil, nil, err
	}
	tab, err := suppliedTables(p, opts)
	if err != nil {
		return nil, nil, err
	}
	if tab == nil {
		tab = p.BuildTables()
	}
	return lab, tab, nil
}

// initLabels validates the problem and schedule and clones or allocates the
// initial labeling: the snapshot grid when resuming, else opts.Init, else
// all zeros.
func initLabels(p *Problem, sched Schedule, opts SolveOptions) (*img.Labels, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	lab := opts.Init
	if st := opts.Resume; st != nil {
		// A snapshot overrides Init: its grid IS the labeling mid-run.
		if st.W != p.W || st.H != p.H || st.Labels != p.Labels {
			return nil, fmt.Errorf("mrf: snapshot shape %dx%d/%d labels does not match problem %dx%d/%d",
				st.W, st.H, st.Labels, p.W, p.H, p.Labels)
		}
		if len(st.Grid) != p.W*p.H {
			return nil, fmt.Errorf("mrf: snapshot grid has %d labels, problem needs %d", len(st.Grid), p.W*p.H)
		}
		lab = img.NewLabels(p.W, p.H)
		copy(lab.L, st.Grid)
	} else if lab == nil {
		lab = img.NewLabels(p.W, p.H)
	} else {
		if lab.W != p.W || lab.H != p.H {
			return nil, fmt.Errorf("mrf: init labeling %dx%d does not match problem %dx%d", lab.W, lab.H, p.W, p.H)
		}
		lab = lab.Clone()
	}
	for i, l := range lab.L {
		if l < 0 || l >= p.Labels {
			return nil, fmt.Errorf("mrf: init label %d at index %d out of range [0,%d)", l, i, p.Labels)
		}
	}
	return lab, nil
}

// suppliedTables returns opts.Tables after checking it was built from p, or
// nil when the caller supplied none.
func suppliedTables(p *Problem, opts SolveOptions) (*Tables, error) {
	if tab := opts.Tables; tab != nil && tab.p != p {
		return nil, fmt.Errorf("mrf: SolveOptions.Tables built from a different problem")
	}
	return opts.Tables, nil
}

// emitSweep assembles the sweep's SolveStats and invokes the hook. energy is
// the incrementally-tracked total MRF energy (initial TotalEnergy plus the
// FlipDelta of every accepted flip), so observability costs O(flips) per
// sweep instead of a full re-evaluation; a randomized property test pins it
// against TotalEnergy recomputation to 1e-9 relative error.
func emitSweep(opts SolveOptions, lab *img.Labels, k int, T, energy float64, flips int, start time.Time) {
	opts.OnSweep(k, lab, SolveStats{
		Sweep:   k,
		T:       T,
		Energy:  energy,
		Flips:   flips,
		Elapsed: time.Since(start),
	})
}

// serialSweeper is the fused serial sweep engine: per row it gathers the
// whole W×Labels candidate-energy block with one LabelEnergiesRow call, then
// draws each pixel from its slot. The raster scan's only intra-row data
// dependence is the left neighbor, so a slot is stale only when the
// immediately preceding pixel flipped — in that case the slot is recomputed
// through the exact per-pixel LabelEnergies path, keeping every energy
// vector (and therefore every RNG draw) bit-identical to the unfused loop.
// The block is allocated once per solve; steady-state sweeps are zero-alloc.
type serialSweeper struct {
	p       *Problem
	tab     *Tables
	lab     *img.Labels
	sampler core.LabelSampler
	block   []float64 // one row's W×Labels energy block, reused every row
	track   bool      // maintain energy incrementally (OnSweep is set)
	energy  float64   // running total MRF energy, valid when track
}

func newSerialSweeper(p *Problem, tab *Tables, lab *img.Labels, sampler core.LabelSampler, track bool) *serialSweeper {
	s := &serialSweeper{
		p: p, tab: tab, lab: lab, sampler: sampler,
		block: make([]float64, p.W*p.Labels),
		track: track,
	}
	if track {
		s.energy = tab.TotalEnergy(lab)
	}
	return s
}

// sweep runs one full raster-scan Gibbs sweep; k names the sweep in errors.
func (s *serialSweeper) sweep(k int) (int, error) {
	p, tab, lab := s.p, s.tab, s.lab
	L := p.Labels
	flips := 0
	for y := 0; y < p.H; y++ {
		tab.LabelEnergiesRow(s.block, lab, y)
		prevFlipped := false
		for x := 0; x < p.W; x++ {
			vec := s.block[x*L : x*L+L]
			if prevFlipped {
				// The left neighbor changed after the row gather; recompute
				// this one slot through the per-pixel path so the energies
				// match the unfused raster scan bit for bit.
				tab.LabelEnergies(vec, lab, x, y)
			}
			cur := lab.At(x, y)
			next, err := s.sampler.Sample(vec, cur)
			if err != nil {
				return flips, fmt.Errorf("mrf: sweep %d pixel (%d,%d): %w", k, x, y, err)
			}
			if next != cur {
				if s.track {
					s.energy += tab.FlipDelta(lab, x, y, cur, next)
				}
				lab.Set(x, y, next)
				flips++
				prevFlipped = true
			} else {
				prevFlipped = false
			}
		}
	}
	return flips, nil
}

// Solve runs simulated-annealing Gibbs sampling on the problem using the
// given label sampler, returning the final labeling. The sampler's
// SetTemperature is invoked at the start of every sweep, mirroring the
// RSU-G's per-iteration LUT/boundary update.
func Solve(p *Problem, sampler core.LabelSampler, sched Schedule, opts SolveOptions) (*img.Labels, error) {
	return SolveCtx(context.Background(), p, sampler, sched, opts)
}

// SolveCtx is Solve with cooperative cancellation: the context is checked
// between sweeps (never mid-sweep, so a finished sweep is always a
// consistent labeling), and on cancellation or deadline expiry the partial
// labeling computed so far is returned together with ctx.Err(). A sampler
// error likewise aborts the run with the partial labeling.
func SolveCtx(ctx context.Context, p *Problem, sampler core.LabelSampler, sched Schedule, opts SolveOptions) (*img.Labels, error) {
	if sampler == nil {
		return nil, fmt.Errorf("mrf: nil sampler")
	}
	if opts.Shards.Tiles() > 1 {
		return nil, fmt.Errorf("mrf: SolveOptions.Shards %s needs one sampler per tile — use SolveAuto or SolveSharded with a factory", opts.Shards)
	}
	lab, tab, err := prepare(p, sched, opts)
	if err != nil {
		return nil, err
	}
	defer attachFaults(opts, sampler)()
	samplers := []core.LabelSampler{sampler}
	sw := newSerialSweeper(p, tab, lab, sampler, opts.OnSweep != nil)
	first := 0
	ti := sched.iter()
	if st := opts.Resume; st != nil {
		if err := checkResumeShards(st, 0, 0); err != nil {
			return nil, err
		}
		if err := applyResume(st, sched, samplers, opts); err != nil {
			return nil, err
		}
		first = st.NextSweep
		ti = resumeIter(st, sched)
		if sw.track && st.EnergyTracked {
			// Restore the incremental accumulator rather than keeping the
			// TotalEnergy recomputation: the two agree only to rounding, and
			// resumed run logs must be byte-identical.
			sw.energy = st.Energy
		}
	}
	for k := first; k < sched.Iterations; k++ {
		if err := ctx.Err(); err != nil {
			return lab, cancelCheckpoint(err, p, lab, samplers, opts, k, ti, sw.energy, sw.track)
		}
		start := time.Now()
		T := ti.next()
		if err := sampler.SetTemperature(T); err != nil {
			return lab, fmt.Errorf("mrf: sweep %d: %w", k, err)
		}
		flips, err := sw.sweep(k)
		if err != nil {
			return lab, err
		}
		if opts.OnSweep != nil {
			emitSweep(opts, lab, k, T, sw.energy, flips, start)
		}
		if opts.Collector != nil {
			opts.Collector.Collect(k, lab)
		}
		if err := periodicCheckpoint(p, lab, samplers, opts, k, ti, sw.energy, sw.track, sched.Iterations); err != nil {
			return lab, err
		}
	}
	return lab, nil
}

// SolveWith is the dispatch every application driver shares: a non-nil
// factory selects the worker-parallel path (SolveAuto, honoring
// opts.Workers) and overrides sampler; otherwise the serial Solve runs with
// the given sampler, preserving the app's original behavior exactly.
func SolveWith(p *Problem, sampler core.LabelSampler, factory func(worker int) core.LabelSampler, sched Schedule, opts SolveOptions) (*img.Labels, error) {
	return SolveWithCtx(context.Background(), p, sampler, factory, sched, opts)
}

// SolveWithCtx is SolveWith under a context; see SolveCtx for the
// cancellation contract.
func SolveWithCtx(ctx context.Context, p *Problem, sampler core.LabelSampler, factory func(worker int) core.LabelSampler, sched Schedule, opts SolveOptions) (*img.Labels, error) {
	if factory != nil {
		return SolveAutoCtx(ctx, p, factory, sched, opts)
	}
	return SolveCtx(ctx, p, sampler, sched, opts)
}

// SolveAuto dispatches between Solve, SolveParallel and SolveSharded,
// constructing one independently-seeded sampler per worker (or tile)
// through factory (called once for each index in [0, workers) or
// [0, tiles)). In order: an explicit opts.Shards geometry, or a resume from
// a multi-tile snapshot, runs the sharded solver; Workers = 0 on a grid of
// AutoShardPixels pixels or more (and no resume) auto-shards with
// shard.Auto's geometry; otherwise Workers = 1 reproduces Solve with
// factory(0) exactly, and any other value runs the checkerboard-parallel
// solver.
func SolveAuto(p *Problem, factory func(worker int) core.LabelSampler, sched Schedule, opts SolveOptions) (*img.Labels, error) {
	return SolveAutoCtx(context.Background(), p, factory, sched, opts)
}

// SolveAutoCtx is SolveAuto under a context; see SolveCtx for the
// cancellation contract.
func SolveAutoCtx(ctx context.Context, p *Problem, factory func(worker int) core.LabelSampler, sched Schedule, opts SolveOptions) (*img.Labels, error) {
	if factory == nil {
		return nil, fmt.Errorf("mrf: nil sampler factory")
	}
	if !opts.Shards.IsZero() {
		return SolveShardedCtx(ctx, p, factory, sched, opts)
	}
	if st := opts.Resume; st != nil && st.ShardRows*st.ShardCols > 1 {
		// A sharded snapshot fixes the solver mode: resume it sharded with
		// the captured geometry, whatever Workers says.
		o := opts
		o.Shards = shard.Geometry{Rows: st.ShardRows, Cols: st.ShardCols}
		return SolveShardedCtx(ctx, p, factory, sched, o)
	}
	if opts.Workers == 0 && opts.Resume == nil && p.W*p.H >= AutoShardPixels {
		// Out-of-cache grid with the worker count left to us: shard it. The
		// geometry is a pure function of the grid shape (shard.Auto), so the
		// result stays reproducible and resumable.
		if g := shard.Auto(p.W, p.H); g.Tiles() > 1 {
			o := opts
			o.Shards = g
			return SolveShardedCtx(ctx, p, factory, sched, o)
		}
	}
	workers := ResolveWorkers(opts.Workers)
	if workers == 1 {
		return SolveCtx(ctx, p, factory(0), sched, opts)
	}
	samplers := make([]core.LabelSampler, workers)
	for w := range samplers {
		samplers[w] = factory(w)
	}
	return SolveParallelCtx(ctx, p, samplers, sched, opts)
}
