package mrf

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/shard"
)

// AutoShardPixels is the grid size (W*H) at or above which SolveAuto picks
// the tile-sharded solver when the caller left both Shards and Workers unset:
// past this point the monolithic grid plus its W×H×Labels singleton table no
// longer fits any reasonable last-level cache, and tiling wins back locality.
// Explicit Workers or an explicit geometry always override the heuristic.
const AutoShardPixels = 1 << 18

// shardTile is one tile's compute state: its label buffer (the extended
// rectangle, wrapped as an img.Labels so the fused Tables kernels run
// unchanged), its own Tables over that rectangle, its own sampler (the
// tile's RNG stream), and the tile-local linear indices of its owned cells
// split by global checkerboard parity. Scratch buffers are per tile, so any
// executor can run any tile without sharing state.
type shardTile struct {
	t    shard.Tile
	grid *shard.TileGrid
	lab  *img.Labels // aliases grid.L over the extended rect
	// tab is built by the pool's first stage (build), on the executor that
	// runs the tile.
	tab     *Tables
	sampler core.BatchSampler
	// cells[color] lists owned cells of global parity (gx+gy)%2 == color as
	// tile-local linear indices, row-major — the same order the monolithic
	// checkerboard visits them.
	cells [2][]int32

	energies []float64
	currents []int
	out      []int
}

func newShardTile(t shard.Tile, g *shard.TileGrid, L int, sampler core.LabelSampler) *shardTile {
	ew, eh := t.EW(), t.EH()
	st := &shardTile{
		t: t, grid: g,
		lab:     &img.Labels{W: ew, H: eh, L: g.L},
		sampler: core.AsBatch(sampler),
	}
	for color := 0; color < 2; color++ {
		cs := make([]int32, 0, (t.W()*t.H()+1)/2)
		for gy := t.Y0; gy < t.Y1; gy++ {
			// First owned x of this row with (gx+gy)%2 == color.
			gx := t.X0
			if (gx+gy)%2 != color {
				gx++
			}
			ly := gy - t.EY0
			for ; gx < t.X1; gx += 2 {
				cs = append(cs, int32(ly*ew+(gx-t.EX0)))
			}
		}
		st.cells[color] = cs
	}
	segCap := (ew + 1) / 2
	st.energies = make([]float64, segCap*L)
	st.currents = make([]int, segCap)
	st.out = make([]int, segCap)
	return st
}

// build evaluates p's data term over the tile's extended rectangle into the
// tile's own Tables, sharing the Pair LUT pair. A panicking Singleton comes
// back as an error, as in compute.
func (ts *shardTile) build(p *Problem, pair []float64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("mrf: tile %d panicked building its table: %v", ts.t.Index, r)
		}
	}()
	t := ts.t
	ts.tab = p.rectTables(t.EX0, t.EY0, t.EX1, t.EY1, pair)
	return nil
}

// compute runs one color phase over the tile's owned cells, exactly like
// solverPool.shard: maximal same-row stride-2 segments are gathered with one
// LabelEnergiesSeg call on the tile's table and drawn with one SampleBatch
// call. Halo cells are read (they are the other color) but never written.
// Returns the tile's flips and, when track, accumulates the energy delta.
func (ts *shardTile) compute(color int, track bool) (flips int, edelta float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("mrf: tile %d panicked: %v", ts.t.Index, r)
		}
	}()
	L := ts.tab.Labels()
	ew := ts.t.EW()
	labs := ts.lab.L
	cells := ts.cells[color]
	for i := 0; i < len(cells); {
		c := int(cells[i])
		lx0, ly := c%ew, c/ew
		// Extend across the same-row stride-2 run; the row bound keeps an odd
		// extended width from letting the linear sequence jump rows.
		n := 1
		nmax := (ew - lx0 + 1) / 2
		if m := len(cells) - i; nmax > m {
			nmax = m
		}
		for n < nmax && int(cells[i+n]) == c+2*n {
			n++
		}
		ts.tab.LabelEnergiesSeg(ts.energies[:n*L], ts.lab, ly, lx0, 2, n)
		for j := 0; j < n; j++ {
			ts.currents[j] = labs[c+2*j]
		}
		if serr := ts.sampler.SampleBatch(ts.energies[:n*L], L, ts.currents[:n], ts.out[:n]); serr != nil {
			return flips, edelta, fmt.Errorf("mrf: tile %d pixel (%d,%d): %w",
				ts.t.Index, ts.t.EX0+lx0, ts.t.EY0+ly, serr)
		}
		for j := 0; j < n; j++ {
			if next := ts.out[j]; next != ts.currents[j] {
				if track {
					edelta += ts.tab.FlipDelta(ts.lab, lx0+2*j, ly, ts.currents[j], next)
				}
				labs[c+2*j] = next
				flips++
			}
		}
		i += n
	}
	return flips, edelta, nil
}

// shardPool schedules the tiles over a fixed set of executor goroutines with
// the same inline-executor-0 barrier protocol as solverPool. A solve starts
// with one build stage, in which every tile evaluates its own data-term
// table, then runs four stages per sweep instead of two: compute color 0,
// exchange halos, compute color 1, exchange halos. Compute stages write only
// owned cells; exchange stages write only the running tile's own halo and
// read only neighbors' owned cells — each barrier separates the two access
// patterns, so the sweep is race-free at any executor count, and because
// tiles (not cells) are the scheduling unit, bit-identical at any executor
// count too.
type shardPool struct {
	plan  *shard.Plan
	tiles []*shardTile
	grids []*shard.TileGrid
	track bool
	nexec int

	cmds  []chan int // stage commands for executors 1..E-1
	phase sync.WaitGroup
	exit  sync.WaitGroup

	errs   []error // per-tile first error; owner = whichever executor runs the tile
	flips  []int
	edelta []float64

	// prob and pair feed the build stage; set before its barrier.
	prob *Problem
	pair []float64

	// hook, when non-nil, runs after each exchange barrier with the color
	// whose phase just completed — the solver gathers and forwards to
	// SolveOptions.shardPhaseHook.
	hook func(color int)
}

// Stage encoding for the command channels.
const (
	stageCompute0 = iota
	stageExchange0
	stageCompute1
	stageExchange1
	stageBuild
)

func newShardPool(plan *shard.Plan, tiles []*shardTile, grids []*shard.TileGrid, track bool, nexec int) *shardPool {
	pool := &shardPool{
		plan: plan, tiles: tiles, grids: grids, track: track, nexec: nexec,
		cmds:   make([]chan int, nexec-1),
		errs:   make([]error, len(tiles)),
		flips:  make([]int, len(tiles)),
		edelta: make([]float64, len(tiles)),
	}
	for i := range pool.cmds {
		pool.cmds[i] = make(chan int)
		pool.exit.Add(1)
		go pool.run(i + 1)
	}
	return pool
}

// run is one executor's loop: park on the command channel, execute the
// commanded stage over this executor's contiguous tile block, signal the
// barrier, repeat until the channel closes.
func (pool *shardPool) run(e int) {
	defer pool.exit.Done()
	for stage := range pool.cmds[e-1] {
		pool.execStage(e, stage)
		pool.phase.Done()
	}
}

// execStage runs one stage for executor e's contiguous block of tiles,
// sequentially and in tile order.
func (pool *shardPool) execStage(e, stage int) {
	n := len(pool.tiles)
	for i := e * n / pool.nexec; i < (e+1)*n/pool.nexec; i++ {
		switch stage {
		case stageCompute0, stageCompute1:
			if pool.errs[i] != nil {
				continue // tile sits out after an error, but honors barriers
			}
			color := 0
			if stage == stageCompute1 {
				color = 1
			}
			flips, edelta, err := pool.tiles[i].compute(color, pool.track)
			pool.flips[i] += flips
			pool.edelta[i] += edelta
			if err != nil {
				pool.errs[i] = err
			}
		case stageExchange0, stageExchange1:
			shard.PullHalos(pool.plan, pool.grids, i)
		case stageBuild:
			pool.errs[i] = pool.tiles[i].build(pool.prob, pool.pair)
		}
	}
}

// barrier drives one stage across every executor: commands 1..E-1, runs
// executor 0 inline, waits. The sends publish the driving goroutine's writes;
// the Wait publishes the executors' writes back.
func (pool *shardPool) barrier(stage int) {
	pool.phase.Add(len(pool.cmds))
	for _, cmd := range pool.cmds {
		cmd <- stage
	}
	pool.execStage(0, stage)
	pool.phase.Wait()
}

// build runs the build stage: every tile evaluates p's data term over its
// extended rectangle on the executor that will sweep it, so the tables build
// in parallel and land next to the core that reads them. Returns the first
// tile error in tile order.
func (pool *shardPool) build(p *Problem, pair []float64) error {
	pool.prob, pool.pair = p, pair
	pool.barrier(stageBuild)
	pool.prob, pool.pair = nil, nil
	return pool.firstErr()
}

// firstErr returns the first tile error in tile order, or nil.
func (pool *shardPool) firstErr() error {
	for _, err := range pool.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sweep drives the four stages of one sweep and returns the sweep's flip
// count and energy delta (summed in tile order, so the tracked energy is
// deterministic) plus the first tile error, if any.
func (pool *shardPool) sweep() (int, float64, error) {
	pool.barrier(stageCompute0)
	pool.barrier(stageExchange0)
	if pool.hook != nil {
		pool.hook(0)
	}
	pool.barrier(stageCompute1)
	pool.barrier(stageExchange1)
	if pool.hook != nil {
		pool.hook(1)
	}
	flips := 0
	var delta float64
	for i := range pool.flips {
		flips += pool.flips[i]
		pool.flips[i] = 0
		delta += pool.edelta[i]
		pool.edelta[i] = 0
	}
	return flips, delta, pool.firstErr()
}

// stop shuts the executors down and waits for every goroutine to exit.
func (pool *shardPool) stop() {
	for _, cmd := range pool.cmds {
		close(cmd)
	}
	pool.exit.Wait()
}

// SolveSharded runs the tile-sharded checkerboard solver with the geometry in
// opts.Shards (1×1 when unset), constructing one independently-seeded sampler
// per tile through factory (called once per tile index, row-major over the
// lattice). See SolveOptions.Shards for the equivalence and reproducibility
// contract.
func SolveSharded(p *Problem, factory func(tile int) core.LabelSampler, sched Schedule, opts SolveOptions) (*img.Labels, error) {
	return SolveShardedCtx(context.Background(), p, factory, sched, opts)
}

// SolveShardedCtx is SolveSharded under a context; see SolveCtx for the
// cancellation contract.
func SolveShardedCtx(ctx context.Context, p *Problem, factory func(tile int) core.LabelSampler, sched Schedule, opts SolveOptions) (*img.Labels, error) {
	if factory == nil {
		return nil, fmt.Errorf("mrf: nil sampler factory")
	}
	geom := opts.Shards
	if geom.IsZero() {
		geom = shard.Geometry{Rows: 1, Cols: 1}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := geom.Validate(p.W, p.H); err != nil {
		return nil, fmt.Errorf("mrf: %w", err)
	}
	if geom.Tiles() == 1 {
		// One tile owning the whole grid IS the serial solve: same cells,
		// same draw order, same single RNG stream. Delegating makes the
		// 1×1-equals-serial contract true by construction.
		o := opts
		o.Shards = shard.Geometry{}
		return SolveCtx(ctx, p, factory(0), sched, o)
	}

	lab, err := initLabels(p, sched, opts)
	if err != nil {
		return nil, err
	}
	// Only the Pair LUT is shared; each tile builds its own data term below.
	tab, err := suppliedTables(p, opts)
	if err != nil {
		return nil, err
	}
	var pair []float64
	if tab != nil {
		pair = tab.Pair
	} else {
		pair = p.BuildPairLUT().Pair
	}
	plan, err := shard.NewPlan(geom, p.W, p.H)
	if err != nil {
		return nil, fmt.Errorf("mrf: %w", err)
	}
	ntiles := geom.Tiles()
	samplers := make([]core.LabelSampler, ntiles)
	for i := range samplers {
		if samplers[i] = factory(i); samplers[i] == nil {
			return nil, fmt.Errorf("mrf: nil sampler for tile %d", i)
		}
	}
	// Tile i hosts fault stream i — the sharded analogue of worker w hosting
	// stream w, fixed for a given geometry at every executor count.
	defer attachFaults(opts, samplers...)()

	grids := shard.NewTileGrids(plan)
	for _, g := range grids {
		g.Scatter(lab.L, p.W)
	}
	tiles := make([]*shardTile, ntiles)
	for i, t := range plan.Tiles {
		tiles[i] = newShardTile(t, grids[i], p.Labels, samplers[i])
	}

	first := 0
	ti := sched.iter()
	if st := opts.Resume; st != nil {
		if err := checkResumeShards(st, geom.Rows, geom.Cols); err != nil {
			return nil, err
		}
		if err := applyResume(st, sched, samplers, opts); err != nil {
			return nil, err
		}
		if len(st.Halos) != ntiles {
			return nil, fmt.Errorf("mrf: snapshot has %d halo buffers for %d tiles", len(st.Halos), ntiles)
		}
		// initLabels already copied the snapshot grid into lab (and Scatter
		// above into the tiles); the halos must come from the snapshot, not
		// from the neighbors' current labels — they are the state of the last
		// exchange before capture, which for edge-adjacent cells is the same
		// thing, but corners were never exchanged and must round-trip
		// verbatim for later checkpoints to stay byte-identical.
		for i, g := range grids {
			if err := g.RestoreHalos(st.Halos[i]); err != nil {
				return nil, fmt.Errorf("mrf: %w", err)
			}
		}
		first = st.NextSweep
		ti = resumeIter(st, sched)
	}

	track := opts.OnSweep != nil
	pool := newShardPool(plan, tiles, grids, track, resolveExecutors(opts.Executors, ntiles))
	defer pool.stop()
	if err := pool.build(p, pair); err != nil {
		return nil, err
	}
	var energy float64
	if st := opts.Resume; track && st != nil && st.EnergyTracked {
		energy = st.Energy
	} else if track {
		// Same terms in the same order as Tables.TotalEnergy over the full
		// grid, so the tracked energy is bit-identical without that table.
		energy = p.TotalEnergy(lab)
	}

	// gather reassembles the global labeling from the tiles' owned rects. It
	// runs only when an observer needs the full grid (hook, collector,
	// checkpoint, cancellation, final return) — steady sharded sweeps touch
	// only tile-local memory.
	gather := func() {
		for _, g := range grids {
			g.GatherInto(lab.L, p.W)
		}
	}
	if opts.shardPhaseHook != nil {
		sweepIdx := first
		pool.hook = func(color int) {
			gather()
			opts.shardPhaseHook(sweepIdx, color, lab)
			if color == 1 {
				sweepIdx++
			}
		}
	}

	for k := first; k < sched.Iterations; k++ {
		if err := ctx.Err(); err != nil {
			gather()
			return lab, cancelShardCheckpoint(err, p, lab, samplers, grids, geom, opts, k, ti, energy, track)
		}
		start := time.Now()
		T := ti.next()
		for _, s := range samplers {
			if err := s.SetTemperature(T); err != nil {
				return lab, fmt.Errorf("mrf: sweep %d: %w", k, err)
			}
		}
		flips, delta, err := pool.sweep()
		if err != nil {
			gather()
			return lab, err
		}
		if track {
			energy += delta
		}
		due := opts.OnCheckpoint != nil && opts.CheckpointEvery > 0 &&
			(k+1)%opts.CheckpointEvery == 0 && k+1 < sched.Iterations
		if track || opts.Collector != nil || due || k+1 == sched.Iterations {
			gather()
		}
		if track {
			emitSweep(opts, lab, k, T, energy, flips, start)
		}
		if opts.Collector != nil {
			opts.Collector.Collect(k, lab)
		}
		if due {
			st, err := captureShardState(p, lab, samplers, grids, geom, opts, k+1, ti.t, energy, track)
			if err != nil {
				return lab, fmt.Errorf("mrf: sweep %d checkpoint: %w", k, err)
			}
			if err := opts.OnCheckpoint(st); err != nil {
				return lab, fmt.Errorf("mrf: sweep %d checkpoint: %w", k, err)
			}
		}
	}
	return lab, nil
}

// captureShardState is captureState plus the sharded extras: the geometry and
// every tile's halo snapshot. The caller must have gathered the tiles into
// lab first.
func captureShardState(p *Problem, lab *img.Labels, samplers []core.LabelSampler, grids []*shard.TileGrid,
	geom shard.Geometry, opts SolveOptions, nextSweep int, nextT, energy float64, track bool) (*SolverState, error) {
	st, err := captureState(p, lab, samplers, opts, nextSweep, nextT, energy, track)
	if err != nil {
		return nil, err
	}
	st.ShardRows, st.ShardCols = geom.Rows, geom.Cols
	st.Halos = make([][]int, len(grids))
	for i, g := range grids {
		st.Halos[i] = g.HaloSnapshot()
	}
	return st, nil
}

// cancelShardCheckpoint mirrors cancelCheckpoint for the sharded solver.
func cancelShardCheckpoint(cause error, p *Problem, lab *img.Labels, samplers []core.LabelSampler,
	grids []*shard.TileGrid, geom shard.Geometry, opts SolveOptions, k int, ti tempIter, energy float64, track bool) error {
	if opts.OnCheckpoint == nil {
		return cause
	}
	st, err := captureShardState(p, lab, samplers, grids, geom, opts, k, ti.t, energy, track)
	if err != nil {
		return errors.Join(cause, fmt.Errorf("mrf: cancellation checkpoint: %w", err))
	}
	if err := opts.OnCheckpoint(st); err != nil {
		return errors.Join(cause, fmt.Errorf("mrf: cancellation checkpoint: %w", err))
	}
	return cause
}
