package mrf

import "rsu/internal/shard"

// TileSingles runs the sharded solver's build stage for p under geom on the
// given executor count and returns the plan's tiles with each tile's
// singleton table, for the external tests that check those tables against
// the applications' full-grid tables.
func TileSingles(p *Problem, geom shard.Geometry, executors int) ([]shard.Tile, [][]float64, error) {
	plan, err := shard.NewPlan(geom, p.W, p.H)
	if err != nil {
		return nil, nil, err
	}
	grids := shard.NewTileGrids(plan)
	tiles := make([]*shardTile, len(plan.Tiles))
	for i, t := range plan.Tiles {
		tiles[i] = newShardTile(t, grids[i], p.Labels, nil)
	}
	pool := newShardPool(plan, tiles, grids, false, resolveExecutors(executors, len(tiles)))
	defer pool.stop()
	if err := pool.build(p, p.BuildPairLUT().Pair); err != nil {
		return nil, nil, err
	}
	singles := make([][]float64, len(tiles))
	for i, ts := range tiles {
		singles[i] = ts.tab.Singles
	}
	return plan.Tiles, singles, nil
}
