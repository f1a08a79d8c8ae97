package mrf_test

import (
	"fmt"
	"math"
	"testing"

	"rsu/internal/apps/flow"
	"rsu/internal/apps/ising"
	"rsu/internal/apps/segment"
	"rsu/internal/apps/stereo"
	"rsu/internal/mrf"
	"rsu/internal/shard"
	"rsu/internal/synth"
)

// appProblems returns one small problem per application data term: stereo,
// flow, a flow pyramid level's residual problem over a non-zero base field,
// segmentation under both region models, and the Ising field term.
func appProblems() map[string]*mrf.Problem {
	fpair := synth.Venus(1)
	base := flow.NewField(fpair.Frame0.W, fpair.Frame0.H)
	for i := range base.U {
		base.U[i], base.V[i] = i%3-1, (i/fpair.Frame0.W)%3-1
	}
	scene := synth.BSDLike(3, 4, 1)
	sp := segment.DefaultParams()
	return map[string]*mrf.Problem{
		"stereo":        stereo.BuildProblem(synth.Teddy(1), stereo.DefaultParams()),
		"flow":          flow.BuildProblem(fpair, flow.DefaultParams()),
		"flow-residual": flow.BuildResidualProblem(fpair.Frame0, fpair.Frame1, base, 2, flow.DefaultParams()),
		"segment-means": segment.BuildProblem(scene.Image, segment.FitMeans(scene.Image, 4, 10), sp),
		"segment-gauss": segment.BuildGaussianProblem(scene.Image, segment.FitGaussians(scene.Image, 4, 10), sp),
		"ising-field":   ising.Model{N: 24, J: 16, H: 3}.Problem(),
	}
}

// TestTileSinglesMatchFullTable pins the tile-local table build: every
// tile's singleton table, built in the sharded solver's parallel stage, must
// equal bit for bit the matching rectangle of the full-grid BuildTables
// table, for every application, geometry and executor count. Run under
// -race it also checks the concurrent Singleton calls.
func TestTileSinglesMatchFullTable(t *testing.T) {
	geoms := []shard.Geometry{{Rows: 2, Cols: 1}, {Rows: 2, Cols: 2}, {Rows: 2, Cols: 3}, {Rows: 4, Cols: 2}}
	for name, p := range appProblems() {
		full := p.BuildTables().Singles
		L := p.Labels
		for _, geom := range geoms {
			for _, executors := range []int{1, 2, 6} {
				t.Run(fmt.Sprintf("%s/%s/exec%d", name, geom, executors), func(t *testing.T) {
					tiles, singles, err := mrf.TileSingles(p, geom, executors)
					if err != nil {
						t.Fatal(err)
					}
					for i, tile := range tiles {
						ew := tile.EW()
						if want := ew * tile.EH() * L; len(singles[i]) != want {
							t.Fatalf("tile %d: %d entries, want %d", i, len(singles[i]), want)
						}
						for y := tile.EY0; y < tile.EY1; y++ {
							for x := tile.EX0; x < tile.EX1; x++ {
								for l := 0; l < L; l++ {
									got := singles[i][((y-tile.EY0)*ew+x-tile.EX0)*L+l]
									want := full[(y*p.W+x)*L+l]
									if math.Float64bits(got) != math.Float64bits(want) {
										t.Fatalf("tile %d pixel (%d,%d) label %d: %v, full table %v", i, x, y, l, got, want)
									}
								}
							}
						}
					}
				})
			}
		}
	}
}
