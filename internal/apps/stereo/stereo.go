// Package stereo implements the paper's stereo-vision workload: MCMC MRF
// disparity estimation on rectified image pairs (Sec. III-A), the
// application with the highest precision requirements and the paper's
// running example. Labels are scalar disparities; the smoothness term uses
// the absolute distance the new RSU-G adds support for.
package stereo

import (
	"context"
	"math"

	"rsu/internal/checkpoint"
	"rsu/internal/core"
	"rsu/internal/fault"
	"rsu/internal/img"
	"rsu/internal/metrics"
	"rsu/internal/mrf"
	"rsu/internal/shard"
	"rsu/internal/synth"
	"rsu/internal/uq"
)

// Params are the MCMC model parameters. The defaults come from a best-effort
// tuning pass (as the paper performs for its energy weights) and are shared
// by every configuration under comparison.
type Params struct {
	// DataWeight scales the absolute-difference matching cost.
	DataWeight float64
	// DataCap truncates the matching cost (robustness to occlusion).
	DataCap float64
	// SmoothWeight scales the absolute label distance between neighbors.
	SmoothWeight float64
	// SmoothCap truncates the label distance.
	SmoothCap float64
	// OcclusionCost is charged when a disparity would look outside the
	// right image (no possible correspondence).
	OcclusionCost float64
	// Schedule is the simulated-annealing schedule.
	Schedule mrf.Schedule
	// SamplerFactory, when non-nil, builds one sampler per RNG stream and
	// switches Solve to the checkerboard-parallel solver (the sampler
	// argument is then ignored). See core.StreamFactory.
	SamplerFactory func(stream int) core.LabelSampler
	// Workers selects the parallel solver's worker count when
	// SamplerFactory is set: 0 = GOMAXPROCS, 1 = exact serial behavior.
	Workers int
	// Shards, when non-zero, splits the grid into Rows x Cols tiles and runs
	// the domain-decomposed sharded solver (requires SamplerFactory; one RNG
	// stream per tile — see mrf.SolveOptions.Shards and DESIGN.md §15).
	Shards shard.Geometry
	// Ctx, when non-nil, bounds the solve: cancellation or deadline expiry
	// aborts between sweeps with the context's error. nil means no bound.
	Ctx context.Context
	// OnSweep, when non-nil, receives every sweep's labeling and SolveStats
	// record (see mrf.SolveOptions.OnSweep for the retention contract).
	OnSweep func(iter int, lab *img.Labels, st mrf.SolveStats)
	// PairLUT, when non-nil, supplies a prebuilt pairwise smoothness LUT
	// shared across solves at the same design point (it must match the
	// problem's label count and smoothness model — see mrf.BuildTablesShared).
	// The serving layer's artifact cache populates this.
	PairLUT *mrf.PairLUT
	// UQ, when non-nil, enables posterior sample collection: per-pixel label
	// histograms accumulate after the configured burn-in and the Result
	// carries the marginal / confidence estimates. Collection never perturbs
	// the solve (see mrf.Collector).
	UQ *uq.Options
	// Faults, when non-nil, injects the device-fault model into the
	// hardware samplers (see fault.Config). The Result then carries a
	// fault.Report; when UQ is also enabled, a confidence collapse below
	// fault.DegradedConfidence marks the run Degraded. nil — or all-zero
	// rates — leaves the solve byte-identical to the ideal device.
	Faults *fault.Config
	// Checkpoint, when non-nil, wires snapshot persistence into the solve:
	// periodic (and on-cancel) state capture plus resume from an existing
	// snapshot, with the bit-exact guarantee documented in package
	// checkpoint. The plan's snapshot is removed after a successful solve.
	Checkpoint *checkpoint.Plan
}

// ctx resolves the solve context.
func (p Params) ctx() context.Context {
	if p.Ctx != nil {
		return p.Ctx
	}
	return context.Background()
}

// DefaultParams returns the tuned parameter set used across the experiments.
// Energies stay within the 8-bit range [0, 255] the RSU-G quantizes to.
func DefaultParams() Params {
	return Params{
		DataWeight:    1.0,
		DataCap:       60,
		SmoothWeight:  8,
		SmoothCap:     6,
		OcclusionCost: 60,
		Schedule:      mrf.Schedule{T0: 32, Alpha: 0.9885, Iterations: 500},
	}
}

// BuildProblem constructs the MRF for a stereo pair. The singleton is the
// truncated absolute intensity difference between the left pixel and its
// disparity-shifted right pixel, aggregated over a 3x1 horizontal window to
// stabilize matching. Window taps past a row end take the edge pixel
// (img.Gray.AtClamped's rule); the right view must have at least the left
// view's height, as every synthetic pair does.
func BuildProblem(pair *synth.StereoPair, p Params) *mrf.Problem {
	// The singleton runs once per (pixel, disparity) — tens of millions of
	// calls on a large grid — so it reads the pixel slices and parameters
	// from locals, and only a window that reaches past a row end pays for
	// clamping (y always lies in the grid). The three terms are summed left
	// to right, so every entry is bit-identical to evaluating the window
	// with img.Gray.AtClamped on each tap.
	lpix, lw := pair.Left.Pix, pair.Left.W
	rpix, rw := pair.Right.Pix, pair.Right.W
	occlusion, dataCap, dataWeight := p.OcclusionCost, p.DataCap, p.DataWeight
	return &mrf.Problem{
		W: lw, H: pair.Left.H, Labels: pair.Labels,
		Singleton: func(x, y, d int) float64 {
			xr := x - d
			if xr < 0 {
				return occlusion
			}
			lrow, rrow := y*lw, y*rw
			if x > 0 && x+1 < lw && xr > 0 && xr+1 < rw {
				l := lpix[lrow+x-1 : lrow+x+2]
				r := rpix[rrow+xr-1 : rrow+xr+2]
				return dataWeight * matchCost(dataCap, l[0], r[0], l[1], r[1], l[2], r[2]) / 3
			}
			return dataWeight * matchCost(dataCap,
				lpix[lrow+clampX(x-1, lw)], rpix[rrow+clampX(xr-1, rw)],
				lpix[lrow+x], rpix[rrow+clampX(xr, rw)],
				lpix[lrow+clampX(x+1, lw)], rpix[rrow+clampX(xr+1, rw)]) / 3
		},
		PairWeight:   p.SmoothWeight,
		Dist:         mrf.Absolute,
		TruncateDist: p.SmoothCap,
	}
}

// matchCost is the window's matching cost: the absolute differences of the
// three (left, right) taps, each truncated at dataCap, summed left to right.
func matchCost(dataCap, l0, r0, l1, r1, l2, r2 float64) float64 {
	return truncAbs(l0-r0, dataCap) + truncAbs(l1-r1, dataCap) + truncAbs(l2-r2, dataCap)
}

// truncAbs returns min(|v|, limit).
func truncAbs(v, limit float64) float64 {
	if v = math.Abs(v); v > limit {
		return limit
	}
	return v
}

// clampX clamps a column index into [0, w).
func clampX(x, w int) int {
	if x < 0 {
		return 0
	}
	if x >= w {
		return w - 1
	}
	return x
}

// Result is one solved stereo instance with its quality scores.
type Result struct {
	Pair      *synth.StereoPair
	Disparity *img.Labels
	BP        float64 // bad-pixel percentage, threshold 1
	RMS       float64 // RMS disparity error
	// Subregions breaks BP down by occluded / textureless regions, the
	// more detailed Middlebury evaluation the paper references.
	Subregions metrics.SubregionBP
	// UQ holds the posterior marginal estimates when Params.UQ enabled
	// collection; nil otherwise.
	UQ *uq.Result
	// Faults summarizes the injected device faults (and the UQ-based
	// degradation verdict) when Params.Faults requested injection.
	Faults *fault.Report
}

// texturelessVarianceCutoff is the 3x3 local-variance threshold below which
// a pixel counts as textureless for the subregion breakdown.
const texturelessVarianceCutoff = 40

// Solve runs the MRF solver on the pair with the given label sampler and
// scores the result against ground truth using the paper's metrics.
func Solve(pair *synth.StereoPair, sampler core.LabelSampler, p Params) (*Result, error) {
	prob := BuildProblem(pair, p)
	opts := mrf.SolveOptions{Workers: p.Workers, Shards: p.Shards, OnSweep: p.OnSweep}
	if p.PairLUT != nil {
		tab, err := prob.BuildTablesShared(p.PairLUT)
		if err != nil {
			return nil, err
		}
		opts.Tables = tab
	}
	var acc *uq.Accumulator
	if p.UQ != nil {
		var err error
		acc, err = uq.NewForRun(*p.UQ, prob.W, prob.H, prob.Labels, p.Schedule.Iterations)
		if err != nil {
			return nil, err
		}
		opts.Collector = acc
	}
	inj, err := fault.New(p.Faults)
	if err != nil {
		return nil, err
	}
	opts.Faults = inj
	if p.Checkpoint != nil {
		if err := p.Checkpoint.Attach(&opts, p.Schedule); err != nil {
			return nil, err
		}
	}
	lab, err := mrf.SolveWithCtx(p.ctx(), prob, sampler, p.SamplerFactory, p.Schedule, opts)
	if err != nil {
		return nil, err
	}
	if p.Checkpoint != nil {
		if err := p.Checkpoint.Finish(); err != nil {
			return nil, err
		}
	}
	res := &Result{
		Pair:       pair,
		Disparity:  lab,
		BP:         metrics.BadPixelPct(lab, pair.GT, 1, pair.Mask),
		RMS:        metrics.RMSError(lab, pair.GT, pair.Mask),
		Subregions: metrics.EvaluateSubregions(lab, pair.GT, pair.Mask, pair.Left, 1, texturelessVarianceCutoff),
	}
	if acc != nil {
		if res.UQ, err = acc.Estimate(); err != nil {
			return nil, err
		}
	}
	if inj != nil {
		if res.UQ != nil {
			res.Faults = inj.Report(res.UQ.MeanConfidence(), true)
		} else {
			res.Faults = inj.Report(0, false)
		}
	}
	return res, nil
}
