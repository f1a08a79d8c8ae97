package stereo

import (
	"math"
	"testing"

	"rsu/internal/core"
	"rsu/internal/mrf"
	"rsu/internal/rng"
	"rsu/internal/synth"
)

// fastParams shrinks the schedule so unit tests stay quick.
func fastParams() Params {
	p := DefaultParams()
	p.Schedule = mrf.Schedule{T0: 32, Alpha: 0.95, Iterations: 80}
	return p
}

func smallPair() *synth.StereoPair {
	return synth.Stereo("small", 32, 24, 16, 3, 5)
}

func TestBuildProblemEnergyRange(t *testing.T) {
	pair := smallPair()
	p := DefaultParams()
	prob := BuildProblem(pair, p)
	if err := prob.Validate(); err != nil {
		t.Fatal(err)
	}
	maxSingle := 0.0
	for y := 0; y < prob.H; y++ {
		for x := 0; x < prob.W; x++ {
			for l := 0; l < prob.Labels; l++ {
				e := prob.Singleton(x, y, l)
				if e < 0 {
					t.Fatalf("negative singleton at (%d,%d,%d)", x, y, l)
				}
				if e > maxSingle {
					maxSingle = e
				}
			}
		}
	}
	// Max total energy (singleton + 4 truncated doubletons) must stay
	// within the 8-bit quantization range the RSU-G uses.
	maxTotal := maxSingle + 4*p.SmoothWeight*p.SmoothCap
	if maxTotal > 255 {
		t.Fatalf("max energy %v exceeds 8-bit range", maxTotal)
	}
}

func TestOcclusionCostApplied(t *testing.T) {
	pair := smallPair()
	p := DefaultParams()
	prob := BuildProblem(pair, p)
	// Disparity larger than x looks outside the right image.
	if got := prob.Singleton(2, 5, 10); got != p.OcclusionCost {
		t.Fatalf("occluded singleton = %v, want %v", got, p.OcclusionCost)
	}
}

func TestSolveSoftwareBeatsRandom(t *testing.T) {
	pair := smallPair()
	res, err := Solve(pair, core.NewSoftwareSampler(rng.NewXoshiro256(1)), fastParams())
	if err != nil {
		t.Fatal(err)
	}
	// A random labeling over 16 labels has BP around 85-95%; the solver
	// must do far better even on the fast schedule.
	if res.BP > 50 {
		t.Fatalf("software BP = %v, want < 50", res.BP)
	}
	if res.Disparity.Max() >= pair.Labels {
		t.Fatal("disparity out of label range")
	}
}

func TestSolveNewRSUGTracksSoftware(t *testing.T) {
	pair := smallPair()
	p := fastParams()
	sw, err := Solve(pair, core.NewSoftwareSampler(rng.NewXoshiro256(2)), p)
	if err != nil {
		t.Fatal(err)
	}
	nu, err := Solve(pair, core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(3), true), p)
	if err != nil {
		t.Fatal(err)
	}
	if nu.BP > sw.BP+12 {
		t.Fatalf("new RSU-G BP %v too far above software %v", nu.BP, sw.BP)
	}
}

func TestSolvePrevRSUGDegrades(t *testing.T) {
	pair := smallPair()
	p := fastParams()
	sw, err := Solve(pair, core.NewSoftwareSampler(rng.NewXoshiro256(4)), p)
	if err != nil {
		t.Fatal(err)
	}
	pv, err := Solve(pair, core.MustUnit(core.PrevRSUG(), rng.NewXoshiro256(5), true), p)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline: the previous design mislabels most pixels.
	if pv.BP < sw.BP+20 {
		t.Fatalf("previous RSU-G BP %v unexpectedly close to software %v", pv.BP, sw.BP)
	}
}

func TestDefaultParamsMatchPaperSchedule(t *testing.T) {
	p := DefaultParams()
	if p.Schedule.Iterations != 500 {
		t.Errorf("default iterations = %d, want 500 (paper's poster setting)", p.Schedule.Iterations)
	}
	if err := p.Schedule.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSubregionBreakdownConsistent(t *testing.T) {
	pair := smallPair()
	res, err := Solve(pair, core.NewSoftwareSampler(rng.NewXoshiro256(7)), fastParams())
	if err != nil {
		t.Fatal(err)
	}
	s := res.Subregions
	if s.All != res.BP {
		t.Fatalf("subregion All %.2f must equal BP %.2f", s.All, res.BP)
	}
	if s.Occluded != 100 {
		t.Fatalf("occluded subregion BP %.1f, must be 100 by the conservative accounting", s.Occluded)
	}
	if s.NonOccluded >= s.All {
		t.Fatalf("non-occluded BP %.1f should be below overall %.1f", s.NonOccluded, s.All)
	}
	if s.OccludedFrac <= 0 || s.OccludedFrac >= 0.5 {
		t.Fatalf("occluded fraction %v implausible", s.OccludedFrac)
	}
}

// atClampedSingleton is the data term written with img.Gray.AtClamped on
// every tap — the reference BuildProblem's closure must reproduce bit for
// bit.
func atClampedSingleton(pair *synth.StereoPair, p Params, x, y, d int) float64 {
	if x-d < 0 {
		return p.OcclusionCost
	}
	var cost float64
	for dx := -1; dx <= 1; dx++ {
		diff := math.Abs(pair.Left.AtClamped(x+dx, y) - pair.Right.AtClamped(x+dx-d, y))
		if diff > p.DataCap {
			diff = p.DataCap
		}
		cost += diff
	}
	return p.DataWeight * cost / 3
}

// TestSingletonMatchesAtClampedFormula checks the closure on every (x, y, d)
// of a small pair — both row ends, the occluded d > x, and disparities whose
// window reaches past column 0 of the right view — under the default
// parameters and under a low cap and odd weight that make truncation common.
func TestSingletonMatchesAtClampedFormula(t *testing.T) {
	pair := smallPair()
	low := DefaultParams()
	low.DataCap, low.DataWeight, low.OcclusionCost = 7.5, 1.3, 41
	for _, params := range []Params{DefaultParams(), low} {
		prob := BuildProblem(pair, params)
		for y := 0; y < prob.H; y++ {
			for x := 0; x < prob.W; x++ {
				for d := 0; d < prob.Labels; d++ {
					got, want := prob.Singleton(x, y, d), atClampedSingleton(pair, params, x, y, d)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("cap %v: (%d,%d) d=%d: %v, AtClamped formula %v", params.DataCap, x, y, d, got, want)
					}
				}
			}
		}
	}
}
