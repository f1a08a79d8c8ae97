package mrf

import (
	"math"
	"testing"
	"testing/quick"

	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/rng"
)

func TestDistanceFunctions(t *testing.T) {
	cases := []struct {
		kind DistanceKind
		a, b int
		want float64
	}{
		{Squared, 3, 7, 16}, {Squared, 5, 5, 0},
		{Absolute, 3, 7, 4}, {Absolute, 7, 3, 4},
		{Binary, 2, 2, 0}, {Binary, 2, 3, 1},
	}
	for _, c := range cases {
		if got := Distance(c.kind, c.a, c.b); got != c.want {
			t.Errorf("Distance(%v,%d,%d) = %v, want %v", c.kind, c.a, c.b, got, c.want)
		}
	}
}

func TestDistanceProperties(t *testing.T) {
	err := quick.Check(func(a8, b8 uint8) bool {
		a, b := int(a8%64), int(b8%64)
		for _, k := range []DistanceKind{Squared, Absolute, Binary} {
			d := Distance(k, a, b)
			if d < 0 || d != Distance(k, b, a) {
				return false
			}
			if a == b && d != 0 {
				return false
			}
			if a != b && d == 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 1000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistanceKindString(t *testing.T) {
	if Squared.String() != "squared" || Absolute.String() != "absolute" || Binary.String() != "binary" {
		t.Fatal("DistanceKind.String wrong")
	}
}

// twoRegionProblem builds a noisy binary-segmentation style problem whose
// optimal labeling splits the grid into a left 0-region and right 1-region.
func twoRegionProblem(w, h int) *Problem {
	return &Problem{
		W: w, H: h, Labels: 2,
		Singleton: func(x, y, l int) float64 {
			inRight := x >= w/2
			if (l == 1) == inRight {
				return 0
			}
			return 10
		},
		PairWeight: 2,
		Dist:       Binary,
	}
}

func TestSolveRecoversTwoRegions(t *testing.T) {
	p := twoRegionProblem(12, 8)
	s := core.NewSoftwareSampler(rng.NewXoshiro256(1))
	lab, err := Solve(p, s, Schedule{T0: 4, Alpha: 0.85, Iterations: 40}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wrong := 0
	for y := 0; y < p.H; y++ {
		for x := 0; x < p.W; x++ {
			want := 0
			if x >= p.W/2 {
				want = 1
			}
			if lab.At(x, y) != want {
				wrong++
			}
		}
	}
	if wrong > 2 {
		t.Fatalf("%d/%d pixels mislabeled after annealing", wrong, p.W*p.H)
	}
}

func TestSolveWithRSUGUnit(t *testing.T) {
	p := twoRegionProblem(12, 8)
	// Scale energies into the 8-bit range via weights already in range.
	u := core.MustUnit(core.NewRSUG(), rng.NewXoshiro256(2), true)
	lab, err := Solve(p, u, Schedule{T0: 4, Alpha: 0.85, Iterations: 40}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wrong := 0
	for y := 0; y < p.H; y++ {
		for x := 0; x < p.W; x++ {
			want := 0
			if x >= p.W/2 {
				want = 1
			}
			if lab.At(x, y) != want {
				wrong++
			}
		}
	}
	if wrong > 3 {
		t.Fatalf("RSU-G solve mislabeled %d/%d pixels", wrong, p.W*p.H)
	}
}

func TestAnnealingReducesEnergy(t *testing.T) {
	p := twoRegionProblem(16, 10)
	s := core.NewSoftwareSampler(rng.NewXoshiro256(3))
	var first, last float64
	_, err := Solve(p, s, Schedule{T0: 5, Alpha: 0.8, Iterations: 30}, SolveOptions{
		OnSweep: func(iter int, lab *img.Labels, st SolveStats) {
			e := p.TotalEnergy(lab)
			if iter == 0 {
				first = e
			}
			last = e
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if last >= first {
		t.Fatalf("energy did not decrease: first %v, last %v", first, last)
	}
}

func TestScheduleTemperature(t *testing.T) {
	s := Schedule{T0: 8, Alpha: 0.5, Iterations: 10}
	if s.Temperature(0) != 8 || s.Temperature(1) != 4 || s.Temperature(3) != 1 {
		t.Fatal("geometric schedule wrong")
	}
	long := Schedule{T0: 1, Alpha: 0.1, Iterations: 100}
	if got := long.Temperature(50); got != 1e-4 {
		t.Fatalf("temperature floor = %v, want 1e-4", got)
	}
}

func TestScheduleValidate(t *testing.T) {
	bad := []Schedule{
		{T0: 0, Alpha: 0.9, Iterations: 1},
		{T0: 1, Alpha: 0, Iterations: 1},
		{T0: 1, Alpha: 1.1, Iterations: 1},
		{T0: 1, Alpha: 0.9, Iterations: 0},
		{T0: math.NaN(), Alpha: 0.9, Iterations: 1},
		{T0: math.Inf(1), Alpha: 0.9, Iterations: 1},
		{T0: 1, Alpha: math.NaN(), Iterations: 1},
		{T0: 1, Alpha: 0.9, Iterations: 1, TFloor: math.NaN()},
		{T0: 1, Alpha: 0.9, Iterations: 1, TFloor: math.Inf(1)},
		{T0: 1, Alpha: 0.9, Iterations: 1, TFloor: -1},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("schedule %d unexpectedly valid: %+v", i, s)
		}
	}
	if (Schedule{T0: 1, Alpha: 1, Iterations: 5}).Validate() != nil {
		t.Error("fixed-temperature schedule must be valid")
	}
}

func TestProblemValidate(t *testing.T) {
	ok := twoRegionProblem(4, 4)
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Problem{
		{W: 0, H: 4, Labels: 2, Singleton: ok.Singleton},
		{W: 4, H: 4, Labels: 1, Singleton: ok.Singleton},
		{W: 4, H: 4, Labels: 2},
		{W: 4, H: 4, Labels: 2, Singleton: ok.Singleton, PairWeight: -1},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("problem %d unexpectedly valid", i)
		}
	}
}

func TestSolveErrors(t *testing.T) {
	p := twoRegionProblem(4, 4)
	s := core.NewSoftwareSampler(rng.NewSplitMix64(4))
	good := Schedule{T0: 1, Alpha: 0.9, Iterations: 2}
	if _, err := Solve(p, nil, good, SolveOptions{}); err == nil {
		t.Error("nil sampler must error")
	}
	if _, err := Solve(p, s, Schedule{}, SolveOptions{}); err == nil {
		t.Error("bad schedule must error")
	}
	if _, err := Solve(p, s, good, SolveOptions{Init: img.NewLabels(3, 3)}); err == nil {
		t.Error("mismatched init must error")
	}
	badInit := img.NewLabels(4, 4).Fill(9)
	if _, err := Solve(p, s, good, SolveOptions{Init: badInit}); err == nil {
		t.Error("out-of-range init labels must error")
	}
}

func TestSolveDoesNotMutateInit(t *testing.T) {
	p := twoRegionProblem(6, 4)
	init := img.NewLabels(6, 4).Fill(1)
	s := core.NewSoftwareSampler(rng.NewXoshiro256(5))
	if _, err := Solve(p, s, Schedule{T0: 2, Alpha: 0.9, Iterations: 3}, SolveOptions{Init: init}); err != nil {
		t.Fatal(err)
	}
	for _, l := range init.L {
		if l != 1 {
			t.Fatal("Solve mutated the caller's init labeling")
		}
	}
}

func TestLabelEnergiesMatchesDefinition(t *testing.T) {
	p := &Problem{
		W: 3, H: 3, Labels: 3,
		Singleton:  func(x, y, l int) float64 { return float64(l * (x + y)) },
		PairWeight: 1.5,
		Dist:       Absolute,
	}
	lab := img.NewLabels(3, 3)
	lab.Set(0, 1, 2)
	lab.Set(2, 1, 1)
	lab.Set(1, 0, 2)
	lab.Set(1, 2, 0)
	singles := p.singletonTable(0, 0, p.W, p.H)
	dst := make([]float64, 3)
	p.LabelEnergies(dst, singles, lab, 1, 1)
	// Energy of label l at (1,1): singleton l*2 + 1.5*(|l-2|+|l-1|+|l-2|+|l-0|).
	for l := 0; l < 3; l++ {
		want := float64(l*2) + 1.5*(math.Abs(float64(l-2))+math.Abs(float64(l-1))+math.Abs(float64(l-2))+math.Abs(float64(l)))
		if math.Abs(dst[l]-want) > 1e-12 {
			t.Errorf("label %d energy = %v, want %v", l, dst[l], want)
		}
	}
}

func TestLabelEnergiesBorderPixels(t *testing.T) {
	p := twoRegionProblem(3, 3)
	singles := p.singletonTable(0, 0, p.W, p.H)
	lab := img.NewLabels(3, 3)
	dst := make([]float64, 2)
	// Corner pixel has only 2 neighbors; with all-zero labels, the energy of
	// label 1 is singleton + 2*PairWeight (binary distance 1 to both).
	p.LabelEnergies(dst, singles, lab, 0, 0)
	if want := 10 + 2*2.0; dst[1] != want {
		t.Fatalf("corner energy = %v, want %v", dst[1], want)
	}
}

func TestTruncatedDistance(t *testing.T) {
	p := &Problem{
		W: 2, H: 1, Labels: 10,
		Singleton:    func(x, y, l int) float64 { return 0 },
		PairWeight:   1,
		Dist:         Squared,
		TruncateDist: 9,
	}
	if got := p.pairDist(0, 9); got != 9 {
		t.Fatalf("truncated distance = %v, want 9", got)
	}
	if got := p.pairDist(0, 2); got != 4 {
		t.Fatalf("untruncated distance = %v, want 4", got)
	}
}

func TestTotalEnergyConsistent(t *testing.T) {
	p := twoRegionProblem(5, 4)
	perfect := img.NewLabels(5, 4)
	for y := 0; y < 4; y++ {
		for x := 0; x < 5; x++ {
			if x >= 2 { // W/2 = 2
				perfect.Set(x, y, 1)
			}
		}
	}
	flat := img.NewLabels(5, 4)
	if p.TotalEnergy(perfect) >= p.TotalEnergy(flat) {
		t.Fatal("ground-truth labeling should have lower total energy than all-zeros")
	}
}
