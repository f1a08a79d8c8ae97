package core

import (
	"encoding/binary"
	"math"
	"testing"

	"rsu/internal/rng"
)

// refSampleFullVector is the full-vector kernel the cut-off-pruned path
// replaced, kept here as the reference: encode every label, take the minimum
// code, look up the LUT for every label, draw a TTF bin per positive-rate
// label in label order, then race the whole bin vector. It requires the
// configuration the pruned path serves (scaling mode, binned time, LUT
// converter, xoshiro source); an attached fault injector perturbs the whole
// bin vector before the race.
func refSampleFullVector(u *Unit, energies []float64, current int) int {
	m := len(energies)
	u.stats.Evaluations++
	u.stats.LabelEvals += m
	scale, emax, maxCode := u.escale, u.cfg.EnergyMax, u.emaxCode
	lt := u.lutTable
	ecodes := make([]int, m)
	min := maxCode
	for i, e := range energies {
		ec := encodeEnergy(e, scale, emax, maxCode)
		ecodes[i] = ec
		if ec < min {
			min = ec
		}
	}
	x := u.srcX
	bins := make([]int, m)
	for i, ec := range ecodes {
		c := lt[ec-min]
		if c == 0 {
			u.stats.Cutoffs++
			continue
		}
		s, g := u.surv[c], u.guide[c]
		var v float64
		for {
			v = float64(x.Uint64()>>11) / (1 << 53)
			if v > 0 {
				break
			}
		}
		b := int(g[int(v*(1<<guideBits))])
		for b < len(s) && v < s[b] {
			b++
		}
		if b == len(s) {
			u.stats.Truncated++
			b = 0
		}
		bins[i] = b
	}
	if u.fault != nil {
		u.fault.PerturbBins(bins, u.tmax)
	}
	best := -1
	bestBin := math.MaxInt
	tied := 1
	sawTie := false
	for i, b := range bins {
		if b == 0 {
			continue
		}
		switch {
		case b < bestBin:
			bestBin, best, tied = b, i, 1
		case b == bestBin:
			sawTie = true
			if u.cfg.Tie == TieRandom {
				tied++
				if rng.Intn(x, tied) == 0 {
					best = i
				}
			}
		}
	}
	if best < 0 {
		u.stats.NoFire++
		return current
	}
	if sawTie {
		u.stats.Ties++
	}
	return best
}

// testFault stands in for the device-fault models: on its own stream it
// fires some silent labels (cut-off ones included) at a random bin and
// silences some fired ones.
type testFault struct{ r *rng.Xoshiro256 }

func (f testFault) PerturbBins(bins []int, window int) {
	for i := range bins {
		switch f.r.Uint64() % 16 {
		case 0:
			bins[i] = 1 + int(f.r.Uint64()%uint64(window))
		case 1:
			bins[i] = 0
		}
	}
}

// prunedTwins builds two identical units on the pruned path's configuration:
// one drives the reference kernel, the other the production Sample. With
// faulty set each gets a testFault on identically seeded streams.
func prunedTwins(tb testing.TB, cfg Config, seed uint64, cc *ConverterCache, faulty bool) (ref, got *Unit) {
	tb.Helper()
	ref = MustUnit(cfg, rng.NewXoshiro256(seed), true)
	got = MustUnit(cfg, rng.NewXoshiro256(seed), true)
	if cc != nil {
		ref.SetConverterCache(cc)
		got.SetConverterCache(cc)
	}
	if faulty {
		ref.SetFaultInjector(testFault{rng.NewXoshiro256(seed + 1)})
		got.SetFaultInjector(testFault{rng.NewXoshiro256(seed + 1)})
	}
	return ref, got
}

// checkPrunedExact samples energies through both twins and fails on any
// difference in the label, the Stats counters or the RNG position.
func checkPrunedExact(tb testing.TB, ref, got *Unit, energies []float64, current int) {
	tb.Helper()
	want := refSampleFullVector(ref, energies, current)
	have, err := got.Sample(energies, current)
	if err != nil {
		tb.Fatalf("Sample(%v): %v", energies, err)
	}
	if have != want {
		tb.Fatalf("T=%v %v: pruned path drew %d, full-vector reference %d", got.T, energies, have, want)
	}
	if ref.Stats() != got.Stats() {
		tb.Fatalf("T=%v %v: stats diverge: pruned %+v reference %+v", got.T, energies, got.Stats(), ref.Stats())
	}
	if a, b := got.srcX.Uint64(), ref.srcX.Uint64(); a != b {
		tb.Fatalf("T=%v %v: RNG position diverges after the draw", got.T, energies)
	}
}

// prunedConfigs are the design points the pruned path serves: the paper's
// new RSU-G with both tie policies, a wider cut-off design, a scaled design
// without cut-off (its LUT has no zero tail) and a narrower energy range.
func prunedConfigs() []Config {
	firstWins := NewRSUG()
	firstWins.Tie = TieFirstWins
	hiRes := Config{Name: "hi-res", EnergyBits: 8, EnergyMax: 255,
		LambdaBits: 6, Mode: ConvertScaledCutoff, TimeBits: 8, Truncation: 0.1, Tie: TieRandom}
	noCut := Config{Name: "scaled", EnergyBits: 8, EnergyMax: 255,
		LambdaBits: 4, Mode: ConvertScaled, TimeBits: 5, Truncation: 0.5, Tie: TieRandom}
	narrow := Config{Name: "narrow", EnergyBits: 6, EnergyMax: 40,
		LambdaBits: 3, Mode: ConvertScaledCutoffPow2, TimeBits: 4, Truncation: 0.3, Tie: TieFirstWins}
	return []Config{NewRSUG(), firstWins, hiRes, noCut, narrow}
}

// scheduleTemperatures spans the default annealing schedule (T0 32, alpha
// 0.9885, 500 sweeps) plus a temperature high enough that nothing is cut off.
func scheduleTemperatures() []float64 {
	ts := []float64{1e6}
	for k := 0; k < 500; k += 25 {
		ts = append(ts, 32*math.Pow(0.9885, float64(k)))
	}
	return append(ts, 32*math.Pow(0.9885, 499))
}

// adversarialVectors returns hostile energy vectors for cfg at temperature
// T: NaNs, infinities, negatives, values past EnergyMax, energies one ulp
// either side of every cut-off threshold and rounding boundary, vectors with
// everything but the minimum cut off, and near-ties.
func adversarialVectors(cfg Config, T float64) [][]float64 {
	u := MustUnit(cfg, rng.NewXoshiro256(1), true)
	MustSetTemperature(u, T)
	scale, maxCode, cut := u.escale, u.emaxCode, u.lutCut
	nan, inf := math.NaN(), math.Inf(1)
	emax := cfg.EnergyMax
	vs := [][]float64{
		{nan, 10, 200, 3},
		{nan},
		{5, 100, nan, 2, 250},
		{40, nan, nan, 40},
		{inf, 3, -inf, 7},
		{-inf, inf},
		{inf, inf, inf},
		{-5, -1, 0, 2, 300},
		{emax, emax * 2, emax + 1, emax - 1e-9, 1e300},
		{0, emax, emax, emax, emax, emax, emax},
		{-0.0, 0, math.SmallestNonzeroFloat64, 1e-300},
		{3, 3, 3, 3, 3, 3, 3, 3},
	}
	ulps := func(v float64) []float64 {
		return []float64{math.Nextafter(v, -inf), v, math.Nextafter(v, inf)}
	}
	for _, base := range []int{0, 1, 7, maxCode / 2, maxCode - cut} {
		if base < 0 {
			continue
		}
		for k := base; k <= maxCode; k++ {
			// e*scale at K-1ulp, K, K+1ulp of the threshold K = base+cut and
			// at the RoundPos boundaries K±0.5, with the minimum pinned at
			// code base.
			vec := []float64{float64(base) / scale}
			for _, v := range [...]float64{float64(k), float64(k) - 0.5, float64(k) + 0.5} {
				for _, e := range ulps(v / scale) {
					vec = append(vec, e)
				}
			}
			vs = append(vs, vec)
		}
	}
	return vs
}

// TestPrunedMatchesFullVector is the bit-exactness check of the cut-off
// pruned kernel against the full-vector reference: label, all six Stats
// counters and the RNG position must agree after every draw, for random and
// adversarial vectors, every tie policy, temperatures across the default
// schedule, converters built directly and through a ConverterCache, and
// with and without a fault injector.
func TestPrunedMatchesFullVector(t *testing.T) {
	var total Stats
	for _, cfg := range prunedConfigs() {
		for _, variant := range []struct{ cached, faulty bool }{{false, false}, {true, false}, {false, true}} {
			var cc *ConverterCache
			if variant.cached {
				cc = NewConverterCache(0)
			}
			ref, got := prunedTwins(t, cfg, 2024, cc, variant.faulty)
			gen := rng.NewXoshiro256(7)
			for _, T := range scheduleTemperatures() {
				MustSetTemperature(ref, T)
				MustSetTemperature(got, T)
				for _, vec := range adversarialVectors(cfg, T) {
					for rep := 0; rep < 4; rep++ {
						checkPrunedExact(t, ref, got, vec, rep%len(vec))
					}
				}
				for i := 0; i < 300; i++ {
					m := 1 + rng.Intn(gen, 64)
					// Mix wide vectors (cut-off heavy) with tight ones
					// (near-ties, nothing cut off).
					span := cfg.EnergyMax * 1.2
					if i%3 == 0 {
						span = 4
					}
					vec := make([]float64, m)
					for j := range vec {
						vec[j] = rng.Float64(gen)*span - 0.05*span
					}
					checkPrunedExact(t, ref, got, vec, i%m)
				}
			}
			s := got.Stats()
			total.Cutoffs += s.Cutoffs
			total.Truncated += s.Truncated
			total.NoFire += s.NoFire
			total.Ties += s.Ties
		}
	}
	if total.Cutoffs == 0 || total.Truncated == 0 || total.NoFire == 0 || total.Ties == 0 {
		t.Fatalf("inputs never reached some counter: %+v", total)
	}
}

// TestLUTCut pins the recorded cut-off to its definition on every design
// point and temperature the differential test uses.
func TestLUTCut(t *testing.T) {
	for _, cfg := range prunedConfigs() {
		for _, T := range scheduleTemperatures() {
			lut := NewLUTConverter(cfg, T)
			want := len(lut.table)
			for want > 0 && lut.table[want-1] == 0 {
				want--
			}
			if lut.cut != want {
				t.Fatalf("%s T=%v: cut %d, want %d", cfg.Name, T, lut.cut, want)
			}
			for d := lut.cut; d < len(lut.table); d++ {
				if lut.table[d] != 0 {
					t.Fatalf("%s T=%v: entry %d past the cut is %d", cfg.Name, T, d, lut.table[d])
				}
			}
		}
	}
}

// FuzzSampleCutoffExact feeds arbitrary energy bit patterns, temperatures
// and design points to the pruned kernel and the full-vector reference and
// requires identical labels, Stats and RNG positions.
func FuzzSampleCutoffExact(f *testing.F) {
	enc := func(es ...float64) []byte {
		b := make([]byte, 8*len(es))
		for i, e := range es {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(e))
		}
		return b
	}
	f.Add(uint64(1), 1.0, uint8(0), uint8(0), enc(0, 10, 200, 3))
	f.Add(uint64(2), 0.1, uint8(1), uint8(3), enc(math.NaN(), 10, 200, 3))
	f.Add(uint64(3), 32.0, uint8(2), uint8(1), enc(5, math.Inf(1), math.Inf(-1), -4, 300))
	f.Add(uint64(4), 1e6, uint8(3), uint8(2), enc(1, 2, 3, 4, 5, 6, 7, 8))
	f.Add(uint64(5), 0.5, uint8(4), uint8(0), enc(1, 1, 1, 200, 1))
	configs := prunedConfigs()
	f.Fuzz(func(t *testing.T, seed uint64, T float64, ci, current uint8, raw []byte) {
		if !validTemperature(T) || len(raw) < 8 {
			return
		}
		n := len(raw) / 8
		if n > 64 {
			n = 64
		}
		energies := make([]float64, n)
		for i := range energies {
			energies[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		cfg := configs[int(ci)%len(configs)]
		var cc *ConverterCache
		if ci&128 != 0 {
			cc = NewConverterCache(0)
		}
		ref, got := prunedTwins(t, cfg, seed, cc, ci&64 != 0)
		MustSetTemperature(ref, T)
		MustSetTemperature(got, T)
		for rep := 0; rep < 3; rep++ {
			checkPrunedExact(t, ref, got, energies, int(current)%n)
		}
	})
}
