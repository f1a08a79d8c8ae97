// Package mrf implements the first-order grid Markov Random Field model and
// the MCMC Gibbs/simulated-annealing solver the paper's three computer
// vision applications are built on (Fig. 1): iterate pixel by pixel, compute
// the energy of every candidate label from the data term (singleton) and the
// 4-neighborhood smoothness term (doubleton), and draw the new label from a
// LabelSampler — either the software Boltzmann baseline or the RSU-G
// functional simulator.
package mrf

import (
	"fmt"
	"math"

	"rsu/internal/img"
)

// DistanceKind selects the doubleton (pairwise) distance function. The
// previous RSU-G supported only squared distance; the new design adds
// binary and absolute distance (Sec. IV-B-1), covering the paper's three
// applications.
type DistanceKind int

const (
	// Squared distance (l1-l2)^2 — motion estimation.
	Squared DistanceKind = iota
	// Absolute distance |l1-l2| — stereo vision.
	Absolute
	// Binary (Potts) distance: 0 if equal, 1 otherwise — segmentation.
	Binary
)

func (d DistanceKind) String() string {
	switch d {
	case Squared:
		return "squared"
	case Absolute:
		return "absolute"
	case Binary:
		return "binary"
	default:
		return fmt.Sprintf("DistanceKind(%d)", int(d))
	}
}

// Distance evaluates the selected label distance.
func Distance(kind DistanceKind, a, b int) float64 {
	switch kind {
	case Squared:
		d := float64(a - b)
		return d * d
	case Absolute:
		return math.Abs(float64(a - b))
	case Binary:
		if a == b {
			return 0
		}
		return 1
	default:
		panic("mrf: unknown distance kind")
	}
}

// Problem is a first-order grid MRF instance.
type Problem struct {
	W, H   int
	Labels int
	// Singleton returns the data-term energy of label l at pixel (x, y).
	// It is evaluated once per (pixel, label) and cached by the solver.
	// It must be pure (the same arguments always give the same bits) and
	// safe for concurrent calls: the sharded solver evaluates each tile's
	// rectangle on its own goroutine.
	Singleton func(x, y, l int) float64
	// PairWeight scales the doubleton term.
	PairWeight float64
	// Dist selects the doubleton distance function.
	Dist DistanceKind
	// PairDist, when non-nil, overrides Dist with a custom label distance.
	// Motion estimation uses this to apply the squared distance to the 2-D
	// vectors its labels encode, which is how the RSU-G energy stage treats
	// motion labels (Sec. III-D-2).
	PairDist func(a, b int) float64
	// TruncateDist, when positive, caps the doubleton distance —
	// the standard truncated linear/quadratic robustness trick. 0 = no cap.
	TruncateDist float64
}

// Validate reports structural errors in the problem definition.
func (p *Problem) Validate() error {
	switch {
	case p.W <= 0 || p.H <= 0:
		return fmt.Errorf("mrf: invalid grid %dx%d", p.W, p.H)
	case p.Labels < 2:
		return fmt.Errorf("mrf: need at least 2 labels, got %d", p.Labels)
	case p.Singleton == nil:
		return fmt.Errorf("mrf: nil Singleton function")
	case p.PairWeight < 0:
		return fmt.Errorf("mrf: negative PairWeight")
	}
	return nil
}

// pairDist applies the configured distance with optional truncation.
func (p *Problem) pairDist(a, b int) float64 {
	var d float64
	if p.PairDist != nil {
		d = p.PairDist(a, b)
	} else {
		d = Distance(p.Dist, a, b)
	}
	if p.TruncateDist > 0 && d > p.TruncateDist {
		d = p.TruncateDist
	}
	return d
}

// singletonTable evaluates the data term over the rectangle [x0,x1)×[y0,y1)
// of the grid: index ((y-y0)*(x1-x0) + (x-x0))*Labels + l. The full-grid
// table is the rectangle [0,W)×[0,H); the sharded solver builds one per
// tile's extended rectangle, so every entry comes from the same Singleton
// call whichever table it lands in.
func (p *Problem) singletonTable(x0, y0, x1, y1 int) []float64 {
	tab := make([]float64, (x1-x0)*(y1-y0)*p.Labels)
	i := 0
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			for l := 0; l < p.Labels; l++ {
				tab[i] = p.Singleton(x, y, l)
				i++
			}
		}
	}
	return tab
}

// Tables caches the per-Solve lookup structures of a Problem: the singleton
// (data-term) table and a Labels×Labels pairwise LUT with PairWeight and
// TruncateDist folded in. With the tables built, the energy stage is pure
// table lookups — no per-call distance dispatch, math.Abs, or truncation
// branches in the Gibbs inner loop. Solve builds them once per run;
// multi-restart callers can build them once and reuse them across solves
// via SolveOptions.Tables. Tables are read-only after construction and
// safe to share across the parallel solver's workers.
type Tables struct {
	p *Problem
	// Singles is the cached data term: index (y*W+x)*Labels + l.
	Singles []float64
	// Pair holds the smoothness energies: Pair[nb*Labels+l] is the doubleton
	// energy of label l against neighbor label nb (weight and truncation
	// applied), laid out so one neighbor's row is contiguous.
	Pair []float64
}

// PairLUT is the standalone pairwise (doubleton) lookup table of a Problem:
// Pair[nb*Labels+l] is the smoothness energy of label l against neighbor
// label nb with PairWeight and TruncateDist folded in — the Labels² half of
// Tables that depends only on the smoothness model, not on the input image.
// It is read-only after construction, so a serving layer can build it once
// per (distance, weight, truncation, label-count) design point and share it
// across every concurrent job at that point via BuildTablesShared.
type PairLUT struct {
	Labels int
	Pair   []float64
}

// BuildPairLUT precomputes just the pairwise LUT of p, in the same entry
// order as BuildTables (so shared and per-solve tables are bit-identical).
func (p *Problem) BuildPairLUT() *PairLUT {
	lut := &PairLUT{Labels: p.Labels, Pair: make([]float64, p.Labels*p.Labels)}
	i := 0
	for nb := 0; nb < p.Labels; nb++ {
		for l := 0; l < p.Labels; l++ {
			lut.Pair[i] = p.PairWeight * p.pairDist(l, nb)
			i++
		}
	}
	return lut
}

// BuildTables precomputes the lookup tables for p.
func (p *Problem) BuildTables() *Tables {
	return &Tables{p: p, Singles: p.singletonTable(0, 0, p.W, p.H), Pair: p.BuildPairLUT().Pair}
}

// BuildTablesShared builds the tables for p reusing a prebuilt pairwise LUT,
// recomputing only the input-dependent singleton table. The LUT must have
// been built from a Problem with the same smoothness model (same Labels,
// PairWeight, distance function and truncation) — the label count is checked
// here, the semantic match is the caller's contract (the serving cache keys
// LUTs by the full smoothness model for exactly this reason).
func (p *Problem) BuildTablesShared(lut *PairLUT) (*Tables, error) {
	if lut == nil {
		return p.BuildTables(), nil
	}
	if lut.Labels != p.Labels || len(lut.Pair) != p.Labels*p.Labels {
		return nil, fmt.Errorf("mrf: shared pair LUT built for %d labels, problem has %d", lut.Labels, p.Labels)
	}
	return &Tables{p: p, Singles: p.singletonTable(0, 0, p.W, p.H), Pair: lut.Pair}, nil
}

// pairRow returns the contiguous row of pairwise energies against neighbor
// label nb: row[l] = PairWeight * dist(l, nb).
func (t *Tables) pairRow(nb int) []float64 {
	L := t.p.Labels
	return t.Pair[nb*L : nb*L+L]
}

// addRow accumulates one neighbor's pairwise row into the energy vector.
func addRow(dst, row []float64) {
	_ = row[len(dst)-1]
	for i := range dst {
		dst[i] += row[i]
	}
}

// LabelEnergies fills dst (length Labels) with the energy of every candidate
// label at pixel (x, y) under the current labeling, using the precomputed
// tables — the fast path of Problem.LabelEnergies.
func (t *Tables) LabelEnergies(dst []float64, lab *img.Labels, x, y int) {
	p := t.p
	base := (y*p.W + x) * p.Labels
	copy(dst, t.Singles[base:base+p.Labels])
	if x > 0 {
		addRow(dst, t.pairRow(lab.At(x-1, y)))
	}
	if x+1 < p.W {
		addRow(dst, t.pairRow(lab.At(x+1, y)))
	}
	if y > 0 {
		addRow(dst, t.pairRow(lab.At(x, y-1)))
	}
	if y+1 < p.H {
		addRow(dst, t.pairRow(lab.At(x, y+1)))
	}
}

// LabelEnergiesSeg fills dst with the candidate-label energies of the n
// pixels (x0, y), (x0+step, y), ..., (x0+(n-1)*step, y) as a dense n×Labels
// block: slot i (dst[i*Labels:(i+1)*Labels]) holds pixel x0+i*step. The
// fused sweep engine gathers one whole row (step 1, serial solver) or one
// same-color row segment (step 2, checkerboard solver) per call, hoisting
// the row bases and boundary tests that LabelEnergies re-derives per pixel.
// Each slot accumulates in exactly LabelEnergies' term order — singles,
// left, right, up, down — so the block is bit-identical to per-pixel calls.
func (t *Tables) LabelEnergiesSeg(dst []float64, lab *img.Labels, y, x0, step, n int) {
	p := t.p
	L := p.Labels
	row := y * p.W
	labs := lab.L
	if y > 0 && y+1 < p.H {
		// Interior row: every pixel off the vertical edges has all four
		// neighbors, so the five accumulation passes fuse into one —
		// d[l] = s[l]+left[l]+right[l]+up[l]+down[l] evaluates left to
		// right, the exact order (and therefore the exact bits) of the
		// per-direction addRow sequence, with one store per slot instead
		// of one copy plus four read-modify-write passes.
		up, down := row-p.W, row+p.W
		for i, x := 0, x0; i < n; i, x = i+1, x+step {
			d := dst[i*L : i*L+L]
			if x == 0 || x+1 == p.W {
				t.LabelEnergies(d, lab, x, y)
				continue
			}
			base := (row + x) * L
			// Reslicing every operand to len(d) lets the compiler drop the
			// per-iteration bounds checks inside the fused loop.
			s := t.Singles[base : base+L][:len(d)]
			r1 := t.pairRow(labs[row+x-1])[:len(d)]
			r2 := t.pairRow(labs[row+x+1])[:len(d)]
			r3 := t.pairRow(labs[up+x])[:len(d)]
			r4 := t.pairRow(labs[down+x])[:len(d)]
			for l := range d {
				d[l] = s[l] + r1[l] + r2[l] + r3[l] + r4[l]
			}
		}
		return
	}
	if step == 1 {
		base := (row + x0) * L
		copy(dst[:n*L], t.Singles[base:base+n*L])
	} else {
		for i, x := 0, x0; i < n; i, x = i+1, x+step {
			base := (row + x) * L
			copy(dst[i*L:i*L+L], t.Singles[base:base+L])
		}
	}
	// Only the first slot can sit on the left edge and only the last on the
	// right edge (x strictly increases), so the boundary branches hoist out.
	first := 0
	if x0 == 0 {
		first = 1
	}
	for i, x := first, x0+first*step; i < n; i, x = i+1, x+step {
		addRow(dst[i*L:i*L+L], t.pairRow(labs[row+x-1]))
	}
	last := n
	if x0+(n-1)*step == p.W-1 {
		last = n - 1
	}
	for i, x := 0, x0; i < last; i, x = i+1, x+step {
		addRow(dst[i*L:i*L+L], t.pairRow(labs[row+x+1]))
	}
	if y > 0 {
		up := row - p.W
		for i, x := 0, x0; i < n; i, x = i+1, x+step {
			addRow(dst[i*L:i*L+L], t.pairRow(labs[up+x]))
		}
	}
	if y+1 < p.H {
		down := row + p.W
		for i, x := 0, x0; i < n; i, x = i+1, x+step {
			addRow(dst[i*L:i*L+L], t.pairRow(labs[down+x]))
		}
	}
}

// LabelEnergiesRow fills dst (length W×Labels) with the candidate-label
// energies of every pixel in row y — the serial fused sweep's gather.
func (t *Tables) LabelEnergiesRow(dst []float64, lab *img.Labels, y int) {
	t.LabelEnergiesSeg(dst, lab, y, 0, 1, t.p.W)
}

// rectTables builds the Tables of the sub-rectangle [x0,x1)×[y0,y1) of the
// grid: the data term is evaluated straight into a table re-based so the
// result's pixel (x, y) is the problem's (x0+x, y0+y), and pair (a Pair LUT
// of p) is shared. The result is a complete, standalone Tables over a
// (x1-x0)×(y1-y0) problem — the sharded solver builds one per tile's
// extended rectangle so every fused kernel (LabelEnergiesSeg, FlipDelta,
// TotalEnergy) runs unchanged on tile-local label buffers. Note the
// rectangle's own edges are treated as grid edges by those kernels; the
// sharded solver only ever evaluates pixels whose full 4-neighborhood lies
// inside the rectangle (owned pixels of an extended rect), where that
// distinction cannot be observed, except where a rectangle edge coincides
// with a real grid edge — in which case the edge behavior is exactly the
// global one. The caller guarantees a non-empty rectangle inside the grid.
func (p *Problem) rectTables(x0, y0, x1, y1 int, pair []float64) *Tables {
	w, h := x1-x0, y1-y0
	L := p.Labels
	singles := p.singletonTable(x0, y0, x1, y1)
	sub := &Problem{
		W: w, H: h, Labels: L,
		Singleton:    func(x, y, l int) float64 { return singles[(y*w+x)*L+l] },
		PairWeight:   p.PairWeight,
		Dist:         p.Dist,
		PairDist:     p.PairDist,
		TruncateDist: p.TruncateDist,
	}
	return &Tables{p: sub, Singles: singles, Pair: pair}
}

// Labels returns the label count of the problem the tables were built from.
func (t *Tables) Labels() int { return t.p.Labels }

// FlipDelta returns the change in total MRF energy from relabeling pixel
// (x, y) from `from` to `to`, with every neighbor keeping its current label:
// the singleton difference plus one pairwise difference per incident edge.
// Each edge's terms index Pair exactly as TotalEnergy does — edges where
// (x, y) is the right/bottom endpoint use Pair[flipped*L+nb], edges where it
// is the left/top endpoint use Pair[nb*L+flipped] — so no symmetry of the
// distance function is assumed. The caller may invoke it before or after
// writing the flip (only the neighbors are read). Maintaining the running
// energy as init + Σ FlipDelta makes per-sweep observability O(flips)
// instead of a full O(W·H·deg) TotalEnergy recomputation.
func (t *Tables) FlipDelta(lab *img.Labels, x, y, from, to int) float64 {
	p := t.p
	L := p.Labels
	row := y * p.W
	labs := lab.L
	base := (row + x) * L
	d := t.Singles[base+to] - t.Singles[base+from]
	if x > 0 {
		nb := labs[row+x-1]
		d += t.Pair[to*L+nb] - t.Pair[from*L+nb]
	}
	if x+1 < p.W {
		nb := labs[row+x+1]
		d += t.Pair[nb*L+to] - t.Pair[nb*L+from]
	}
	if y > 0 {
		nb := labs[row-p.W+x]
		d += t.Pair[to*L+nb] - t.Pair[from*L+nb]
	}
	if y+1 < p.H {
		nb := labs[row+p.W+x]
		d += t.Pair[nb*L+to] - t.Pair[nb*L+from]
	}
	return d
}

// LabelEnergies fills dst with the energy of every candidate label at pixel
// (x, y) under the current labeling — the quantity the RSU-G energy stage
// computes (Eq. 1). Exposed for tests and the cycle-level simulator; the
// solvers use the Tables fast path, which the tests check against this
// direct evaluation.
func (p *Problem) LabelEnergies(dst []float64, singles []float64, lab *img.Labels, x, y int) {
	base := (y*p.W + x) * p.Labels
	for l := 0; l < p.Labels; l++ {
		e := singles[base+l]
		if x > 0 {
			e += p.PairWeight * p.pairDist(l, lab.At(x-1, y))
		}
		if x+1 < p.W {
			e += p.PairWeight * p.pairDist(l, lab.At(x+1, y))
		}
		if y > 0 {
			e += p.PairWeight * p.pairDist(l, lab.At(x, y-1))
		}
		if y+1 < p.H {
			e += p.PairWeight * p.pairDist(l, lab.At(x, y+1))
		}
		dst[l] = e
	}
}

// TotalEnergy returns the full MRF energy of a labeling from the cached
// tables — the same quantity as Problem.TotalEnergy, evaluated without
// calling the Singleton closure or the distance dispatch. Terms are
// accumulated in the same order as Problem.TotalEnergy, so for tables whose
// entries equal the directly-computed terms the result is bit-identical.
func (t *Tables) TotalEnergy(lab *img.Labels) float64 {
	p := t.p
	if lab.W != p.W || lab.H != p.H {
		panic("mrf: labeling size mismatch")
	}
	L := p.Labels
	var e float64
	for y := 0; y < p.H; y++ {
		for x := 0; x < p.W; x++ {
			l := lab.At(x, y)
			e += t.Singles[(y*p.W+x)*L+l]
			if x+1 < p.W {
				e += t.Pair[lab.At(x+1, y)*L+l]
			}
			if y+1 < p.H {
				e += t.Pair[lab.At(x, y+1)*L+l]
			}
		}
	}
	return e
}

// TotalEnergy returns the full MRF energy of a labeling: the sum of all
// singletons plus each doubleton counted once. Each doubleton is the same
// rounded product a Pair LUT entry holds (the explicit conversion forbids
// fusing it into the sum), added in Tables.TotalEnergy's order, so the two
// agree bit for bit.
func (p *Problem) TotalEnergy(lab *img.Labels) float64 {
	if lab.W != p.W || lab.H != p.H {
		panic("mrf: labeling size mismatch")
	}
	var e float64
	for y := 0; y < p.H; y++ {
		for x := 0; x < p.W; x++ {
			l := lab.At(x, y)
			e += p.Singleton(x, y, l)
			if x+1 < p.W {
				e += float64(p.PairWeight * p.pairDist(l, lab.At(x+1, y)))
			}
			if y+1 < p.H {
				e += float64(p.PairWeight * p.pairDist(l, lab.At(x, y+1)))
			}
		}
	}
	return e
}
