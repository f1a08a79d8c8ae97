package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"rsu/internal/apps/stereo"
	"rsu/internal/core"
	"rsu/internal/img"
	"rsu/internal/mrf"
	"rsu/internal/synth"
)

// solveWorkload is one closed-loop CLI solve workload: stereo teddy at a
// scale, solved back to back the way `rsu-stereo -sampler new` runs it.
type solveWorkload struct {
	name    string
	scale   int
	sweeps  int // 0 keeps the default 500-sweep schedule
	workers int // Params.Workers: 1 = serial, 0 = the CLI default (auto)
	// limit is the latency a solve must meet to count in within_limit_share.
	limit time.Duration
}

var solveOutOfCache = solveWorkload{
	name: "solve-outofcache", scale: 10, sweeps: 20, workers: 0,
	limit: 15 * time.Second,
}

// solveOutcome is everything a solve must reproduce bit for bit.
type solveOutcome struct {
	BP     float64    `json:"bp"`
	RMS    float64    `json:"rms"`
	Labels uint64     `json:"labels_fnv64a"`
	Sweeps int        `json:"sweeps"`
	Stats  core.Stats `json:"unit_stats"`
}

// outcome condenses a solve. The sweep count comes from the device
// counters: every sweep evaluates each pixel exactly once.
func outcome(res *stereo.Result, samplers []core.LabelSampler) (solveOutcome, error) {
	o := solveOutcome{BP: res.BP, RMS: res.RMS, Labels: hashLabels(res.Disparity)}
	for _, s := range samplers {
		u, ok := s.(*core.Unit)
		if !ok {
			return o, fmt.Errorf("sampler %T is not an RSU-G unit", s)
		}
		addStats(&o.Stats, u.Stats())
	}
	px := res.Disparity.W * res.Disparity.H
	if o.Stats.Evaluations%px != 0 {
		return o, fmt.Errorf("%d evaluations are not whole sweeps of %d pixels", o.Stats.Evaluations, px)
	}
	o.Sweeps = o.Stats.Evaluations / px
	return o, nil
}

func addStats(dst *core.Stats, s core.Stats) {
	dst.Evaluations += s.Evaluations
	dst.LabelEvals += s.LabelEvals
	dst.Cutoffs += s.Cutoffs
	dst.Truncated += s.Truncated
	dst.NoFire += s.NoFire
	dst.Ties += s.Ties
}

func hashLabels(l *img.Labels) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range l.L {
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// params are the CLI's stereo parameters for this workload.
func (w solveWorkload) params(factory func(int) core.LabelSampler) stereo.Params {
	p := stereo.DefaultParams()
	if w.sweeps > 0 {
		p.Schedule.Iterations = w.sweeps
	}
	p.Workers = w.workers
	p.SamplerFactory = factory
	return p
}

// factory is the CLI's sampler factory for seed; built receives every
// sampler it builds, after wrap.
func factory(seed uint64, wrap func(core.LabelSampler) core.LabelSampler, built *[]core.LabelSampler) func(int) core.LabelSampler {
	build, err := core.SamplerBuilder("new")
	if err != nil {
		panic(err) // "new" is a built-in sampler name
	}
	streams := core.StreamFactory(seed, build)
	return func(stream int) core.LabelSampler {
		s := streams(stream)
		*built = append(*built, s)
		if wrap != nil {
			return wrap(s)
		}
		return s
	}
}

// setup is what precedes the first sweep: synthesis, problem and tables.
func (w solveWorkload) setup() time.Duration {
	start := time.Now()
	pair := synth.Teddy(w.scale)
	stereo.BuildProblem(pair, stereo.DefaultParams()).BuildTables()
	return time.Since(start)
}

// plainSolve runs one solve as rsu-stereo does: synthesis, then the app's
// Solve, which builds, sweeps and scores.
func (w solveWorkload) plainSolve(seed uint64) (solveOutcome, time.Duration, error) {
	var built []core.LabelSampler
	start := time.Now()
	pair := synth.Teddy(w.scale)
	res, err := stereo.Solve(pair, nil, w.params(factory(seed, nil, &built)))
	wall := time.Since(start)
	if err != nil {
		return solveOutcome{}, wall, err
	}
	o, err := outcome(res, built)
	return o, wall, err
}

// solveTrace accumulates the traced solves' layer figures.
type solveTrace struct {
	tr      *tracer
	cost    int64
	solves  int
	sampler samplerTotals
	stats   core.Stats
	// executor-ns the sweeps took: sweep wall time times executors.
	sweepNS, execNS float64
	sweeps          int
	updates, flips  float64
	sweepPerUpdate  []float64 // one per sweep
	synthMS         []float64
	setupMS         []float64
	scoreMS         []float64
}

// tracedSolve is plainSolve with timed samplers, an OnSweep hook and
// spans around each layer call.
func (w solveWorkload) tracedSolve(seed uint64, st *solveTrace) (solveOutcome, time.Duration, error) {
	clk := st.tr.clk
	req := fmt.Sprintf("solve-%d", st.solves)
	st.solves++
	var built []core.LabelSampler
	var timed []*timedSampler
	wrap := func(s core.LabelSampler) core.LabelSampler {
		t := newTimedSampler(s, clk, st.cost, sampleEvery)
		timed = append(timed, t)
		return t
	}
	p := w.params(factory(seed, wrap, &built))

	start := clk.now()
	pair := synth.Teddy(w.scale)
	synthEnd := clk.now()
	px := int64(pair.Left.W * pair.Left.H)

	var (
		first, last int64 = -1, -1
		prev        samplerTotals
		sweepNS     float64
	)
	root, app := st.tr.id(), st.tr.id()
	p.OnSweep = func(k int, _ *img.Labels, s mrf.SolveStats) {
		end := clk.now()
		begin := end - int64(s.Elapsed)
		if first < 0 {
			first = begin
		}
		last = end
		cur := totals(timed)
		d := cur.minus(prev)
		prev = cur
		id := st.tr.record(span{Parent: app, Req: req, Name: "mrf.sweep", StartNS: begin, DurNS: int64(s.Elapsed), Count: px})
		st.tr.record(span{Parent: id, Req: req, Name: "core.sample", StartNS: begin, DurNS: int64(d.busyNS()), Count: int64(d.updates)})
		st.sweepPerUpdate = append(st.sweepPerUpdate, float64(s.Elapsed)/float64(px))
		sweepNS += float64(s.Elapsed)
		st.flips += float64(s.Flips)
		st.updates += float64(px)
		st.sweeps++
	}
	solveStart := clk.now()
	res, err := stereo.Solve(pair, nil, p)
	end := clk.now()
	wall := time.Duration(end - start)

	st.tr.record(span{ID: root, Req: req, Name: "solve", StartNS: start, DurNS: end - start, Count: 1})
	st.tr.record(span{Parent: root, Req: req, Name: "synth", StartNS: start, DurNS: synthEnd - start, Count: 1})
	st.tr.record(span{ID: app, Parent: root, Req: req, Name: "apps.solve", StartNS: solveStart, DurNS: end - solveStart, Count: 1})
	st.synthMS = append(st.synthMS, float64(synthEnd-start)/1e6)
	if first >= 0 {
		st.tr.record(span{Parent: app, Req: req, Name: "apps.setup", StartNS: solveStart, DurNS: first - solveStart, Count: 1})
		st.tr.record(span{Parent: app, Req: req, Name: "apps.score", StartNS: last, DurNS: end - last, Count: 1})
		st.setupMS = append(st.setupMS, float64(first-solveStart)/1e6)
		st.scoreMS = append(st.scoreMS, float64(end-last)/1e6)
	}
	if err != nil {
		return solveOutcome{}, wall, err
	}

	st.sampler = st.sampler.plus(totals(timed))
	st.sweepNS += sweepNS
	st.execNS += float64(executors(len(built))) * sweepNS
	o, err := outcome(res, built)
	addStats(&st.stats, o.Stats)
	return o, wall, err
}

// executors is how many goroutines run a solve's samplers: mrf's default,
// min(samplers, NumCPU, GOMAXPROCS), since the workloads leave
// SolveOptions.Executors at 0.
func executors(samplers int) int {
	return min(samplers, runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// run measures the workload for rc.seconds. The plain run times closed-loop
// solves, each after a timed set-up; the traced run alternates plain and
// traced solves, takes the layer figures from the traced ones and the
// overhead from the pair.
func (w solveWorkload) run(rc *runContext) (*report, error) {
	r := newReport()
	var want *solveOutcome
	if ref, ok := rc.ref.Solves[w.name]; ok && rc.seed == rc.ref.Seed {
		want = &ref
	}
	var first *solveOutcome
	check := func(o solveOutcome, kind string) {
		r.attempted++
		switch {
		case first == nil:
			first = &o
			if want != nil && o != *want {
				r.fail("%s: outcome %+v differs from the reference %+v", kind, o, *want)
			}
		case o != *first:
			r.fail("%s: outcome %+v differs from the run's first solve %+v", kind, o, *first)
		}
	}

	var st *solveTrace
	if rc.trace {
		st = &solveTrace{tr: rc.tr, cost: rc.tr.clk.readCost()}
	}
	var plain, traced, setups []float64
	deadline := time.Now().Add(rc.seconds)
	// Stop at the first failure: the run's verdict is already known.
	for r.failed == 0 && (len(plain) < 2 || time.Now().Before(deadline) || (rc.trace && len(traced) < len(plain))) {
		runtime.GC() // each solve starts from a collected heap, as a fresh CLI process would
		kind, times, solve := "solve", &plain, w.plainSolve
		if !rc.trace {
			// One set-up before each solve, so both sample the same
			// stretches of a machine whose speed drifts.
			setups = append(setups, w.setup().Seconds())
			runtime.GC()
		}
		if rc.trace && len(traced) < len(plain) {
			kind, times = "traced solve", &traced
			solve = func(seed uint64) (solveOutcome, time.Duration, error) { return w.tracedSolve(seed, st) }
		}
		o, wall, err := solve(rc.seed)
		if err != nil {
			r.attempted++
			r.fail("%s: %v", kind, err)
			continue
		}
		*times = append(*times, wall.Seconds())
		check(o, kind)
	}

	if rc.trace {
		w.layerFigures(r, st, plain, traced)
		return r, nil
	}
	n := len(plain)
	r.set("setup_s", median(setups), len(setups))
	within := 0
	ms := make([]float64, n)
	for i, s := range plain {
		ms[i] = s * 1e3
		if s <= w.limit.Seconds() {
			within++
		}
	}
	r.set("solve_s", median(plain), n)
	r.set("peak_rss_mb", peakRSSMB(), 1)
	r.set("failed_share", ratio(float64(r.failed), float64(r.attempted)), r.attempted)
	r.set("job_p50_ms", percentile(ms, 0.5), n)
	r.set("job_p90_ms", percentile(ms, 0.9), n)
	r.set("jobs_per_s", float64(n)/sum(plain), n)
	r.set("within_limit_share", ratio(float64(within), float64(r.attempted)), r.attempted)
	if q, v, ok := tail(ms); ok {
		r.notef("job latency: p%g = %.4g ms is the highest percentile with %d samples beyond it", q*100, v, minTail)
	}
	if !supported(n, 0.9) {
		r.notef("job_p90_ms: %d solves leave fewer than %d beyond p90", n, minTail)
	}
	r.notef("within_limit_share: limit %v per solve", w.limit)
	return r, nil
}

// layerFigures reports the traced solves' per-layer metrics.
func (w solveWorkload) layerFigures(r *report, st *solveTrace, plain, traced []float64) {
	s, n := st.sampler, st.solves
	busy := s.busyNS()
	r.set("core.sample_ns_per_update", ratio(float64(s.timedNS), float64(s.timedUpdates)), int(s.timedUpdates))
	r.set("core.set_temperature_us_per_sweep", ratio(float64(s.tempNS)/1e3, float64(st.sweeps)), st.sweeps)
	// The CLI path attaches no converter cache: every SetTemperature
	// rebuilds its conversion table, so nothing hits.
	r.set("core.conv_hit_ratio", 0, int(s.tempCalls))
	c := st.stats
	r.set("core.cutoffs_per_label", ratio(float64(c.Cutoffs), float64(c.LabelEvals)), c.LabelEvals)
	r.set("core.truncated_per_label", ratio(float64(c.Truncated), float64(c.LabelEvals)), c.LabelEvals)
	r.set("core.nofire_per_update", ratio(float64(c.NoFire), float64(c.Evaluations)), c.Evaluations)
	r.set("core.ties_per_update", ratio(float64(c.Ties), float64(c.Evaluations)), c.Evaluations)
	r.set("mrf.sweep_ns_per_update", ratio(st.sweepNS, st.updates), st.sweeps)
	r.set("mrf.sweep_p90_ns_per_update", percentile(st.sweepPerUpdate, 0.9), st.sweeps)
	r.set("mrf.nonsample_ns_per_update", ratio(st.execNS-busy-float64(s.tempNS), st.updates), st.sweeps)
	r.set("mrf.sampler_busy_share", ratio(busy, st.execNS), st.sweeps)
	r.set("mrf.flip_ratio", ratio(st.flips, st.updates), st.sweeps)
	r.set("apps.setup_ms", median(st.setupMS), len(st.setupMS))
	r.set("synth.build_ms", median(st.synthMS), n)
	r.set("apps.score_ms", median(st.scoreMS), len(st.scoreMS))
	r.set("trace.overhead_pct", 100*(median(traced)/median(plain)-1), n)
	r.notef("trace overhead: traced solve %.4g s vs plain %.4g s (medians of %d and %d)", median(traced), median(plain), len(traced), len(plain))
}
