package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rsu/internal/serve"
)

// serveRate is serve-mix's open-loop arrival rate in jobs per second, about
// a quarter of the lowest capacity `perfbench -capacity` measured for this
// mix on a 2-CPU machine (22-32 jobs/s as the machine's speed drifted). At
// half capacity, queueing amplified the machine's drift into job latency
// past the benchmark's bound; at a quarter the queue still forms in bursts.
// It stays fixed so that a faster program shows as lower latency at the
// same load, not as a different load.
const serveRate = 6.0

// serveLimit is the latency a serve-mix job must meet, from when it was due,
// to count in within_limit_share.
const serveLimit = 500 * time.Millisecond

// serveSetups is how many batches of setupBatch services serve-mix starts
// to time setup_s. One start takes microseconds, too little to time alone,
// and one batch's time scatters from about 2 to 12 µs, so the median needs
// hundreds of batches to hold still from run to run.
const serveSetups = 501

const setupBatch = 50

// serveConfig is rsu-serve's default configuration: GOMAXPROCS serving
// workers, one solver worker per job, a 64-job queue, default caches.
var serveConfig = serve.Config{DefaultTimeout: time.Minute, MaxTimeout: 10 * time.Minute}

// jobSeeds are the solver seeds serve-mix jobs draw from.
var jobSeeds = []uint64{1, 2, 3}

// segmentDatasets is how many BSD-like scenes the segment app serves.
const segmentDatasets = 30

// deck is one round of the serve-mix job mix. The generator deals shuffled
// copies of it, so every seed sends the same mix of classes and stereo and
// flow scenes; the seed picks the order, the arrival times, the solver
// seeds and the segment scenes. Teddy and venus are dealt most often and
// segment scenes follow a Zipf popularity, so the 32-entry dataset cache
// sees both hits and misses.
var deck = func() []serve.JobSpec {
	stereo := func(ds, sampler string) serve.JobSpec {
		return serve.JobSpec{App: serve.AppStereo, Dataset: ds, Sampler: sampler, Iterations: 40}
	}
	flow := func(ds string) serve.JobSpec {
		return serve.JobSpec{App: serve.AppFlow, Dataset: ds, Sampler: "new", Iterations: 40}
	}
	with := func(s serve.JobSpec, f func(*serve.JobSpec)) serve.JobSpec { f(&s); return s }
	uq := func(s *serve.JobSpec) { s.UQ = true }
	pool := func(s *serve.JobSpec) { s.Workers = 2 }
	bleed := func(s *serve.JobSpec) { s.FaultBleed = 0.02 }
	segment := serve.JobSpec{App: serve.AppSegment, Sampler: "new"}
	ising := serve.JobSpec{App: serve.AppIsing, Sampler: "new", N: 32}
	return []serve.JobSpec{
		stereo("teddy", "new"), stereo("teddy", "new"), stereo("poster", "new"), stereo("art", "new"),
		with(stereo("teddy", "new"), uq), with(stereo("poster", "new"), uq),
		with(stereo("teddy", "new"), pool), with(stereo("art", "new"), pool),
		stereo("teddy", "software"), stereo("poster", "software"),
		flow("venus"), flow("rubberwhale"),
		with(flow("venus"), bleed), with(flow("dimetrodon"), bleed),
		segment, segment, with(segment, uq), with(segment, uq),
		ising, ising,
	}
}()

// arrival is one job of the schedule: when it is due, after the schedule
// starts, and what it asks for.
type arrival struct {
	at   time.Duration
	spec serve.JobSpec
}

// dealer deals serve-mix jobs: shuffled copies of the deck, each job with a
// seeded solver seed and, for segment jobs, a scene.
type dealer struct {
	r     *rand.Rand
	zipf  *rand.Zipf
	order []int
}

func newDealer(r *rand.Rand) *dealer {
	return &dealer{r: r, zipf: rand.NewZipf(r, 1.1, 1, segmentDatasets-1)}
}

func (d *dealer) next() serve.JobSpec {
	if len(d.order) == 0 {
		d.order = d.r.Perm(len(deck))
	}
	spec := deck[d.order[0]]
	d.order = d.order[1:]
	spec.Seed = jobSeeds[d.r.IntN(len(jobSeeds))]
	if spec.App == serve.AppSegment {
		spec.Dataset = fmt.Sprintf("bsd%02d", d.zipf.Uint64())
	}
	return spec
}

// schedule is the seeded open-loop job stream: round(rate*span) Poisson
// arrivals over span, each job dealt from the deck. The arrival times are
// sorted uniform draws, which is a Poisson process conditioned on its
// count: bursts and lulls as usual, but every seed offers the same load.
func schedule(seed uint64, rate float64, span time.Duration) []arrival {
	r := rand.New(rand.NewPCG(seed, 0x5e7ed))
	n := int(math.Round(rate * span.Seconds()))
	at := make([]float64, n)
	for i := range at {
		at[i] = r.Float64() * float64(span)
	}
	sort.Float64s(at)
	d := newDealer(r)
	out := make([]arrival, n)
	for i := range out {
		out[i] = arrival{at: time.Duration(at[i]), spec: d.next()}
	}
	return out
}

// allJobSpecs lists every spec the schedule can produce, for the reference
// record.
func allJobSpecs() []serve.JobSpec {
	seen := make(map[string]bool)
	var out []serve.JobSpec
	for _, d := range deck {
		for _, seed := range jobSeeds {
			s := d
			s.Seed = seed
			datasets := []string{s.Dataset}
			if s.App == serve.AppSegment {
				datasets = datasets[:0]
				for i := 0; i < segmentDatasets; i++ {
					datasets = append(datasets, fmt.Sprintf("bsd%02d", i))
				}
			}
			for _, ds := range datasets {
				s.Dataset = ds
				if k := specKey(s); !seen[k] {
					seen[k] = true
					out = append(out, s)
				}
			}
		}
	}
	return out
}

// specKey names a job spec in the reference record.
func specKey(s serve.JobSpec) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // JobSpec holds only plain fields
	}
	return string(b)
}

// jobOutcome is everything a job must reproduce bit for bit.
type jobOutcome struct {
	Metrics  map[string]float64 `json:"metrics"`
	Sweeps   int                `json:"sweeps"`
	Degraded bool               `json:"degraded,omitempty"`
	// UQConfidence is the posterior mean confidence of a uq job.
	UQConfidence float64 `json:"uq_mean_confidence,omitempty"`
}

func jobOutcomeOf(r *serve.JobResult) jobOutcome {
	o := jobOutcome{Metrics: r.Metrics, Sweeps: r.Sweeps, Degraded: r.Degraded}
	if r.UQ != nil {
		o.UQConfidence = r.UQ.MeanConfidence
	}
	return o
}

func (o jobOutcome) equal(p jobOutcome) bool {
	if o.Sweeps != p.Sweeps || o.Degraded != p.Degraded || o.UQConfidence != p.UQConfidence || len(o.Metrics) != len(p.Metrics) {
		return false
	}
	for k, v := range o.Metrics {
		if w, ok := p.Metrics[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// jobRecord is one scheduled job's fate. Times are clock readings.
type jobRecord struct {
	arrival
	due, submit, done int64
	refused           error // Submit's error; the job never ran
	res               *serve.JobResult
	status            serve.JobStatus
	err               error
}

// servePassResult is what one pass over a schedule leaves behind.
type servePassResult struct {
	recs    []jobRecord
	cache   serve.CacheStats
	metrics string // the service's Prometheus text
	// submitted and rejected are the service's own admission counters.
	submitted, rejected uint64
}

// servePass runs the schedule against a fresh service: one generator
// submits each job when it is due, whether or not earlier jobs finished,
// and one waiter per accepted job notes when it is done. (A single waiter
// taking jobs in order would see a job finish only after every job ahead of
// it had.) Accepted jobs are bounded by the service's queue, and so are the
// waiters.
func servePass(sched []arrival, clk clock) (servePassResult, error) {
	svc := serve.New(serveConfig)
	recs := make([]jobRecord, len(sched))
	var wg sync.WaitGroup
	start := clk.now()
	for i, a := range sched {
		rec := &recs[i]
		rec.arrival = a
		rec.due = start + int64(a.at)
		if d := rec.due - clk.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		rec.submit = clk.now()
		job, err := svc.Submit(context.Background(), a.spec)
		if err != nil {
			rec.refused = err
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-job.Done()
			rec.done = clk.now()
			rec.res, rec.status, rec.err = job.Result()
		}()
	}
	wg.Wait()
	m := svc.Metrics()
	out := servePassResult{
		recs: recs, cache: svc.CacheStats(), metrics: m.Render(svc.CacheStats()),
		submitted: m.Submitted.Load(), rejected: m.Rejected.Load(),
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		return out, fmt.Errorf("service shutdown: %w", err)
	}
	return out, nil
}

// check counts every job that was refused, did not finish OK, or differs
// from its reference outcome. Outcomes depend only on the spec, and the
// reference holds every spec the schedule can deal, so this holds for any
// seed.
func (p servePassResult) check(r *report, ref reference) {
	for _, rec := range p.recs {
		r.attempted++
		key := specKey(rec.spec)
		switch {
		case rec.refused != nil:
			r.fail("job %s refused: %v", key, rec.refused)
		case rec.status != serve.StatusOK:
			r.fail("job %s %s: %v", key, rec.status, rec.err)
		default:
			want, ok := ref.Jobs[key]
			got := jobOutcomeOf(rec.res)
			if !ok {
				r.fail("job %s has no reference outcome", key)
			} else if !got.equal(want) {
				r.fail("job %s outcome %+v differs from the reference %+v", key, got, want)
			}
		}
	}
}

// ok returns the records of jobs that finished OK.
func (p servePassResult) ok() []jobRecord {
	var out []jobRecord
	for _, rec := range p.recs {
		if rec.refused == nil && rec.status == serve.StatusOK {
			out = append(out, rec)
		}
	}
	return out
}

// latenciesMS are the OK jobs' latencies from when each was due.
func latenciesMS(recs []jobRecord) []float64 {
	out := make([]float64, len(recs))
	for i, rec := range recs {
		out[i] = float64(rec.done-rec.due) / 1e6
	}
	return out
}

// runServeMix measures serve-mix. The plain run times service start-up,
// then one pass of the schedule for rc.seconds. The traced run makes two
// passes of the schedule's first half, plain then traced, on fresh
// services, and reports the traced pass's layers and the pair's overhead.
func runServeMix(rc *runContext) (*report, error) {
	r := newReport()
	if !rc.trace {
		// Half the set-ups before the pass and half after, so they sample
		// two moments of a machine whose speed drifts.
		setups, err := timeSetups(nil, serveSetups/2)
		if err != nil {
			return nil, err
		}
		sched := schedule(rc.seed, serveRate, rc.seconds)
		p, err := servePass(sched, clock{base: time.Now()})
		if err != nil {
			return nil, err
		}
		if setups, err = timeSetups(setups, serveSetups-serveSetups/2); err != nil {
			return nil, err
		}
		r.set("setup_s", median(setups), len(setups))
		p.check(r, rc.ref)
		serveEndToEnd(r, p)
		return r, nil
	}

	sched := schedule(rc.seed, serveRate, rc.seconds/2)
	plain, err := servePass(sched, clock{base: time.Now()})
	if err != nil {
		return nil, err
	}
	plain.check(r, rc.ref)
	traced, err := servePass(sched, rc.tr.clk)
	if err != nil {
		return nil, err
	}
	traced.check(r, rc.ref)
	serveLayers(r, traced, rc.tr)
	p50 := func(p servePassResult) float64 { return median(latenciesMS(p.ok())) }
	r.set("trace.overhead_pct", 100*(p50(traced)/p50(plain)-1), len(traced.recs))
	r.notef("trace overhead: traced job p50 %.4g ms vs plain %.4g ms", p50(traced), p50(plain))
	return r, nil
}

// timeSetups appends n set-up times to setups: each the mean start-up time
// of setupBatch services started back to back after a collection.
func timeSetups(setups []float64, n int) ([]float64, error) {
	svcs := make([]*serve.Service, setupBatch)
	for range n {
		runtime.GC()
		start := time.Now()
		for j := range svcs {
			svcs[j] = serve.New(serveConfig)
		}
		setups = append(setups, time.Since(start).Seconds()/setupBatch)
		for _, svc := range svcs {
			if err := svc.Shutdown(context.Background()); err != nil {
				return setups, err
			}
		}
	}
	return setups, nil
}

// serveEndToEnd reports the plain pass's end-to-end metrics.
func serveEndToEnd(r *report, p servePassResult) {
	ok := p.ok()
	lat := latenciesMS(ok)
	run := make([]float64, len(ok))
	lag := make([]float64, len(p.recs))
	within := 0
	var first, last int64
	for i, rec := range ok {
		run[i] = float64(rec.res.RunNS) / 1e9
		if rec.done-rec.due <= int64(serveLimit) {
			within++
		}
		last = max(last, rec.done)
	}
	for i, rec := range p.recs {
		lag[i] = float64(rec.submit-rec.due) / 1e6
	}
	if len(p.recs) > 0 {
		first = p.recs[0].due
	}
	n := len(ok)
	r.set("solve_s", median(run), n)
	r.set("peak_rss_mb", peakRSSMB(), 1)
	r.set("failed_share", ratio(float64(r.failed), float64(r.attempted)), r.attempted)
	r.set("job_p50_ms", percentile(lat, 0.5), n)
	r.set("job_p90_ms", percentile(lat, 0.9), n)
	r.set("jobs_per_s", ratio(float64(n), float64(last-first)/1e9), n)
	r.set("within_limit_share", ratio(float64(within), float64(r.attempted)), r.attempted)
	if q, v, ok := tail(lat); ok {
		r.notef("job latency: p%g = %.4g ms is the highest percentile with %d samples beyond it", q*100, v, minTail)
	}
	if !supported(n, 0.9) {
		r.notef("job_p90_ms: %d jobs leave fewer than %d beyond p90", n, minTail)
	}
	r.notef("solve_s on serve-mix is the median job run leg (RunNS)")
	r.notef("within_limit_share: limit %v from when each job was due", serveLimit)
	r.notef("generator lag behind schedule: p50 %.3g ms, max %.3g ms", median(lag), percentile(lag, 1))
}

// serveLayers reports the traced pass's per-layer metrics and records its
// spans: each job from when it was due to done, with its queue and run legs
// as the service measured them.
func serveLayers(r *report, p servePassResult, tr *tracer) {
	for _, rec := range p.recs {
		req := specKey(rec.spec)
		if rec.res != nil {
			req = rec.res.ID
		}
		if rec.refused != nil {
			tr.record(span{Req: req, Name: "serve.submit", StartNS: rec.due, DurNS: rec.submit - rec.due})
			continue
		}
		id := tr.record(span{Req: req, Name: "serve.job", StartNS: rec.due, DurNS: rec.done - rec.due, Count: 1})
		if rec.res != nil {
			tr.record(span{Parent: id, Req: req, Name: "serve.queue", StartNS: rec.submit, DurNS: rec.res.QueueNS, Count: 1})
			tr.record(span{Parent: id, Req: req, Name: "serve.run", StartNS: rec.done - rec.res.RunNS, DurNS: rec.res.RunNS, Count: int64(rec.res.Sweeps)})
		}
	}
	ok := p.ok()
	queue := make([]float64, len(ok))
	run := make([]float64, len(ok))
	var runSum float64
	var collect []float64
	for i, rec := range ok {
		queue[i] = float64(rec.res.QueueNS) / 1e6
		run[i] = float64(rec.res.RunNS) / 1e6
		runSum += float64(rec.res.RunNS) / 1e9
		if rec.res.UQ != nil {
			collect = append(collect, rec.res.UQ.CollectSeconds*1e3)
		}
	}
	n := len(ok)
	c := p.cache
	r.set("serve.queue_ms_p50", percentile(queue, 0.5), n)
	r.set("serve.queue_ms_p90", percentile(queue, 0.9), n)
	r.set("serve.run_ms_p50", percentile(run, 0.5), n)
	r.set("serve.sweep_share", ratio(promSum(p.metrics, "rsu_serve_sweep_seconds_sum"), runSum), n)
	r.set("serve.pair_hit_ratio", ratio(float64(c.PairHits), float64(c.PairHits+c.PairMisses)), int(c.PairHits+c.PairMisses))
	r.set("serve.dataset_hit_ratio", ratio(float64(c.DatasetHits), float64(c.DatasetHits+c.DatasetMisses)), int(c.DatasetHits+c.DatasetMisses))
	r.set("serve.conv_hit_ratio", ratio(float64(c.ConvHits), float64(c.ConvHits+c.ConvMisses)), int(c.ConvHits+c.ConvMisses))
	r.set("serve.rejected_share", ratio(float64(p.rejected), float64(p.submitted+p.rejected)), int(p.submitted+p.rejected))
	if len(collect) > 0 {
		r.set("serve.uq_collect_ms", median(collect), len(collect))
	}
}

// promSum adds every sample of a metric family line in Prometheus text,
// across label sets.
func promSum(text, name string) float64 {
	var s float64
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+"{") && !strings.HasPrefix(line, name+" ") {
			continue
		}
		fields := strings.Fields(line)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			s += v
		}
	}
	return s
}

// measureCapacity runs the serve-mix deal closed-loop, keeping the service
// busy with twice its worker count in flight, and returns completed jobs
// per second: the capacity serveRate is set against.
func measureCapacity(seed uint64, d time.Duration) (float64, error) {
	svc := serve.New(serveConfig)
	deal := newDealer(rand.New(rand.NewPCG(seed, 0x5e7ed)))
	sem := make(chan struct{}, 2*runtime.GOMAXPROCS(0)) // counting semaphore

	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	done := 0
	start := time.Now()
	for time.Since(start) < d {
		sem <- struct{}{}
		job, err := svc.Submit(context.Background(), deal.next())
		if err != nil {
			<-sem
			mu.Lock()
			firstErr = err
			mu.Unlock()
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-job.Done()
			_, status, err := job.Result()
			mu.Lock()
			if status == serve.StatusOK {
				done++
			} else if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			<-sem
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := svc.Shutdown(context.Background()); err != nil {
		return 0, err
	}
	if firstErr != nil {
		return 0, firstErr
	}
	return float64(done) / elapsed.Seconds(), nil
}
