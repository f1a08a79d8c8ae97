// Command perfbench is the repository benchmark. It runs two workloads
// against the repository's own packages — an open-loop mix of rsu-serve
// jobs and an out-of-cache auto-sharded stereo solve — checks every output
// against recorded reference values,
// and prints every metric by name, unit and sample count. The plain run
// gives the end-to-end metrics; the traced run (-trace 1) gives the
// per-layer metrics, writes its spans and reports its own overhead.
//
// Usage, from the repository root (run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload solve-outofcache --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seconds 10
//
// The last line of standard output is a one-line JSON result. The exit
// status is 0 only when every output matched.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"rsu/internal/serve"
)

// spansDir is where the traced run writes its spans, relative to the
// directory the benchmark runs in.
const spansDir = ".bench_build/perfbench"

// defaultSeed is the seed the reference outcome of the solve workload was
// recorded at.
const defaultSeed = 1

// runContext is what a workload run needs.
type runContext struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	tr      *tracer // traced run only
	ref     reference
}

// workload is one benchmark workload.
type workload struct {
	name string
	run  func(*runContext) (*report, error)
}

// workloads in the order -workload all runs them: by growing peak memory,
// since one process's peak resident size never falls.
var workloads = []workload{
	{"serve-mix", runServeMix},
	{solveOutOfCache.name, solveOutOfCache.run},
}

// reference holds the outcomes every run is checked against.
type reference struct {
	// Seed is the seed the solve outcomes were recorded at.
	Seed   uint64                  `json:"seed"`
	Solves map[string]solveOutcome `json:"solves"`
	// Jobs holds the outcome of every job spec serve-mix can deal, keyed
	// by specKey.
	Jobs map[string]jobOutcome `json:"jobs"`
}

//go:embed reference.json
var referenceJSON []byte

func main() {
	var (
		name    = flag.String("workload", "all", "serve-mix | solve-outofcache | all")
		seed    = flag.Uint64("seed", defaultSeed, "workload seed")
		seconds = flag.Int("seconds", 10, "measuring time per workload, in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics and spans")
		record  = flag.String("record", "", "record reference outcomes to this file and exit")
		capac   = flag.Bool("capacity", false, "measure the serve-mix capacity closed-loop and exit")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	// Never run more OS threads than CPUs: more only adds scheduler churn
	// and makes numbers from different machines incomparable.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}

	switch {
	case *record != "":
		if err := recordReference(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	case *capac:
		jps, err := measureCapacity(*seed, time.Duration(*seconds)*time.Second)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Printf("serve-mix capacity: %.2f jobs/s with GOMAXPROCS=%d\n", jps, runtime.GOMAXPROCS(0))
		return
	}

	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reference.json:", err)
		os.Exit(2)
	}
	var run []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			run = append(run, w)
		}
	}
	if len(run) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}

	status := 0
	for _, w := range run {
		rc := &runContext{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, ref: ref}
		if rc.trace {
			rc.tr = &tracer{clk: clock{base: time.Now()}}
		}
		header{workload: w.name, seed: *seed, seconds: *seconds, trace: rc.trace}.print(os.Stdout)
		r, err := w.run(rc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		r.print(os.Stdout, rc.trace)
		if rc.trace {
			path := fmt.Sprintf("%s/spans-%s-seed%d.jsonl", spansDir, w.name, *seed)
			if err := rc.tr.write(path); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("spans: %d written to %s\n", len(rc.tr.spans), path)
		}
		line, err := r.resultLine(rc.trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		if r.failed > 0 {
			status = 1
		}
	}
	os.Exit(status)
}

// recordReference solves the solve workload at defaultSeed and every job
// spec serve-mix can deal, and writes their outcomes to path.
func recordReference(path string) error {
	ref := reference{Seed: defaultSeed, Solves: make(map[string]solveOutcome), Jobs: make(map[string]jobOutcome)}
	o, _, err := solveOutOfCache.plainSolve(defaultSeed)
	if err != nil {
		return fmt.Errorf("%s: %w", solveOutOfCache.name, err)
	}
	ref.Solves[solveOutOfCache.name] = o
	svc := serve.New(serveConfig)
	for _, spec := range allJobSpecs() {
		job, err := svc.Submit(context.Background(), spec)
		if err != nil {
			return err
		}
		<-job.Done()
		res, status, err := job.Result()
		if status != serve.StatusOK {
			return fmt.Errorf("job %s: %s: %w", specKey(spec), status, err)
		}
		ref.Jobs[specKey(spec)] = jobOutcomeOf(res)
	}
	if err := svc.Shutdown(context.Background()); err != nil {
		return err
	}
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
