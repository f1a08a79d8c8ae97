package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rsu/internal/core"
)

// sampleEvery is the traced run's clock sampling period: one Sample call in
// sampleEvery is timed. Timing every call costs about a quarter of the solve
// (two clock reads around a ~500 ns draw); one in 64 costs well under 1%.
const sampleEvery = 64

// clock reads a monotonic clock as nanoseconds since the benchmark started.
// time.Since on a monotonic base takes one clock read, time.Now two.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// readCost estimates the cost of one clock read, the floor of any timed
// interval: the median over many back-to-back read pairs.
func (c clock) readCost() int64 {
	const n = 4001
	d := make([]float64, n)
	for i := range d {
		a := c.now()
		d[i] = float64(c.now() - a)
	}
	return int64(median(d))
}

// timedSampler wraps a sampler the factory built and times calls into it
// from outside: every SetTemperature and SampleBatch call, and a
// deterministic one-in-every Sample calls. It implements core.BatchSampler
// itself, so core.AsBatch hands the solver the wrapper rather than the
// per-pixel adapter, and the batched solvers still reach the inner fused
// SampleBatch. The wrapper draws nothing, so the chain is unchanged. Like
// the sampler it wraps, it is used by one goroutine at a time; the solvers'
// sweep barriers order its counters before OnSweep and return read them.
type timedSampler struct {
	inner core.BatchSampler
	clk   clock
	cost  int64 // clock read cost, subtracted from each timed Sample call
	every uint64

	calls       uint64 // Sample calls
	timedCalls  uint64 // Sample calls that were timed
	timedNS     int64
	batchPixels uint64 // pixels drawn through SampleBatch (all timed)
	batchNS     int64
	tempCalls   uint64
	tempNS      int64
}

var _ core.BatchSampler = (*timedSampler)(nil)

func newTimedSampler(s core.LabelSampler, clk clock, cost int64, every uint64) *timedSampler {
	return &timedSampler{inner: core.AsBatch(s), clk: clk, cost: cost, every: every}
}

func (t *timedSampler) SetTemperature(T float64) error {
	a := t.clk.now()
	err := t.inner.SetTemperature(T)
	t.tempNS += t.clk.now() - a
	t.tempCalls++
	return err
}

func (t *timedSampler) Sample(energies []float64, current int) (int, error) {
	t.calls++
	if t.calls%t.every != 0 {
		return t.inner.Sample(energies, current)
	}
	a := t.clk.now()
	l, err := t.inner.Sample(energies, current)
	if d := t.clk.now() - a - t.cost; d > 0 {
		t.timedNS += d
	}
	t.timedCalls++
	return l, err
}

func (t *timedSampler) SampleBatch(energies []float64, stride int, currents, out []int) error {
	a := t.clk.now()
	err := t.inner.SampleBatch(energies, stride, currents, out)
	t.batchNS += t.clk.now() - a
	t.batchPixels += uint64(len(currents))
	return err
}

// samplerTotals sums the counters of a set of timed samplers.
type samplerTotals struct {
	updates      uint64 // pixel-updates drawn
	timedUpdates uint64 // of which timed
	timedNS      int64
	tempCalls    uint64
	tempNS       int64
}

func totals(ts []*timedSampler) samplerTotals {
	var s samplerTotals
	for _, t := range ts {
		s.updates += t.calls + t.batchPixels
		s.timedUpdates += t.timedCalls + t.batchPixels
		s.timedNS += t.timedNS + t.batchNS
		s.tempCalls += t.tempCalls
		s.tempNS += t.tempNS
	}
	return s
}

func (s samplerTotals) plus(o samplerTotals) samplerTotals {
	return samplerTotals{
		updates:      s.updates + o.updates,
		timedUpdates: s.timedUpdates + o.timedUpdates,
		timedNS:      s.timedNS + o.timedNS,
		tempCalls:    s.tempCalls + o.tempCalls,
		tempNS:       s.tempNS + o.tempNS,
	}
}

func (s samplerTotals) minus(o samplerTotals) samplerTotals {
	return samplerTotals{
		updates:      s.updates - o.updates,
		timedUpdates: s.timedUpdates - o.timedUpdates,
		timedNS:      s.timedNS - o.timedNS,
		tempCalls:    s.tempCalls - o.tempCalls,
		tempNS:       s.tempNS - o.tempNS,
	}
}

// busyNS estimates the time spent inside the samplers: the timed mean per
// update times every update drawn.
func (s samplerTotals) busyNS() float64 {
	return ratio(float64(s.timedNS), float64(s.timedUpdates)) * float64(s.updates)
}

// span is one traced interval. Spans of one request share Req; Parent is the
// ID of the span that caused it (0 for a root). Aggregate spans (core.sample)
// sum time across executors, so DurNS may exceed their parent's; Count says
// how many operations a span covers.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Req     string `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Count   int64  `json:"count,omitempty"`
}

// tracer keeps spans in memory until the run ends. Safe for concurrent use.
type tracer struct {
	clk   clock
	mu    sync.Mutex
	next  int64
	spans []span
}

// id reserves a span ID, so children can name a parent recorded later.
func (t *tracer) id() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record keeps a span; a zero ID is assigned one. It returns the ID.
func (t *tracer) record(s span) int64 {
	if s.ID == 0 {
		s.ID = t.id()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return s.ID
}

// write stores the spans as JSON lines, in start order, at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.SliceStable(t.spans, func(i, j int) bool { return t.spans[i].StartNS < t.spans[j].StartNS })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
