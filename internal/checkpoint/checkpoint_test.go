package checkpoint

import (
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rsu/internal/core"
	"rsu/internal/mrf"
	"rsu/internal/shard"
	"rsu/internal/wire"
)

// sampleSnapshot builds a fully populated snapshot exercising every optional
// branch of the format.
func sampleSnapshot() *Snapshot {
	return &Snapshot{
		App:      "stereo",
		Sampler:  "new",
		Seed:     2026,
		Schedule: mrf.Schedule{T0: 8, Alpha: 0.92, Iterations: 24, TFloor: 0.05},
		Aux:      []byte(`{"job":"j-17"}`),
		State: mrf.SolverState{
			W: 4, H: 3, Labels: 5, Workers: 2,
			NextSweep: 7, NextT: 4.4170368, Energy: -12.625, EnergyTracked: true,
			Grid: []int{0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1},
			Samplers: []core.SamplerState{
				{RNG: [4]uint64{1, 2, 3, 4}, Stats: core.Stats{Evaluations: 10, LabelEvals: 50, NoFire: 2}},
				{RNG: [4]uint64{5, 6, 7, 8}, Stats: core.Stats{Evaluations: 11, Ties: 1}},
			},
			Faults:    [][]byte{{0xaa, 0xbb}, {0xcc}},
			Collector: []byte{1, 2, 3, 4, 5},
		},
	}
}

// minimalSnapshot leaves every optional component empty.
func minimalSnapshot() *Snapshot {
	return &Snapshot{
		App:      "ising",
		Seed:     1,
		Schedule: mrf.Schedule{T0: 2, Alpha: 1, Iterations: 4},
		State: mrf.SolverState{
			W: 2, H: 2, Labels: 2, Workers: 1,
			NextSweep: 0, NextT: 2,
			Grid:     []int{0, 1, 1, 0},
			Samplers: []core.SamplerState{{RNG: [4]uint64{9, 9, 9, 9}}},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, s := range []*Snapshot{sampleSnapshot(), minimalSnapshot()} {
		got, err := Decode(Encode(s))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, s)
		}
	}
}

func TestDecodeRejectsBitFlips(t *testing.T) {
	// Any single-bit flip anywhere in the container must be caught — by the
	// CRC if it lands in the covered region, by the CRC comparison itself if
	// it lands in the stored checksum.
	data := Encode(minimalSnapshot())
	for off := 0; off < len(data); off++ {
		for bit := 0; bit < 8; bit += 3 {
			mut := append([]byte(nil), data...)
			mut[off] ^= 1 << bit
			if _, err := Decode(mut); err == nil {
				t.Fatalf("flip at byte %d bit %d decoded successfully", off, bit)
			}
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	data := Encode(sampleSnapshot())
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: err = %v, want ErrCorrupt", n, err)
		}
	}
}

// appendCRC restamps the trailing CRC-32C over a mutated header+payload so
// mutation tests reach the check under test instead of the checksum.
func appendCRC(body []byte) []byte {
	return wire.AppendU32(body, crc32.Checksum(body, castagnoli))
}

func TestDecodeVersionSkew(t *testing.T) {
	data := Encode(minimalSnapshot())
	// Bump the version field (offset 8, little-endian u32) and restamp the CRC.
	mut := append([]byte(nil), data[:len(data)-4]...)
	mut[8] = Version + 1
	mut = appendCRC(mut)
	if _, err := Decode(mut); !errors.Is(err, ErrVersion) {
		t.Fatalf("newer version: err = %v, want ErrVersion", err)
	}
	// Version 0 is invalid, not "older but fine".
	mut = append([]byte(nil), data[:len(data)-4]...)
	mut[8] = 0
	mut = appendCRC(mut)
	if _, err := Decode(mut); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("version 0: err = %v, want ErrCorrupt", err)
	}
}

func TestDecodeNonZeroFlags(t *testing.T) {
	data := Encode(minimalSnapshot())
	mut := append([]byte(nil), data[:len(data)-4]...)
	mut[12] = 1
	mut = appendCRC(mut)
	if _, err := Decode(mut); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("non-zero flags: err = %v, want ErrCorrupt", err)
	}
}

func TestDecodeSemanticRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(s *Snapshot)
	}{
		{"zero RNG words", func(s *Snapshot) { s.State.Samplers[0].RNG = [4]uint64{} }},
		{"label out of range", func(s *Snapshot) { s.State.Grid[0] = s.State.Labels }},
		{"negative counter", func(s *Snapshot) { s.State.Samplers[0].Stats.NoFire = -1 }},
		{"sampler/worker mismatch", func(s *Snapshot) { s.State.Workers = 3 }},
		{"fault/worker mismatch", func(s *Snapshot) { s.State.Faults = s.State.Faults[:1] }},
		{"sweep beyond schedule", func(s *Snapshot) { s.State.NextSweep = s.Schedule.Iterations + 1 }},
		{"non-positive temperature", func(s *Snapshot) { s.State.NextT = 0 }},
		{"bad schedule", func(s *Snapshot) { s.Schedule.Alpha = -1 }},
		{"grid/dimension mismatch", func(s *Snapshot) { s.State.W = 5 }},
	}
	for _, tc := range cases {
		s := sampleSnapshot()
		tc.mutate(s)
		if _, err := Decode(Encode(s)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
	}
}

func TestDecodeOwnsMemory(t *testing.T) {
	s := sampleSnapshot()
	data := Encode(s)
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xff
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatal("decoded snapshot aliases the input buffer")
	}
}

func TestWriteReadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	s := sampleSnapshot()
	if err := Write(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatal("file round trip mismatch")
	}
	// Overwrite with a different snapshot: rename must replace in place and
	// leave no temporary droppings.
	s2 := minimalSnapshot()
	if err := Write(path, s2); err != nil {
		t.Fatal(err)
	}
	got, err = Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s2) {
		t.Fatal("overwrite did not replace the snapshot")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "run.ckpt" {
		t.Fatalf("directory not clean after writes: %v", entries)
	}
}

func TestReadMissingFile(t *testing.T) {
	_, err := Read(filepath.Join(t.TempDir(), "absent.ckpt"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err = %v, want fs.ErrNotExist", err)
	}
}

func TestPlanAttachFreshAndResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job.ckpt")
	sched := mrf.Schedule{T0: 8, Alpha: 0.92, Iterations: 24, TFloor: 0.05}

	// Fresh start: Resume with no file installs hooks without a resume state.
	pl := &Plan{Path: path, Every: 5, Resume: true, App: "stereo", Sampler: "new", Seed: 2026}
	var opts mrf.SolveOptions
	if err := pl.Attach(&opts, sched); err != nil {
		t.Fatal(err)
	}
	if opts.Resume != nil || pl.Resumed() != nil {
		t.Fatal("fresh start must not set a resume state")
	}
	if opts.CheckpointEvery != 5 || opts.OnCheckpoint == nil {
		t.Fatal("hooks not installed")
	}

	// Simulate the solver invoking the hook, then a process restart.
	st := sampleSnapshot().State
	if err := opts.OnCheckpoint(&st); err != nil {
		t.Fatal(err)
	}
	pl2 := &Plan{Path: path, Every: 5, Resume: true, App: "stereo", Sampler: "new", Seed: 2026}
	var opts2 mrf.SolveOptions
	if err := pl2.Attach(&opts2, sched); err != nil {
		t.Fatal(err)
	}
	if opts2.Resume == nil || pl2.Resumed() == nil {
		t.Fatal("restart did not resume from the written snapshot")
	}
	if opts2.Resume.NextSweep != st.NextSweep {
		t.Fatalf("resumed NextSweep %d, want %d", opts2.Resume.NextSweep, st.NextSweep)
	}

	// Metadata mismatches are rejected.
	for name, bad := range map[string]*Plan{
		"app":     {Path: path, Resume: true, App: "flow", Sampler: "new", Seed: 2026},
		"sampler": {Path: path, Resume: true, App: "stereo", Sampler: "software", Seed: 2026},
		"seed":    {Path: path, Resume: true, App: "stereo", Sampler: "new", Seed: 1},
	} {
		var o mrf.SolveOptions
		if err := bad.Attach(&o, sched); err == nil {
			t.Errorf("%s mismatch accepted", name)
		}
	}
	var o mrf.SolveOptions
	schedBad := sched
	schedBad.Iterations++
	good := &Plan{Path: path, Resume: true, App: "stereo", Sampler: "new", Seed: 2026}
	if err := good.Attach(&o, schedBad); err == nil {
		t.Error("schedule mismatch accepted")
	}

	// Finish removes the snapshot; a second Finish is a no-op.
	if err := pl2.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("Finish left the snapshot behind")
	}
	if err := pl2.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestPlanGateAndOnWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gated.ckpt")
	gate := false
	var wrote []string
	pl := &Plan{
		Path: path, Every: 1, App: "stereo", Seed: 1,
		Gate:    func() bool { return gate },
		OnWrite: func(p string) { wrote = append(wrote, p) },
	}
	var opts mrf.SolveOptions
	if err := pl.Attach(&opts, mrf.Schedule{T0: 2, Alpha: 1, Iterations: 4}); err != nil {
		t.Fatal(err)
	}
	st := minimalSnapshot().State
	if err := opts.OnCheckpoint(&st); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("gated-off checkpoint was written")
	}
	gate = true
	if err := opts.OnCheckpoint(&st); err != nil {
		t.Fatal(err)
	}
	if len(wrote) != 1 || wrote[0] != path {
		t.Fatalf("OnWrite calls: %v", wrote)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal("gated-on checkpoint missing")
	}
}

func TestPlanFromPrecedence(t *testing.T) {
	snap := sampleSnapshot()
	pl := &Plan{From: snap, App: "stereo", Sampler: "new", Seed: 2026}
	var opts mrf.SolveOptions
	if err := pl.Attach(&opts, snap.Schedule); err != nil {
		t.Fatal(err)
	}
	if opts.Resume != &snap.State {
		t.Fatal("From snapshot not used")
	}
	if opts.OnCheckpoint != nil {
		t.Fatal("pathless plan must not install a write hook")
	}
	if (&Plan{}).Attach(&mrf.SolveOptions{}, snap.Schedule) == nil {
		t.Fatal("empty plan accepted")
	}
}

// shardedSnapshot builds a snapshot of a 2x2-sharded run on a 6x4 grid, with
// halo buffers sized from the same plan the decoder will rebuild.
func shardedSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	const w, h, labels = 6, 4, 5
	plan, err := shard.NewPlan(shard.Geometry{Rows: 2, Cols: 2}, w, h)
	if err != nil {
		t.Fatal(err)
	}
	s := &Snapshot{
		App:      "stereo",
		Sampler:  "new",
		Seed:     2026,
		Schedule: mrf.Schedule{T0: 8, Alpha: 0.92, Iterations: 24, TFloor: 0.05},
		State: mrf.SolverState{
			W: w, H: h, Labels: labels, Workers: len(plan.Tiles),
			NextSweep: 7, NextT: 4.4170368, Energy: -12.625, EnergyTracked: true,
			ShardRows: 2, ShardCols: 2,
		},
	}
	st := &s.State
	st.Grid = make([]int, w*h)
	for i := range st.Grid {
		st.Grid[i] = i % labels
	}
	st.Samplers = make([]core.SamplerState, len(plan.Tiles))
	for i := range st.Samplers {
		st.Samplers[i] = core.SamplerState{RNG: [4]uint64{uint64(i) + 1, 2, 3, 4}}
	}
	st.Halos = make([][]int, len(plan.Tiles))
	for i, tile := range plan.Tiles {
		halo := make([]int, tile.HaloCells())
		for j := range halo {
			halo[j] = (i + j) % labels
		}
		st.Halos[i] = halo
	}
	return s
}

func TestEncodeDecodeShardedRoundTrip(t *testing.T) {
	s := shardedSnapshot(t)
	data := Encode(s)
	if got := data[8]; got != Version {
		t.Fatalf("sharded container version byte = %d, want %d", got, Version)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, s)
	}
}

func TestUnshardedStaysVersion1(t *testing.T) {
	// The version-2 trailer is opt-in: snapshots of unsharded runs must keep
	// the exact byte format earlier releases wrote, version byte included.
	for _, s := range []*Snapshot{sampleSnapshot(), minimalSnapshot()} {
		if data := Encode(s); data[8] != 1 {
			t.Fatalf("unsharded container version byte = %d, want 1", data[8])
		}
	}
}

func TestDecodeShardedRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(s *Snapshot)
	}{
		{"geometry/worker mismatch", func(s *Snapshot) { s.State.ShardCols = 3 }},
		{"halo count mismatch", func(s *Snapshot) { s.State.Halos = s.State.Halos[:3] }},
		{"halo length mismatch", func(s *Snapshot) { s.State.Halos[1] = s.State.Halos[1][:2] }},
		{"halo label out of range", func(s *Snapshot) { s.State.Halos[2][0] = s.State.Labels }},
		{"geometry too fine for grid", func(s *Snapshot) {
			// 5 tile rows cannot split 4 grid rows; keep workers/samplers in
			// step so the geometry check is the one that fires.
			s.State.ShardRows, s.State.ShardCols, s.State.Workers = 5, 1, 5
			s.State.Samplers = append(s.State.Samplers, core.SamplerState{RNG: [4]uint64{9, 9, 9, 9}})
			s.State.Halos = append(s.State.Halos, []int{0})
		}},
	}
	for _, tc := range cases {
		s := shardedSnapshot(t)
		tc.mutate(s)
		if _, err := Decode(Encode(s)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
	}
}
