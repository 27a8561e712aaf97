package pack

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/datatype"
	"repro/internal/mem"
)

// parTestTypes are layout shapes with very different run structures: regular
// runs, irregular runs, and runs far larger than the minimum shard.
func parTestTypes(t *testing.T) map[string]struct {
	dt    *datatype.Type
	count int
} {
	t.Helper()
	vector, err := datatype.TypeVector(256, 64, 128, datatype.Int32)
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := datatype.TypeIndexed(
		[]int{300, 1, 77, 5, 1024, 2, 63},
		[]int{0, 305, 310, 400, 410, 1440, 1450},
		datatype.Int32)
	if err != nil {
		t.Fatal(err)
	}
	bigruns, err := datatype.TypeVector(8, 4096, 5000, datatype.Int32)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]struct {
		dt    *datatype.Type
		count int
	}{
		"vector":  {vector, 3},
		"indexed": {indexed, 11},
		"bigruns": {bigruns, 2},
	}
}

// TestParallelPackMatchesSerial is the determinism contract of the parallel
// segment engine: for every worker count, executor, and segment size, the
// packed bytes are identical to the reference packer's serial walk, and the
// reported totals match run for run.
func TestParallelPackMatchesSerial(t *testing.T) {
	for name, tc := range parTestTypes(t) {
		size := tc.dt.Size() * int64(tc.count)
		span := tc.dt.TrueExtent() + int64(tc.count-1)*tc.dt.Extent()
		m := mem.NewMemory("n", span+(4<<20))
		base := m.MustAlloc(span)
		fillPattern(m, base, span, 7)

		want := make([]byte, size)
		wantN, wantRuns := NewPacker(m, base, tc.dt, tc.count).PackTo(want)
		if wantN != size {
			t.Fatalf("%s: serial packed %d of %d bytes", name, wantN, size)
		}

		for _, workers := range []int{1, 2, 3, 4, 8} {
			for _, exec := range []Executor{SerialExec{}, GoExec{}} {
				for _, segSize := range []int64{size, 32 << 10, 13000} {
					label := fmt.Sprintf("%s/w%d/%T/seg%d", name, workers, exec, segSize)
					opt := Par{Workers: workers, Exec: exec, MinShard: 4 << 10}
					p := NewParallelProgramPacker(m, base, datatype.Compile(tc.dt, tc.count), opt)
					got := make([]byte, size)
					var runs int
					for off := int64(0); off < size; {
						end := off + segSize
						if end > size {
							end = size
						}
						st := p.Pack(got[off:end])
						if st.Bytes != end-off {
							t.Fatalf("%s: step packed %d, want %d", label, st.Bytes, end-off)
						}
						var shardBytes int64
						var shardRuns int
						for _, sh := range st.Shards {
							shardBytes += sh.Bytes
							shardRuns += sh.Runs
						}
						if shardBytes != st.Bytes || shardRuns != st.Runs {
							t.Fatalf("%s: shard stats (%d B, %d runs) disagree with totals (%d B, %d runs)",
								label, shardBytes, shardRuns, st.Bytes, st.Runs)
						}
						runs += st.Runs
						off = end
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: parallel pack differs from serial", label)
					}
					// Whole-message packs must also report the serial run count
					// (segmented packs may split a run across two steps).
					if segSize == size && runs != wantRuns {
						t.Fatalf("%s: %d runs, serial reports %d", label, runs, wantRuns)
					}
				}
			}
		}
	}
}

// TestParallelUnpackMatchesSerial round-trips through the parallel unpacker
// at every worker count and compares the scattered layout bytes with the
// serial unpacker's result.
func TestParallelUnpackMatchesSerial(t *testing.T) {
	for name, tc := range parTestTypes(t) {
		size := tc.dt.Size() * int64(tc.count)
		span := tc.dt.TrueExtent() + int64(tc.count-1)*tc.dt.Extent()
		src := make([]byte, size)
		for i := range src {
			src[i] = byte(i*31 + 11)
		}

		wantMem := mem.NewMemory("want", span+(4<<20))
		wantBase := wantMem.MustAlloc(span)
		if n, _ := NewUnpacker(wantMem, wantBase, tc.dt, tc.count).UnpackFrom(src); n != size {
			t.Fatalf("%s: serial unpacked %d of %d", name, n, size)
		}
		want := wantMem.Bytes(wantBase, span)

		for _, workers := range []int{1, 2, 4, 8} {
			for _, exec := range []Executor{SerialExec{}, GoExec{}} {
				label := fmt.Sprintf("%s/w%d/%T", name, workers, exec)
				m := mem.NewMemory("n", span+(4<<20))
				base := m.MustAlloc(span)
				opt := Par{Workers: workers, Exec: exec, MinShard: 4 << 10}
				u := NewParallelProgramUnpacker(m, base, datatype.Compile(tc.dt, tc.count), opt)
				for off := int64(0); off < size; {
					end := off + 24<<10
					if end > size {
						end = size
					}
					st := u.Unpack(src[off:end])
					if st.Bytes != end-off {
						t.Fatalf("%s: step unpacked %d, want %d", label, st.Bytes, end-off)
					}
					off = end
				}
				if !bytes.Equal(m.Bytes(base, span), want) {
					t.Fatalf("%s: parallel unpack differs from serial", label)
				}
			}
		}
	}
}

// TestShardRunsProperties checks the partitioner's invariants directly:
// shards are contiguous and cover every run exactly once, no run is split,
// the shard count honors workers and the minimum shard size, and the split
// is deterministic.
func TestShardRunsProperties(t *testing.T) {
	mkRefs := func(lens ...int64) ([]runRef, int64) {
		var refs []runRef
		var off int64
		for i, n := range lens {
			refs = append(refs, runRef{addr: mem.Addr(1000 * (i + 1)), off: off, n: n})
			off += n
		}
		return refs, off
	}

	check := func(name string, refs []runRef, total int64, workers int, minShard int64, wantMax int) {
		t.Helper()
		shards := shardRuns(refs, total, workers, minShard, nil)
		if len(shards) > wantMax {
			t.Fatalf("%s: %d shards, want <= %d", name, len(shards), wantMax)
		}
		var flat []runRef
		for _, sh := range shards {
			if len(sh) == 0 {
				t.Fatalf("%s: empty shard", name)
			}
			flat = append(flat, sh...)
		}
		if len(flat) != len(refs) {
			t.Fatalf("%s: %d runs after sharding, want %d", name, len(flat), len(refs))
		}
		for i := range flat {
			if flat[i] != refs[i] {
				t.Fatalf("%s: run %d reordered or split", name, i)
			}
		}
		again := shardRuns(refs, total, workers, minShard, nil)
		if len(again) != len(shards) {
			t.Fatalf("%s: nondeterministic shard count", name)
		}
	}

	refs, total := mkRefs(8<<10, 8<<10, 8<<10, 8<<10, 8<<10, 8<<10, 8<<10, 8<<10)
	check("even", refs, total, 4, 4<<10, 4)

	// minShard limits the fan-out: 64 KB at a 32 KB floor is at most 2 shards.
	check("minshard", refs, total, 8, 32<<10, 2)

	// One giant run cannot be split no matter the worker count.
	refs, total = mkRefs(1 << 20)
	check("giant", refs, total, 8, 4<<10, 1)

	// Skewed runs: every run lands in exactly one shard.
	refs, total = mkRefs(100<<10, 1<<10, 1<<10, 1<<10, 60<<10, 2<<10)
	check("skewed", refs, total, 4, 4<<10, 4)

	// Fewer runs than workers: one shard per run at most.
	refs, total = mkRefs(16<<10, 16<<10)
	check("fewruns", refs, total, 8, 1<<10, 2)
}

// TestGoExecRunsAllTasks makes sure the capped-lane executor executes every
// task exactly once for task counts around the lane count.
func TestGoExecRunsAllTasks(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 33} {
		ran := make([]int32, n)
		tasks := make([]func(), n)
		for i := range tasks {
			i := i
			tasks[i] = func() { ran[i]++ }
		}
		GoExec{}.Run(tasks)
		for i, c := range ran {
			if c != 1 {
				t.Fatalf("n=%d: task %d ran %d times", n, i, c)
			}
		}
	}
}
