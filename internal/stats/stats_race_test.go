package stats

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// Counters must tolerate concurrent writers (the real-time backend's node
// goroutines) alongside aggregate readers. Run with -race.
func TestCountersConcurrent(t *testing.T) {
	var c Counters
	const writers = 8
	const perWriter = 2000

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				atomic.AddInt64(&c.BytesPacked, 3)
				atomic.AddInt64(&c.Completions, 1)
				atomic.AddInt64(&c.DescriptorsPosted, 1)
			}
		}()
	}
	// Aggregate readers run while the writers hammer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var agg Counters
		for i := 0; i < 200; i++ {
			_ = c.String()
			_ = c.BytesCopied()
			_ = c.Snapshot()
			agg.Add(&c)
		}
	}()
	wg.Wait()

	snap := c.Snapshot()
	if got, want := snap.BytesPacked, int64(writers*perWriter*3); got != want {
		t.Fatalf("BytesPacked = %d, want %d", got, want)
	}
	if got, want := snap.Completions, int64(writers*perWriter); got != want {
		t.Fatalf("Completions = %d, want %d", got, want)
	}
	if got := c.BytesCopied(); got != snap.BytesPacked {
		t.Fatalf("BytesCopied = %d, want %d", got, snap.BytesPacked)
	}
	c.Reset()
	if s := c.String(); s != "" {
		t.Fatalf("after Reset, String() = %q, want empty", s)
	}
}

// Snapshot and fields must cover every field, so Add/Reset cannot silently
// miss a counter added later.
func TestCountersSnapshotCoversAllFields(t *testing.T) {
	var c Counters
	// The hand-kept list is the struct itself: same count, same order, each
	// name its field's, each pointer aimed at that field.
	v := reflect.ValueOf(&c).Elem()
	fs := c.fields()
	if len(fs) != v.NumField() {
		t.Fatalf("fields() lists %d counters, the struct declares %d", len(fs), v.NumField())
	}
	for i, f := range fs {
		sf := v.Type().Field(i)
		if f.name != sf.Name {
			t.Errorf("fields()[%d] is named %q, the struct's field %d is %s", i, f.name, i, sf.Name)
		}
		if f.p != v.Field(i).Addr().Interface().(*int64) {
			t.Errorf("fields()[%d] (%s) does not point at the field %s", i, f.name, sf.Name)
		}
	}
	for i, f := range fs {
		*f.p = int64(i + 1)
	}
	snap := c.Snapshot()
	for i, f := range snap.fields() {
		if *f.p != int64(i+1) {
			t.Fatalf("field %s not copied by Snapshot", f.name)
		}
	}
	var sum Counters
	sum.Add(&c)
	sum.Add(&c)
	for i, f := range sum.fields() {
		if *f.p != 2*int64(i+1) {
			t.Fatalf("field %s not accumulated by Add", f.name)
		}
	}
}
