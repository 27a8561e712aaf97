//go:build go1.23

package simtime

import "testing"

// TestProcessPanicSurfacesInRun checks that a panic in a process body
// unwinds into the goroutine driving the engine, where the caller of Run can
// recover it, rather than killing the program from a goroutine of its own.
func TestProcessPanicSurfacesInRun(t *testing.T) {
	e := NewEngine()
	e.Spawn("boom", func(p *Process) {
		p.Sleep(5)
		panic("boom")
	})
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want the process body's panic", r)
		}
		if e.Now() != 5 {
			t.Fatalf("panic surfaced at t=%d, want 5", e.Now())
		}
	}()
	_ = e.Run() // panics before it can return
	t.Fatal("Run returned past a panicking process")
}
