package allocsite

import (
	"strings"
	"testing"
)

var sink []*[64]byte

//go:noinline
func allocateSome(n int) {
	for i := 0; i < n; i++ {
		sink = append(sink, new([64]byte))
	}
}

// A window counts what ran inside it and names the function that did it;
// an empty window reads zero and names nothing.
func TestWindowNamesTheSite(t *testing.T) {
	w := Open()
	n, sites := w.Close(5)
	if n != 0 || sites != "" {
		t.Fatalf("empty window: %d objects, sites %q", n, sites)
	}
	sink = make([]*[64]byte, 0, 1000)
	w = Open()
	allocateSome(100)
	n, sites = w.Close(5)
	if n < 100 {
		t.Fatalf("window counted %d objects, want at least 100", n)
	}
	first, _, _ := strings.Cut(sites, "\n")
	if !strings.Contains(first, "allocateSome") || !strings.HasPrefix(strings.TrimSpace(first), "100 ") {
		t.Fatalf("top site is %q, want 100 objects in allocateSome:\n%s", first, sites)
	}
	sink = nil
}
