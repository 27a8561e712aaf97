package exper

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/perfgate"
)

// lastDigit matches the final digit of a JSON document.
var lastDigit = regexp.MustCompile(`[0-9]([^0-9]*)$`)

// withMember returns doc with one top-level member replaced.
func withMember(t *testing.T, doc []byte, key string, val []byte) []byte {
	t.Helper()
	var members map[string]json.RawMessage
	if err := json.Unmarshal(doc, &members); err != nil {
		t.Fatal(err)
	}
	if _, ok := members[key]; !ok {
		t.Fatalf("document has no %q member", key)
	}
	members[key] = val
	out, err := json.Marshal(members)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSweepTable holds every row of the sweep table to the guard's premise:
// the deterministic part regenerates byte-for-byte, Guard accepts the sweep's
// own output, rejects it with one deterministic digit changed, and does not
// look at the wall-clock rows. The scale sweep's deterministic part takes most
// of a minute, so `make guard` alone runs it.
func TestSweepTable(t *testing.T) {
	for i := range Sweeps {
		s := &Sweeps[i]
		if s.DetBackends == nil || s.Name == "scale" {
			continue
		}
		t.Run(s.Name, func(t *testing.T) {
			first, err := s.Run(s.DetBackends, Options{})
			if err != nil {
				t.Fatal(err)
			}
			doc, err := Encode(first)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Guard(doc); err != nil {
				t.Fatalf("a second run does not reproduce the first: %v", err)
			}

			det, err := s.detPart(doc)
			if err != nil {
				t.Fatal(err)
			}
			loc := lastDigit.FindSubmatchIndex(det)
			if loc == nil {
				t.Fatal("deterministic part holds no digit")
			}
			det[loc[0]] = '0' + (det[loc[0]]-'0'+1)%10
			drifted := det
			if s.DetKey != "" {
				drifted = withMember(t, doc, s.DetKey, det)
			}
			if err := s.compare(first, drifted); err == nil {
				t.Fatal("guard accepted a document with one deterministic digit changed")
			}

			if s.DetKey == "" {
				return
			}
			// Every other member is wall-clock rows or derived from them.
			var members map[string]json.RawMessage
			if err := json.Unmarshal(doc, &members); err != nil {
				t.Fatal(err)
			}
			stale := doc
			for key := range members {
				if key != s.DetKey {
					stale = withMember(t, stale, key, []byte(`[{"wall_ms":1}]`))
				}
			}
			if err := s.compare(first, stale); err != nil {
				t.Fatalf("guard looked outside %s: %v", s.DetKey, err)
			}
		})
	}
}

// TestArtifactsClaimed keeps an artifact from being orphaned: every
// BENCH_*.json / SOAK_*.json in the repository root belongs to exactly one
// row of the sweep table, to internal/perfgate, or to BENCHMARK.json.
func TestArtifactsClaimed(t *testing.T) {
	root := filepath.Join("..", "..")
	benchmark, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	claims := map[string][]string{perfgate.Artifact: {"internal/perfgate"}}
	for _, s := range Sweeps {
		claims[s.Artifact] = append(claims[s.Artifact], "sweep "+s.Name)
	}
	var found []string
	for _, pat := range []string{"BENCH_*.json", "SOAK_*.json"} {
		names, err := filepath.Glob(filepath.Join(root, pat))
		if err != nil {
			t.Fatal(err)
		}
		found = append(found, names...)
	}
	if len(found) == 0 {
		t.Fatal("no artifacts found in the repository root")
	}
	for _, path := range found {
		name := filepath.Base(path)
		owners := claims[name]
		if bytes.Contains(benchmark, []byte(`"`+name+`"`)) {
			owners = append(owners, "BENCHMARK.json")
		}
		if len(owners) != 1 {
			t.Errorf("%s is claimed by %d owners (%s), want exactly one",
				name, len(owners), strings.Join(owners, ", "))
		}
		delete(claims, name)
	}
	for name, owners := range claims {
		t.Errorf("%s (%s) is not in the repository root", name, strings.Join(owners, ", "))
	}
}
