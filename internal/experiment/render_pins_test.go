package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var updateArtifactPins = flag.Bool("update-artifact-pins", false,
	"rewrite the artifact rendering pins from the current builders' output")

// TestArtifactRenderingPins pins the exact bytes every sweep-built figure
// and table renders — ASCII and Markdown for figures, Render and Markdown
// for tables — over a short grid (n ∈ {4, 8}, a one-minute window) at one
// and at two replications. Both renderings come from one builder per
// artifact, so the pins hold each to its exact bytes: the single-run one
// with no ± column, no CI and no "replications" title, the replicated one
// with all three.
func TestArtifactRenderingPins(t *testing.T) {
	ns := []int{4, 8}
	figures := []struct {
		name  string
		build func([]int, SimOptions) (*Figure, error)
	}{
		{"fig5", Figure5}, {"fig6", Figure6}, {"fig7", Figure7},
		{"fig8", Figure8}, {"fig9", Figure9}, {"fig10", Figure10},
		{"figr", FigureResponseTimes},
	}
	tables := []struct {
		name  string
		build func([]int, SimOptions) (*Table, error)
	}{
		{"table3", Table3}, {"table4", Table4}, {"table5", Table5},
	}
	digest := func(s string) string {
		sum := sha256.Sum256([]byte(s))
		return hex.EncodeToString(sum[:])
	}
	got := map[string]string{}
	for _, reps := range []int{1, 2} {
		opts := SimOptions{Seed: 1, Warmup: 30_000, Duration: 90_000, Replications: reps, Workers: 2}
		for _, f := range figures {
			fig, err := f.build(ns, opts)
			if err != nil {
				t.Fatalf("%s reps=%d: %v", f.name, reps, err)
			}
			got[fmt.Sprintf("%s/reps%d/ascii", f.name, reps)] = digest(fig.ASCII())
			got[fmt.Sprintf("%s/reps%d/markdown", f.name, reps)] = digest(fig.Markdown())
		}
		for _, tb := range tables {
			tab, err := tb.build(ns, opts)
			if err != nil {
				t.Fatalf("%s reps=%d: %v", tb.name, reps, err)
			}
			got[fmt.Sprintf("%s/reps%d/render", tb.name, reps)] = digest(tab.Render())
			got[fmt.Sprintf("%s/reps%d/markdown", tb.name, reps)] = digest(tab.Markdown())
		}
	}

	path := filepath.Join("testdata", "artifact_pins.json")
	if *updateArtifactPins {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("artifact rendering pins rewritten: %s", path)
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing pins (run with -update-artifact-pins to create): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		for k, w := range want {
			if got[k] != w {
				t.Errorf("%s: rendering diverged from the pinned bytes", k)
			}
		}
		for k := range got {
			if _, ok := want[k]; !ok {
				t.Errorf("%s: no pin recorded", k)
			}
		}
	}
}
