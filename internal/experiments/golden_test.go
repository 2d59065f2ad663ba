package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// fig5Golden pins Figure 5 at scale 0.01 across commits: the rendered table
// and the per-cell CSV, whose cycle totals are exact integers, so any change
// to what the Dynamo model counts shows up as a diff. Regenerate with
// `go test ./internal/experiments -run TestFig5Golden -update` only when a
// change is meant to move the figure.
const fig5Golden = "fig5_scale0.01.golden"

func TestFig5Golden(t *testing.T) {
	grid, err := RunFig5(0.01)
	if err != nil {
		t.Fatalf("RunFig5: %v", err)
	}
	var got bytes.Buffer
	got.WriteString(Fig5(grid))
	if err := WriteFig5CSV(&got, grid); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", fig5Golden)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if g, w := got.String(), string(want); g != w {
		t.Errorf("Figure 5 differs from %s\ngolden:\n%s\ngot:\n%s", path, excerptDiff(w, g), excerptDiff(g, w))
	}
}
