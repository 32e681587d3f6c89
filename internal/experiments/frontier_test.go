package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current output")

// TestStrategyFrontierGoldenQuick pins the exact E14 rendering — the
// cmd/repro strategy-frontier table — at the quick geometry. The fill is
// a pure function of (model, geometry, seed) and the evaluation walks a
// deterministic cursor, so the table is byte-stable; regenerate with
//
//	go test ./internal/experiments -run StrategyFrontierGolden -update
//
// after an intentional change to the grid or the rendering.
func TestStrategyFrontierGoldenQuick(t *testing.T) {
	suite := quickSuite()
	var buf bytes.Buffer
	suite.WriteStrategyFrontier(&buf)

	path := filepath.Join("testdata", "e14_quick.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("E14 output diverged from %s.\n--- got ---\n%s--- want ---\n%s", path, buf.Bytes(), want)
	}
}

// TestE14FrontierSanity checks the experiment's semantic floor at quick
// geometry: every app yields the full grid, a non-trivial potential, and
// a frontier that beats (or ties) the bulk baseline.
func TestE14FrontierSanity(t *testing.T) {
	suite := quickSuite()
	e14 := suite.E14StrategyFrontier()
	for _, app := range AppNames {
		sw, ok := e14[app]
		if !ok {
			t.Fatalf("no sweep for %s", app)
		}
		if len(sw.Results) != len(suite.E14StrategyTimeouts())+5 {
			t.Errorf("%s: %d results, want %d", app, len(sw.Results), len(suite.E14StrategyTimeouts())+5)
		}
		if sw.PotentialOverlapSec <= 0 {
			t.Errorf("%s: potential overlap %v, want > 0", app, sw.PotentialOverlapSec)
		}
		var bulk float64
		for _, r := range sw.Results {
			if r.Strategy == "bulk" {
				bulk = r.MeanFinishSec
			}
		}
		if bulk == 0 {
			t.Fatalf("%s: no bulk baseline in results", app)
		}
		if sw.BestFinishSec > bulk {
			t.Errorf("%s: frontier %v slower than bulk %v", app, sw.BestFinishSec, bulk)
		}
	}
}
