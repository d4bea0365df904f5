package bench

import (
	"testing"

	"zion/internal/hart"
)

// Fast smoke variants of the macro experiments: they verify the harness
// plumbing end-to-end (both VM kinds boot, run, self-measure, and report)
// without asserting the paper's percentages, which only emerge at full
// scale (see the shape tests for E1-E3 and zionbench for the rest).

func TestT1HarnessRuns(t *testing.T) {
	r, err := RunT1(16, hart.EngineTrace)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.NormalVM == 0 || row.CVM == 0 {
			t.Errorf("%s: zero cycles", row.Name)
		}
	}
	if got := r.Format(); len(got) != 10 {
		t.Errorf("Format lines = %d", len(got))
	}
}

func TestE4HarnessRuns(t *testing.T) {
	r, err := RunE4(16, hart.EngineTrace)
	if err != nil {
		t.Fatal(err)
	}
	if r.NormalScore <= 0 || r.CVMScore <= 0 {
		t.Errorf("scores: %v / %v", r.NormalScore, r.CVMScore)
	}
	if len(r.Rows()) != 2 {
		t.Error("Rows should render two lines")
	}
}

func TestF3HarnessRuns(t *testing.T) {
	r, err := RunF3(3, hart.EngineTrace)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("ops = %d, want 5", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.NormalOPS <= 0 || row.CVMOPS <= 0 {
			t.Errorf("%s: zero throughput", row.Op)
		}
		if row.NormalLatMs <= 0 || row.CVMLatMs <= 0 {
			t.Errorf("%s: zero latency", row.Op)
		}
	}
	// The CVM-above-normal latency ordering only stabilizes once warm-up
	// requests amortize (first requests fault the rings in); zionbench
	// asserts it at full request counts.
}

func TestA1A2A3HarnessesRun(t *testing.T) {
	a1, err := RunA1(16, hart.EngineTrace)
	if err != nil {
		t.Fatal(err)
	}
	if a1.RegionMax != 13 {
		t.Errorf("region max = %d, want the paper's 13", a1.RegionMax)
	}
	if a1.ZionReached != 16 {
		t.Errorf("zion reached = %d/16", a1.ZionReached)
	}

	a2, err := RunA2(100, hart.EngineTrace)
	if err != nil {
		t.Fatal(err)
	}
	if a2.SyncCycles <= a2.SplitCycles*10 {
		t.Errorf("sync %d vs split %d: expected >10x gap", a2.SyncCycles, a2.SplitCycles)
	}

	a3, err := RunA3(500, hart.EngineTrace)
	if err != nil {
		t.Fatal(err)
	}
	if a3.Stage1Pct < 90 {
		t.Errorf("stage-1 hit rate %.1f%%, want >90%%", a3.Stage1Pct)
	}
	for _, lines := range [][]string{a1.Rows(), a2.Rows(), a3.Rows()} {
		if len(lines) == 0 {
			t.Error("empty render")
		}
	}
}
