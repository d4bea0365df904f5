package zion

// Go benchmarks, one per table and figure of the paper's evaluation.
// Each benchmark reports the experiment's headline numbers as custom
// metrics (cycles, percent overhead) alongside the usual ns/op; the
// zionbench command prints the same results as paper-style tables.
//
//	BenchmarkE1SharedVCPU   §V.B.1  shared-vCPU world switch
//	BenchmarkE2ShortPath    §V.B.2  short-path vs long-path switch
//	BenchmarkE3PageFault    §V.C    stage-2 fault handling
//	BenchmarkT1RV8          Table I RV8 suite overhead
//	BenchmarkE4Coremark     §V.D    CoreMark-like score
//	BenchmarkF3Redis        Fig. 3  Redis-like throughput/latency
//	BenchmarkF4IOZone       Fig. 4  IOZone-like sweep
//	BenchmarkA1Scalability  ablation: concurrency vs region designs
//	BenchmarkA2SplitPT      ablation: split-PT vs synchronized sharing
//	BenchmarkA3Allocator    ablation: hierarchical allocator stages

import (
	"testing"

	"zion/internal/bench"
	"zion/internal/hart"
)

func BenchmarkE1SharedVCPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunE1(200, hart.EngineTrace)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.EntryShared, "entry-cycles")
		b.ReportMetric(r.ExitShared, "exit-cycles")
		b.ReportMetric(r.EntryNoShared, "entry-cycles-noshared")
		b.ReportMetric(r.ExitNoShared, "exit-cycles-noshared")
	}
}

func BenchmarkE2ShortPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunE2(200, hart.EngineTrace)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.EntryShort, "entry-cycles")
		b.ReportMetric(r.ExitShort, "exit-cycles")
		b.ReportMetric(r.EntryLong, "entry-cycles-longpath")
		b.ReportMetric(r.ExitLong, "exit-cycles-longpath")
	}
}

func BenchmarkE3PageFault(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunE3(1536, hart.EngineTrace)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.NormalVM, "normal-cycles")
		b.ReportMetric(r.Stage1, "cvm-stage1-cycles")
		b.ReportMetric(r.Stage2, "cvm-stage2-cycles")
		b.ReportMetric(r.Stage3, "cvm-stage3-cycles")
		b.ReportMetric(r.CVMAverage, "cvm-avg-cycles")
	}
}

func BenchmarkT1RV8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunT1(4, hart.EngineTrace)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Average, "avg-overhead-%")
		for _, row := range r.Rows {
			b.ReportMetric(row.OverheadP, row.Name+"-overhead-%")
		}
	}
}

func BenchmarkE4Coremark(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunE4(4, hart.EngineTrace)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.NormalScore, "normal-score")
		b.ReportMetric(r.CVMScore, "cvm-score")
		b.ReportMetric(r.DropP, "drop-%")
	}
}

func BenchmarkF3Redis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunF3(20, hart.EngineTrace)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgTputDropP, "tput-drop-%")
		b.ReportMetric(r.AvgLatIncreaseP, "lat-increase-%")
	}
}

func BenchmarkF4IOZone(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunF4(hart.EngineTrace)
		if err != nil {
			b.Fatal(err)
		}
		// Report the two endpoints of the paper's claim: the smallest and
		// the largest file in the sweep.
		first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
		b.ReportMetric(-first.OverheadP, "small-file-overhead-%")
		b.ReportMetric(-last.OverheadP, "large-file-overhead-%")
	}
}

func BenchmarkA1Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunA1(32, hart.EngineTrace)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.RegionMax), "region-max-enclaves")
		b.ReportMetric(float64(r.ZionReached), "zion-concurrent-cvms")
	}
}

func BenchmarkA2SplitPT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunA2(1000, hart.EngineTrace)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.SyncCycles)/float64(r.Updates), "sync-cycles/update")
		b.ReportMetric(float64(r.SplitCycles)/float64(r.Updates), "split-cycles/update")
	}
}

func BenchmarkA3Allocator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunA3(2000, hart.EngineTrace)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Stage1Pct, "stage1-hit-%")
		b.ReportMetric(r.Stage1Cyc, "stage1-cycles")
		b.ReportMetric(r.Stage2Cyc, "stage2-cycles")
	}
}

func BenchmarkA4EntryRevalidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunA4(hart.EngineTrace)
		if err != nil {
			b.Fatal(err)
		}
		last := r.Rows[len(r.Rows)-1]
		b.ReportMetric(last.EntryPlain, "entry-cycles")
		b.ReportMetric(last.EntryChecked, "entry-cycles-revalidated")
	}
}
