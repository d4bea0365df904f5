package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"zion"
	"zion/internal/virtio"
	wl "zion/internal/workloads"
)

// A kv round whose expected responses come from the mirror passes; one
// whose expectation is corrupted counts exactly that request as failed.
func TestKVWrongResponseCountsAsFailure(t *testing.T) {
	reqs := kvStream(7, 300)
	rs, err := kvRound(nil, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rs.attempted != len(reqs) || rs.failed != 0 {
		t.Fatalf("clean round: attempted %d failed %d", rs.attempted, rs.failed)
	}
	reqs[123].value ^= 1
	rs, err = kvRound(nil, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rs.failed != 1 {
		t.Fatalf("corrupted expectation: failed %d, want 1", rs.failed)
	}
}

func TestKVMirrorSemantics(t *testing.T) {
	m := kvMirror{}
	steps := []struct {
		op       wl.RedisOp
		key, val uint64
		st       byte
		want     uint64
	}{
		{wl.OpGET, 5, 0, 1, 0},
		{wl.OpINCR, 5, 0, 1, 0},
		{wl.OpEXISTS, 5, 0, 0, 0},
		{wl.OpLPUSH, 5, 9, 0, 9},
		{wl.OpLPUSH, 5, 1, 0, 10},
		{wl.OpSADD, 5, 3, 0, 0},
		{wl.OpSET, 5, 40, 0, 40},
		{wl.OpINCR, 5, 0, 0, 41},
		{wl.OpGET, 5, 0, 0, 41},
		{wl.OpEXISTS, 5, 0, 0, 1},
		{wl.OpSADD, 6, 3, 0, 3},
	}
	for i, s := range steps {
		st, v := m.apply(s.op, s.key, s.val)
		if st != s.st || v != s.want {
			t.Errorf("step %d: got (%d, %d), want (%d, %d)", i, st, v, s.st, s.want)
		}
	}
	frame := []byte{0, 0, 0, 0, 0, 0, 0, 0, 41, 0, 0, 0, 0, 0, 0, 0}
	if !kvResponseOK(frame, 0, 41) || kvResponseOK(frame, 0, 42) || kvResponseOK(frame[:8], 0, 41) {
		t.Error("kvResponseOK misjudges a response frame")
	}
}

func TestCorruptedSectorCounts(t *testing.T) {
	pat := blkPattern()
	disk := make([]byte, 4*len(pat))
	copy(disk[len(pat):], pat)
	written := map[uint64]bool{1: true}
	if n := badSectors(disk, pat, written); n != 0 {
		t.Fatalf("clean disk: %d bad sectors", n)
	}
	disk[len(pat)+100] ^= 0xFF // corrupt the written sector
	if n := badSectors(disk, pat, written); n != 1 {
		t.Fatalf("corrupted sector: %d bad, want 1", n)
	}
	disk[len(pat)+100] ^= 0xFF
	copy(disk[3*len(pat):], pat) // pattern where nothing was written
	if n := badSectors(disk, pat, written); n != 1 {
		t.Fatalf("stray write: %d bad, want 1", n)
	}
	if n := badSectors(disk, pat, nil); n != 0 {
		t.Fatalf("pattern-or-zero check without a write set: %d bad", n)
	}
}

// The verification burst over the real data plane finds nothing wrong.
func TestBlkPlaneVerifies(t *testing.T) {
	sys, err := zion.NewSystem(zion.Config{})
	if err != nil {
		t.Fatal(err)
	}
	att, bad, err := verifyBlkPlane(sys, 3)
	if err != nil {
		t.Fatal(err)
	}
	if att == 0 || bad != 0 {
		t.Fatalf("attempted %d failed %d", att, bad)
	}
	if virtio.SectorSize != len(blkPattern()) {
		t.Fatal("pattern is not one sector")
	}
}

func TestFingerprintMismatchCounts(t *testing.T) {
	var tl tally
	a := newRound()
	a.fp.add("hart0.cycles", 100)
	b := newRound()
	b.fp.add("hart0.cycles", 100)
	c := newRound()
	c.fp.add("hart0.cycles", 101)
	d := newRound()
	d.fp.add("hart0.cycles", 100)
	d.fp.add("exit.mmio", 1)
	for _, rs := range []*roundStats{a, b, c, d} {
		tl.add(rs, io.Discard)
	}
	if tl.failed != 2 {
		t.Fatalf("failed %d, want 2 (one changed value, one extra key)", tl.failed)
	}
}

func TestBadMetricNameCounts(t *testing.T) {
	m := map[string]metric{
		"lat_p50_us": {}, "sm.ws_entry_p50_cycles": {}, "self_ms.hv.run-cvm": {},
		"bad name": {}, "bad/name": {}, "": {},
	}
	if n := badMetricNames(m, io.Discard); n != 3 {
		t.Fatalf("bad names %d, want 3", n)
	}
}

// Every round of a seed repeats its fingerprint.
func TestComputeRoundsRepeat(t *testing.T) {
	k := wl.RV8()[0]
	runs := []kernelRun{{k: k, scale: 64, want: k.Mirror(64)}}
	var tl tally
	for i := 0; i < 3; i++ {
		rs, err := computeRound(nil, runs)
		if err != nil {
			t.Fatal(err)
		}
		tl.add(rs, io.Discard)
	}
	if tl.failed != 0 || tl.attempted != 6 {
		t.Fatalf("attempted %d failed %d", tl.attempted, tl.failed)
	}
}

// The untraced run emits exactly BENCHMARK.json's end-to-end metrics and
// the traced run exactly its per-layer metrics, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct{ Name, Unit string }
	var doc struct {
		EndToEnd []spec `json:"end_to_end"`
		PerLayer []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, want []spec, got map[string]metric) {
		if len(want) != len(got) {
			t.Errorf("%s: %d metrics emitted, BENCHMARK.json lists %d", kind, len(got), len(want))
		}
		for _, s := range want {
			if m, ok := got[s.Name]; !ok || m.Unit != s.Unit {
				t.Errorf("%s: %s emitted as %+v (present %v), want unit %q", kind, s.Name, m, ok, s.Unit)
			}
		}
	}
	t.Setenv("ZBENCH_OUT", t.TempDir())
	w := &workloads[2] // blk-serving: the shortest rounds
	fn, err := w.prepare(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := measure(io.Discard, fn, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	same("end_to_end", doc.EndToEnd, res.Metrics)
	res, err = traced(io.Discard, w, 1, fn, time.Millisecond, "{}")
	if err != nil {
		t.Fatal(err)
	}
	same("per_layer", doc.PerLayer, res.Metrics)
	if res.Failed != 0 {
		t.Errorf("traced run: %d failed", res.Failed)
	}
}

func TestLatHistQuantiles(t *testing.T) {
	var h latHist
	for us := 1; us <= 1000; us++ {
		h.observe(time.Duration(us) * time.Microsecond)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.9, 900}, {0.99, 990}} {
		if got := h.quantileUS(c.q); got < c.want*0.998 || got > c.want*1.002 {
			t.Errorf("q%.2f = %.3f µs, want %.0f within 0.2%%", c.q, got, c.want)
		}
	}
	rs := newRound()
	rs.probe = 2 * probeRef // a host at half the reference speed
	if s := rs.hostScale(); s != 0.5 {
		t.Errorf("hostScale = %v, want 0.5", s)
	}
}
