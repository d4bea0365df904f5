package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

// TestProfilerOffIsNil: with ProfilePeriod 0 (or a nil scope) Profiler
// returns nil, so the hart-side hook stays one nil-check — the same
// contract every other telemetry surface honours.
func TestProfilerOffIsNil(t *testing.T) {
	sink := New(Config{})
	if p := sink.Scope().Profiler(0); p != nil {
		t.Error("unarmed sink minted a profiler")
	}
	var sc *Scope
	if p := sc.Profiler(0); p != nil {
		t.Error("nil scope minted a profiler")
	}
	var np *HartProfiler
	np.Flush(100) // nil profiler must be inert
}

// TestProfilerCursorSumsExactly: the delta-charging cursor makes the
// per-hart matrix total equal the final flushed cycle count exactly, no
// matter where the samples landed.
func TestProfilerCursorSumsExactly(t *testing.T) {
	sink := New(Config{ProfilePeriod: 100})
	sc := sink.Scope()
	p := sc.Profiler(0)
	if p == nil {
		t.Fatal("armed sink returned nil profiler")
	}
	// Irregular sample spacing (events delay samples past Next in real
	// runs); a world switch mid-stream moves the CVM attribution.
	p.Sample(0x1000, "HS", ProfTierSlow, 137)
	sc.AttrSwitch(0, 137, 3, AttrGuest)
	p.Sample(0x2000, "VS", ProfTierTrace, 450)
	p.Sample(0x2004, "VS", ProfTierTrace, 900)
	sc.AttrSwitch(0, 900, NoCVM, AttrHost)
	p.Flush(1234)

	var total uint64
	cells := sink.ProfileMatrix()
	for _, c := range cells {
		total += c.Cycles
	}
	if total != 1234 {
		t.Errorf("matrix total = %d, want exact final cycle 1234 (cells %+v)", total, cells)
	}
	// The guest share is the exactly-charged [137,900) window.
	var guest uint64
	for _, c := range cells {
		if c.CVM == 3 {
			guest += c.Cycles
		}
	}
	if guest != 900-137 {
		t.Errorf("guest cycles = %d, want %d", guest, 900-137)
	}
}

// TestFoldedProfileExport: the export is sorted, carries the frame
// hierarchy scope;hart;cvm;mode;tier;pc, and is byte-stable across
// identical sample sequences.
func TestFoldedProfileExport(t *testing.T) {
	build := func() *Sink {
		sink := New(Config{ProfilePeriod: 64})
		sc := sink.Scope()
		p := sc.Profiler(2)
		p.Sample(0x80000000, "HS", ProfTierSlow, 64)
		sc.AttrSwitch(2, 64, 1, AttrGuest)
		p.Sample(0x80000100, "VS", ProfTierTrace, 128)
		p.Sample(0x80000100, "VS", ProfTierTrace, 192)
		return sink
	}
	var a, b bytes.Buffer
	build().ExportFoldedProfile(&a)
	build().ExportFoldedProfile(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical sample sequences exported different folded profiles")
	}
	out := a.String()
	for _, want := range []string{
		"p0;hart2;host;HS;slow;pc=0x80000000 64",
		"p0;hart2;cvm1;VS;trace;pc=0x80000100 128",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("folded export missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i-1] > lines[i] {
			t.Errorf("export not sorted: %q before %q", lines[i-1], lines[i])
		}
	}
	// A nil sink exports nothing rather than panicking.
	var nilSink *Sink
	var buf bytes.Buffer
	nilSink.ExportFoldedProfile(&buf)
	if buf.Len() != 0 {
		t.Error("nil sink exported profile data")
	}
}

// TestAttrFlushFlushesProfiler: AttrFlush settles both tables to the same
// cycle, which is what makes the matrix total provably equal the
// attribution HartTotal.
func TestAttrFlushFlushesProfiler(t *testing.T) {
	sink := New(Config{ProfilePeriod: 100})
	sc := sink.Scope()
	p := sc.Profiler(0)
	p.Sample(0x1000, "HS", ProfTierSlow, 100)
	sc.AttrFlush(0, 5000)

	_, totals := sink.Attr.Rows()
	var attr uint64
	for _, tot := range totals {
		attr += tot.Cycles
	}
	var mat uint64
	for _, c := range sink.ProfileMatrix() {
		mat += c.Cycles
	}
	if attr != mat || mat != 5000 {
		t.Errorf("attribution total %d vs profile matrix total %d, want both 5000", attr, mat)
	}
}
