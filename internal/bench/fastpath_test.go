package bench

import (
	"reflect"
	"testing"

	"zion/internal/hart"
	"zion/internal/telemetry"
)

// runBothWays executes run once per engine — compiled trace and the slow
// reference interpreter — and fails unless the results — every simulated
// cycle count, score, and percentage in the paper tables — are
// bit-identical across both. This is the automated form of the trace
// engine's core guarantee: it is an accelerator, never a semantic change.
func runBothWays[T any](t *testing.T, name string, run func(hart.Engine) (T, error)) {
	t.Helper()
	engines := hart.Engines()
	var ref T
	for i, eng := range engines {
		got, err := run(eng)
		if err != nil {
			t.Fatalf("%s (%v): %v", name, eng, err)
		}
		if i == 0 {
			ref = got
			continue
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("%s: %v engine result differs from %v\n%v: %+v\n%v: %+v",
				name, eng, engines[0], engines[0], ref, eng, got)
		}
	}
}

func TestFastPathBitIdenticalMicro(t *testing.T) {
	runBothWays(t, "E1", func(e hart.Engine) (E1Result, error) { return RunE1(50, e) })
	runBothWays(t, "E2", func(e hart.Engine) (E2Result, error) { return RunE2(50, e) })
	runBothWays(t, "E3", func(e hart.Engine) (E3Result, error) { return RunE3(256, e) })
}

func TestFastPathBitIdenticalMacro(t *testing.T) {
	runBothWays(t, "T1", func(e hart.Engine) (T1Result, error) { return RunT1(16, e) })
	runBothWays(t, "E4", func(e hart.Engine) (E4Result, error) { return RunE4(16, e) })
	runBothWays(t, "F3", func(e hart.Engine) (F3Result, error) { return RunF3(3, e) })
}

func TestFastPathBitIdenticalF4(t *testing.T) {
	if testing.Short() {
		t.Skip("F4 sweep is slow")
	}
	runBothWays(t, "F4", func(e hart.Engine) (F4Result, error) { return RunF4(e) })
}

// Arming the telemetry sink must not change a single simulated number:
// fast-path counters are exported as gauges, never fed back into cycles.
func TestFastPathTelemetryOffBitIdentity(t *testing.T) {
	run := func(armed bool) (E2Result, error) {
		if armed {
			SetTelemetry(telemetry.New(telemetry.Config{}))
		}
		defer SetTelemetry(nil)
		return RunE2(50, hart.EngineTrace)
	}
	on, err := run(true)
	if err != nil {
		t.Fatalf("telemetry on: %v", err)
	}
	FlushTelemetry() // exercises the fp gauge export path too
	off, err := run(false)
	if err != nil {
		t.Fatalf("telemetry off: %v", err)
	}
	if !reflect.DeepEqual(on, off) {
		t.Errorf("telemetry changed results\non:  %+v\noff: %+v", on, off)
	}
}

func TestFastPathBitIdenticalAblations(t *testing.T) {
	runBothWays(t, "A1", func(e hart.Engine) (A1Result, error) { return RunA1(16, e) })
	runBothWays(t, "A2", func(e hart.Engine) (A2Result, error) { return RunA2(100, e) })
	runBothWays(t, "A3", func(e hart.Engine) (A3Result, error) { return RunA3(500, e) })
	runBothWays(t, "A4", func(e hart.Engine) (A4Result, error) { return RunA4(e) })
}
