package bench

import (
	"testing"

	"zion/internal/hart"
)

func TestE1ShapeMatchesPaper(t *testing.T) {
	r, err := RunE1(200, hart.EngineTrace)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("E1: entry %0.f -> %0.f, exit %0.f -> %0.f",
		r.EntryNoShared, r.EntryShared, r.ExitNoShared, r.ExitShared)
	// Paper: entry 5293 -> 4191 (-20.8%), exit 3267 -> 2524 (-22.7%).
	if r.EntryShared >= r.EntryNoShared {
		t.Error("shared vCPU must reduce entry cost")
	}
	if r.ExitShared >= r.ExitNoShared {
		t.Error("shared vCPU must reduce exit cost")
	}
	entryImp := pct(r.EntryNoShared, r.EntryShared)
	exitImp := pct(r.ExitNoShared, r.ExitShared)
	if entryImp > -10 || entryImp < -35 {
		t.Errorf("entry improvement %.1f%%, paper -20.8%%", entryImp)
	}
	if exitImp > -10 || exitImp < -40 {
		t.Errorf("exit improvement %.1f%%, paper -22.7%%", exitImp)
	}
}

func TestE2ShapeMatchesPaper(t *testing.T) {
	r, err := RunE2(200, hart.EngineTrace)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("E2: entry %0.f -> %0.f, exit %0.f -> %0.f",
		r.EntryLong, r.EntryShort, r.ExitLong, r.ExitShort)
	// Paper: entry 7282 -> 4028 (-44.7%), exit 5384 -> 2406 (-55.3%).
	entryImp := pct(r.EntryLong, r.EntryShort)
	exitImp := pct(r.ExitLong, r.ExitShort)
	if entryImp > -30 || entryImp < -60 {
		t.Errorf("entry improvement %.1f%%, paper -44.7%%", entryImp)
	}
	if exitImp > -35 || exitImp < -70 {
		t.Errorf("exit improvement %.1f%%, paper -55.3%%", exitImp)
	}
	// Absolute numbers should land near the paper's.
	within := func(got, want float64) bool { return got > want*0.7 && got < want*1.3 }
	if !within(r.EntryShort, 4028) || !within(r.ExitShort, 2406) {
		t.Errorf("short path entry/exit = %.0f/%.0f, paper 4028/2406", r.EntryShort, r.ExitShort)
	}
	if !within(r.EntryLong, 7282) || !within(r.ExitLong, 5384) {
		t.Errorf("long path entry/exit = %.0f/%.0f, paper 7282/5384", r.EntryLong, r.ExitLong)
	}
}

func TestE3ShapeMatchesPaper(t *testing.T) {
	r, err := RunE3(1536, hart.EngineTrace)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("E3: normal %0.f, s1 %0.f, s2 %0.f, s3 %0.f, avg %0.f (faults %d)",
		r.NormalVM, r.Stage1, r.Stage2, r.Stage3, r.CVMAverage, r.Faults)
	// Paper: normal 39607; CVM s1 31103, s2 34729, s3 57152, avg 31449.
	if !(r.Stage1 < r.Stage2 && r.Stage2 < r.NormalVM && r.NormalVM < r.Stage3) {
		t.Errorf("ordering wrong: want s1 < s2 < normal < s3")
	}
	if r.CVMAverage >= r.NormalVM {
		t.Error("CVM average fault time should beat the KVM path")
	}
	within := func(got, want float64) bool { return got > want*0.75 && got < want*1.25 }
	if !within(r.NormalVM, 39607) {
		t.Errorf("normal VM fault = %.0f, paper 39607", r.NormalVM)
	}
	if !within(r.Stage1, 31103) || !within(r.Stage2, 34729) || !within(r.Stage3, 57152) {
		t.Errorf("stages = %.0f/%.0f/%.0f, paper 31103/34729/57152", r.Stage1, r.Stage2, r.Stage3)
	}
}
