package hv

import (
	"strings"
	"testing"

	"zion/internal/asm"
	"zion/internal/platform"
	"zion/internal/sm"
)

// spinImage busy-loops for `iters` decrements and reports `result`.
func spinImage(iters, result int64) []byte {
	p := asm.New(GuestRAMBase)
	p.LI(asm.T1, iters)
	p.Label("spin")
	p.ADDI(asm.T1, asm.T1, -1)
	p.BNE(asm.T1, asm.Zero, "spin")
	p.LI(asm.A0, result)
	p.LI(asm.A7, sm.EIDReset)
	p.ECALL()
	return p.MustAssemble()
}

func TestSchedulerMixedVMs(t *testing.T) {
	m := platform.New(1, ramSize)
	monitor, err := sm.New(m, sm.Config{SchedQuantum: 15_000})
	if err != nil {
		t.Fatal(err)
	}
	k := New(m, monitor, normBase, normSize)
	k.SchedQuantum = 15_000
	h := m.Harts[0]
	h.Mode = 1
	if err := k.RegisterSecurePool(h, 16<<20); err != nil {
		t.Fatal(err)
	}

	sched := k.NewScheduler()
	// Two confidential, one normal, different lengths.
	cvm1, err := k.CreateCVM(h, "c1", spinImage(80_000, 101), GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	cvm2, err := k.CreateCVM(h, "c2", spinImage(40_000, 102), GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	nvm, err := k.CreateNormalVM("n1", spinImage(60_000, 103), GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	sched.Add(cvm1, 0)
	sched.Add(cvm2, 0)
	sched.Add(nvm, 0)

	results, err := sched.RunAll(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	want := []uint64{101, 102, 103}
	for i, r := range results {
		if r.Data != want[i] {
			t.Errorf("vm %d result = %d, want %d", i, r.Data, want[i])
		}
		if r.Rounds < 2 {
			t.Errorf("vm %d rounds = %d; timeslicing did not interleave", i, r.Rounds)
		}
	}
	// The shorter CVM must have finished in fewer rounds than the longer.
	if results[1].Rounds >= results[0].Rounds {
		t.Errorf("c2 (%d rounds) should finish before c1 (%d rounds)",
			results[1].Rounds, results[0].Rounds)
	}
}

func TestSchedulerSingleVM(t *testing.T) {
	m := platform.New(1, ramSize)
	monitor, err := sm.New(m, sm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	k := New(m, monitor, normBase, normSize)
	h := m.Harts[0]
	h.Mode = 1
	if err := k.RegisterSecurePool(h, 8<<20); err != nil {
		t.Fatal(err)
	}
	vm, err := k.CreateCVM(h, "solo", spinImage(100, 7), GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	sched := k.NewScheduler()
	sched.Add(vm, 0)
	results, err := sched.RunAll(h)
	if err != nil || len(results) != 1 || results[0].Data != 7 {
		t.Fatalf("results=%v err=%v", results, err)
	}
}

func TestSchedulerEmpty(t *testing.T) {
	m := platform.New(1, ramSize)
	monitor, err := sm.New(m, sm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	k := New(m, monitor, normBase, normSize)
	sched := k.NewScheduler()
	results, err := sched.RunAll(m.Harts[0])
	if err != nil || len(results) != 0 {
		t.Fatalf("empty queue: %v %v", results, err)
	}
}

// A normal VM's guest bug retires that VM with VMResult.Err; the CVM and
// the healthy normal VM scheduled beside it still run to shutdown.
func TestSchedulerRetiresFaultingNormalVM(t *testing.T) {
	_, _, k, h := newStack(t, sm.Config{SchedQuantum: 15_000})
	k.SchedQuantum = 15_000
	cvm, err := k.CreateCVM(h, "c1", spinImage(40_000, 201), GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	// Spin across a few quanta, then load from a GPA below GuestRAMBase
	// that no device covers.
	bad := asm.New(GuestRAMBase)
	bad.LI(asm.T1, 20_000)
	bad.Label("spin")
	bad.ADDI(asm.T1, asm.T1, -1)
	bad.BNE(asm.T1, asm.Zero, "spin")
	bad.LI(asm.T0, 0x1000)
	bad.LD(asm.T2, asm.T0, 0)
	faulty, err := k.CreateNormalVM("n-bad", bad.MustAssemble(), GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := k.CreateNormalVM("n-ok", spinImage(40_000, 203), GuestRAMBase)
	if err != nil {
		t.Fatal(err)
	}
	sched := k.NewScheduler()
	sched.Add(cvm, 0)
	sched.Add(faulty, 0)
	sched.Add(healthy, 0)

	results, err := sched.RunAll(h)
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	for _, i := range []int{0, 2} {
		r := results[i]
		if r.Err != nil || r.Data != 201+uint64(i) {
			t.Errorf("%s: data %d err %v, want %d", r.VM.Name, r.Data, r.Err, 201+i)
		}
	}
	if err := results[1].Err; err == nil || !strings.Contains(err.Error(), "n-bad/0") ||
		!strings.Contains(err.Error(), "unmapped GPA") {
		t.Errorf("faulting VM err = %v, want its unmapped-GPA fault", err)
	}
}
