package hv

import (
	"strings"
	"testing"

	"zion/internal/asm"
	"zion/internal/sm"
)

const runQuantum = 15_000

// sumImage reports 1+2+…+n in a0: long enough, for n in the tens of
// thousands, to span several scheduler quanta.
func sumImage(n int64) []byte {
	return guestProgram(func(p *asm.Program) {
		p.LI(asm.T1, n)
		p.LI(asm.A0, 0)
		p.Label("sum")
		p.ADD(asm.A0, asm.A0, asm.T1)
		p.ADDI(asm.T1, asm.T1, -1)
		p.BNE(asm.T1, asm.Zero, "sum")
	})
}

// runStack boots a stack whose CVM and normal-VM quanta are both
// runQuantum and creates one VM of the given kind from img.
func runStack(t *testing.T, confidential bool, img []byte) (*Hypervisor, *VM) {
	t.Helper()
	_, _, k, h := newStack(t, sm.Config{SchedQuantum: runQuantum})
	k.SchedQuantum = runQuantum
	var vm *VM
	var err error
	if confidential {
		vm, err = k.CreateCVM(h, "cvm", img, GuestRAMBase)
	} else {
		vm, err = k.CreateNormalVM("nvm", img, GuestRAMBase)
	}
	if err != nil {
		t.Fatal(err)
	}
	return k, vm
}

// RunToShutdown returns the guest's result and calls onTimer once per
// ExitTimer, exactly as often as a hand-written Run loop on a twin stack
// sees one, on both VM kinds.
func TestRunToShutdownMatchesRunLoop(t *testing.T) {
	const n = 20_000
	for _, confidential := range []bool{false, true} {
		k, vm := runStack(t, confidential, sumImage(n))
		h := k.M.Harts[0]
		ticks := 0
		info, err := k.RunToShutdown(h, vm, 0, func() { ticks++ })
		if err != nil {
			t.Fatalf("%s: %v", vm.Name, err)
		}
		if info.Reason != sm.ExitShutdown || info.Data != n*(n+1)/2 {
			t.Errorf("%s: exit %v data %d, want shutdown with %d", vm.Name, info.Reason, info.Data, n*(n+1)/2)
		}

		tk, tvm := runStack(t, confidential, sumImage(n))
		th := tk.M.Harts[0]
		timerExits := 0
		for {
			tinfo, err := tk.Run(th, tvm, 0)
			if err != nil {
				t.Fatalf("%s twin: %v", vm.Name, err)
			}
			if tinfo.Reason == sm.ExitShutdown {
				break
			}
			if tinfo.Reason != sm.ExitTimer {
				t.Fatalf("%s twin: exit %v", vm.Name, tinfo.Reason)
			}
			timerExits++
		}
		if timerExits < 2 {
			t.Errorf("%s: %d timer exits; the guest did not span several quanta", vm.Name, timerExits)
		}
		if ticks != timerExits {
			t.Errorf("%s: onTimer fired %d times, the Run loop saw %d timer exits", vm.Name, ticks, timerExits)
		}
		if h.Cycles != th.Cycles {
			t.Errorf("%s: %d cycles, twin %d", vm.Name, h.Cycles, th.Cycles)
		}
	}
}

// A guest that dies on an illegal instruction ends RunToShutdown with
// ExitError and an error naming the VM, on both VM kinds.
func TestRunToShutdownErrorNamesVM(t *testing.T) {
	img := guestProgram(func(p *asm.Program) {
		p.DW(0xFFFFFFFF) // not a valid instruction
	})
	for _, confidential := range []bool{false, true} {
		k, vm := runStack(t, confidential, img)
		info, err := k.RunToShutdown(k.M.Harts[0], vm, 0, nil)
		if err == nil {
			t.Fatalf("%s: no error", vm.Name)
		}
		if info.Reason != sm.ExitError {
			t.Errorf("%s: exit %v, want %v", vm.Name, info.Reason, sm.ExitError)
		}
		if !strings.Contains(err.Error(), vm.Name+"/0") {
			t.Errorf("%s: error %q does not name the VM", vm.Name, err)
		}
	}
}
