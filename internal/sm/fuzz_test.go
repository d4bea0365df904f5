package sm

import (
	"errors"
	"testing"
)

// FuzzCheckAfterLoad tampers with one Check-after-Load field of a pending
// MMIO read exit — shvSeq, ExitReason, TargetReg or Width, picked by
// field — by XORing delta into it. Any change must fail the resume with
// ErrTampered, bump TamperDetected once, and quarantine the CVM. A zero
// delta is the control: the exit is intact and the guest must resume to
// shutdown with nothing detected.
func FuzzCheckAfterLoad(f *testing.F) {
	fields := [...]uint64{shvSeq, shvExitReason, shvTargetReg, shvWidth}
	f.Fuzz(func(t *testing.T, field uint8, delta uint64) {
		fx := pendingMMIORead(t)
		pa := sharedPA + fields[int(field)%len(fields)]
		v, err := fx.m.RAM.ReadUint64(pa)
		if err != nil {
			t.Fatal(err)
		}
		if err := fx.m.RAM.WriteUint64(pa, v^delta); err != nil {
			t.Fatal(err)
		}
		info, err := fx.s.RunVCPU(fx.h, fx.id, 0)
		if delta == 0 {
			if err != nil || info.Reason != ExitShutdown || fx.s.Stats.TamperDetected != 0 {
				t.Fatalf("untouched exit: reason %v, err %v, %d tampers detected",
					info.Reason, err, fx.s.Stats.TamperDetected)
			}
			return
		}
		if !errors.Is(err, ErrTampered) {
			t.Fatalf("field %#x ^ %#x: err = %v, want ErrTampered", pa-sharedPA, delta, err)
		}
		if fx.s.Stats.TamperDetected != 1 {
			t.Errorf("TamperDetected = %d, want 1", fx.s.Stats.TamperDetected)
		}
		rec, ok := fx.s.Quarantined(fx.id)
		if !ok || !errors.Is(rec.Cause, ErrTampered) {
			t.Fatalf("CVM not quarantined for tampering: ok=%v cause=%v", ok, rec.Cause)
		}
		if _, err := fx.s.RunVCPU(fx.h, fx.id, 0); !errors.Is(err, ErrQuarantined) {
			t.Errorf("run after tamper: %v, want ErrQuarantined", err)
		}
	})
}
