package hv

import (
	"fmt"

	"zion/internal/hart"
	"zion/internal/sm"
	"zion/internal/telemetry"
)

// Run enters one vCPU and returns its next exit: the vmentry is an FnRun
// ecall into the SM for a confidential VM (RunCVM) and an HS-mode entry
// for a normal one (RunNormalVCPU). Both report the same sm.ExitInfo
// reasons, so callers drive either kind through this one call.
func (k *Hypervisor) Run(h *hart.Hart, vm *VM, vcpu int) (sm.ExitInfo, error) {
	if vm.Confidential {
		return k.RunCVM(h, vm, vcpu)
	}
	return k.RunNormalVCPU(h, vm, vcpu)
}

// RunToShutdown runs one vCPU until its guest shuts down and returns the
// ExitShutdown info (guest a0/a1 in Data/Data2). It re-enters the vCPU
// after every quantum expiry, calling onTimer, when non-nil, after each.
// Any other exit is an error naming the VM and the vCPU.
func (k *Hypervisor) RunToShutdown(h *hart.Hart, vm *VM, vcpu int, onTimer func()) (sm.ExitInfo, error) {
	for {
		info, err := k.Run(h, vm, vcpu)
		switch {
		case err != nil:
			return info, fmt.Errorf("hv: %s/%d: %w", vm.Name, vcpu, err)
		case info.Reason == sm.ExitShutdown:
			return info, nil
		case info.Reason != sm.ExitTimer:
			return info, fmt.Errorf("hv: %s/%d: unexpected exit %v", vm.Name, vcpu, info.Reason)
		}
		if onTimer != nil {
			onTimer()
		}
	}
}

// Scheduler multiplexes many vCPUs — confidential and normal, mixed —
// over one hart with round-robin timeslicing, the role KVM's scheduler
// plays in the paper's setup. Confidential quanta are enforced by the SM
// (sm.Config.SchedQuantum); normal quanta by the hypervisor
// (Hypervisor.SchedQuantum).
type Scheduler struct {
	k     *Hypervisor
	queue []*schedEntry

	// DegradedRefusals counts confidential slices the SM refused with a
	// typed compartment-quarantine error (sm.CodeCompartment): the monitor
	// is running degraded and the scheduler retired the entry — the fleet
	// keeps running on the surviving compartments.
	DegradedRefusals uint64
}

type schedEntry struct {
	vm     *VM
	vcpu   int
	done   bool
	result sm.ExitInfo
	rounds uint64
	err    error
}

// VMResult reports one vCPU's completion.
type VMResult struct {
	VM     *VM
	VCPU   int
	Data   uint64 // guest a0 at shutdown
	Data2  uint64 // guest a1 at shutdown
	Rounds uint64 // scheduling rounds consumed
	// Err is non-nil when this vCPU's VM failed instead of shutting down
	// (fatal per-CVM fault, quarantine, a guest bug in a VM of either
	// kind). Co-resident VMs are unaffected: the scheduler degrades
	// per-VM, never per-fleet.
	Err error
}

// NewScheduler creates an empty run queue.
func (k *Hypervisor) NewScheduler() *Scheduler { return &Scheduler{k: k} }

// Add enqueues a vCPU.
func (s *Scheduler) Add(vm *VM, vcpu int) {
	s.queue = append(s.queue, &schedEntry{vm: vm, vcpu: vcpu})
}

// RunAll round-robins the queue on hart h until every vCPU has shut
// down, returning per-vCPU results in enqueue order.
func (s *Scheduler) RunAll(h *hart.Hart) ([]VMResult, error) {
	remaining := len(s.queue)
	for guard := 0; remaining > 0; guard++ {
		if guard > 1_000_000 {
			return nil, fmt.Errorf("hv: scheduler livelock with %d vCPUs left", remaining)
		}
		for _, e := range s.queue {
			if e.done {
				continue
			}
			e.rounds++
			sliceStart := h.Cycles
			info, err := s.k.Run(h, e.vm, e.vcpu)
			cvmID := telemetry.NoCVM
			if e.vm.Confidential {
				cvmID = e.vm.CVMID
			}
			s.k.Tel.Span(h.ID, "hv", "slice."+e.vm.Name, sliceStart, h.Cycles, cvmID, e.rounds)
			switch {
			case err != nil:
				// Graceful degradation: a fatal per-CVM fault (the SM
				// quarantined the CVM), a recoverable protocol error or a
				// normal guest's bug retires this entry; the rest of the
				// queue keeps running. Only platform-fatal failures abort
				// the fleet.
				e.err = fmt.Errorf("hv: %s/%d: %w", e.vm.Name, e.vcpu, err)
				smerr, ok := sm.AsSMError(err)
				if ok && smerr.Severity == sm.SevFatalPlatform {
					return nil, e.err
				}
				if ok && smerr.Code == sm.CodeCompartment {
					s.DegradedRefusals++
					s.k.Tel.Counter("hv/degraded_refusals").Inc()
				}
			case info.Reason == sm.ExitShutdown:
				e.result = info
			case info.Reason == sm.ExitTimer:
				continue // quantum expired: next entry's turn
			default:
				// A guest bug (undelegated exception, protocol abuse)
				// fails this VM, not the fleet.
				e.err = fmt.Errorf("hv: %s/%d: unexpected exit %v", e.vm.Name, e.vcpu, info.Reason)
			}
			e.done = true
			remaining--
		}
	}
	out := make([]VMResult, len(s.queue))
	for i, e := range s.queue {
		out[i] = VMResult{VM: e.vm, VCPU: e.vcpu, Data: e.result.Data,
			Data2: e.result.Data2, Rounds: e.rounds, Err: e.err}
	}
	return out, nil
}
