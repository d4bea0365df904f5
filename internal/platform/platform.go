// Package platform assembles the simulated machine: harts, physical RAM,
// the CLINT timer, a UART, the IOPMP, and an MMIO bus. It also owns
// Advance, the one loop that moves a hart's instruction stream to its next
// trap or WFI and paces simulated time on the way. RunHart, the
// hypervisor's normal-VM loop and the Secure Monitor's CVM loop all call
// it, so a normal VM and a CVM on the same hart see the same pacing; the
// loops differ only in how they service the trap it returns.
package platform

import (
	"fmt"

	"zion/internal/hart"
	"zion/internal/iopmp"
	"zion/internal/isa"
	"zion/internal/mem"
	"zion/internal/telemetry"
)

// Physical memory map of the simulated SoC (matches common RISC-V virt
// platforms: CLINT low, UART at 0x1000_0000, DRAM from 2 GiB).
const (
	CLINTBase = 0x0200_0000
	CLINTSize = 0x0001_0000
	UARTBase  = 0x1000_0000
	UARTSize  = 0x100
	RAMBase   = 0x8000_0000
)

// MMIODevice is a device mapped on the physical bus.
type MMIODevice interface {
	// Range returns the device's physical window.
	Range() (base, size uint64)
	// Access performs a read (write=false) or write. The return value is
	// the loaded value for reads.
	Access(hartID int, offset uint64, size int, write bool, val uint64) uint64
}

// Machine is the simulated SoC.
type Machine struct {
	RAM   *mem.PhysMemory
	Harts []*hart.Hart
	CLINT *CLINT
	UART  *UART
	IOPMP *iopmp.Unit

	devices []MMIODevice

	// MHandler services the M-mode traps of RunHart, the bare-metal run
	// loop. It must leave the hart runnable (typically by preparing CSRs
	// and calling MRet) or return false to stop the loop. The Secure
	// Monitor and the hypervisor do not register here: they run guests
	// through their own loops over Advance.
	MHandler func(h *hart.Hart, t hart.Trap) bool

	// Flight is the machine's always-on black-box recorder: one bounded
	// ring of recent high-level events per hart (traps, world switches,
	// gate crossings, quantum barriers, fault injections). Created at
	// boot; each hart holds its own ring handle. Recording never touches
	// simulated state, so it cannot perturb bit-identity.
	Flight *telemetry.FlightRecorder

	// engine is non-nil while RunParallel drives the harts on their own
	// goroutines under the quantum barrier (engine.go). It is published
	// before the hart goroutines start and cleared after they join, so
	// hart-goroutine reads are ordered by goroutine create/join.
	engine *engine

	// lastEngine is the bookkeeping of the most recent completed
	// RunParallel (EngineStats accessor). Written after the hart
	// goroutines join, read from the caller's goroutine only.
	lastEngine EngineStats
}

// New builds a machine with the given hart count and RAM size.
func New(nharts int, ramSize uint64) *Machine {
	m := &Machine{
		RAM:   mem.NewPhysMemory(RAMBase, ramSize),
		IOPMP: iopmp.New(),
	}
	m.CLINT = NewCLINT(nharts)
	m.UART = &UART{}
	m.AddDevice(m.CLINT)
	m.AddDevice(m.UART)
	m.Flight = telemetry.NewFlightRecorder(nharts, 0)
	for i := 0; i < nharts; i++ {
		h := hart.New(i, m.RAM, (*busAdapter)(m))
		h.Flight = m.Flight.Ring(i)
		m.Harts = append(m.Harts, h)
	}
	// Reflect msip doorbell writes into the target hart's mip CSR. The
	// bus defers cross-hart writes to the target's quantum barrier, so
	// this always runs on the goroutine that owns the target hart.
	m.CLINT.onMSIP = func(hartID int, set bool) {
		if set {
			m.Harts[hartID].SetPending(isa.IntMSoft)
		} else {
			m.Harts[hartID].ClearPending(isa.IntMSoft)
		}
	}
	return m
}

// AddDevice maps a device on the bus.
func (m *Machine) AddDevice(d MMIODevice) { m.devices = append(m.devices, d) }

// busAdapter implements hart.Bus over the device list.
type busAdapter Machine

// Access implements hart.Bus. Under the parallel engine, a write that
// targets a *peer* hart's CLINT register (an IPI doorbell store or a
// cross-hart mtimecmp program) is not applied inline: it is posted to
// the target hart and applied at its next quantum-barrier release, which
// is what makes IPI delivery deterministic (engine.go).
func (b *busAdapter) Access(hartID int, pa uint64, size int, write bool, val uint64) (uint64, bool) {
	for _, d := range b.devices {
		base, dsz := d.Range()
		if pa >= base && pa+uint64(size) <= base+dsz {
			off := pa - base
			if write && d == MMIODevice(b.CLINT) {
				if e := (*Machine)(b).engine; e != nil {
					if target, ok := b.CLINT.targetHart(off); ok && target != hartID {
						e.post(hartID, target, func() {
							d.Access(hartID, off, size, write, val)
						})
						return 0, true
					}
				}
			}
			return d.Access(hartID, off, size, write, val), true
		}
	}
	return 0, false
}

// tickTimer refreshes the hart's machine-timer pending bit from the CLINT.
func (m *Machine) tickTimer(h *hart.Hart) {
	if m.CLINT.TimerPending(h.ID, h.Cycles) {
		h.SetPending(isa.IntMTimer)
	} else {
		h.ClearPending(isa.IntMTimer)
	}
}

// ErrUnhandledTrap reports a trap that RunHart has no handler for (any
// trap not targeting M, or an M trap with MHandler unset). The run loop
// stops and returns it instead of panicking: one VM's stray trap must not
// take down the whole platform.
var ErrUnhandledTrap = fmt.Errorf("platform: unhandled trap")

// Advance runs hart h for at most max instruction steps and stops at the
// first trap or WFI, which it returns with live=true. Every run loop paces
// simulated time through it:
//
//   - Under the parallel engine, the hart rendezvouses at the quantum
//     barrier (CheckYield) before each batch. A false return is global
//     halt (every hart idle): Advance returns live=false.
//   - RunBatch gets a fresh CLINT deadline sample every pass; it clamps
//     the deadline to the quantum edge itself. Between boundaries it
//     hoists the timer and interrupt checks under its event-horizon proof.
//   - When RunBatch declines (deadline reached, fetch miss, a device
//     access that may have rearmed the hart's own timer, or the slow
//     engine), one tick+Step refreshes MTIP and retires one instruction;
//     the next pass re-samples the deadline.
//
// With step non-nil RunBatch is skipped: step runs before every
// tick+Step, which paces the stream one instruction at a time for
// fault-injection hooks. An EvNone return with live=true means the budget
// ran out.
func (m *Machine) Advance(h *hart.Hart, max uint64, step func(*hart.Hart)) (uint64, hart.Event, bool) {
	var n uint64
	for n < max {
		if !h.CheckYield() {
			return n, hart.Event{}, false
		}
		var ev hart.Event
		batched := false
		if step == nil {
			dl, armed := m.CLINT.NextDeadline(h.ID)
			var k uint64
			k, ev, batched = h.RunBatch(dl, armed, max-n)
			n += k
		} else {
			step(h)
		}
		if !batched {
			if n >= max {
				break
			}
			m.tickTimer(h)
			ev = h.Step()
			n++
		}
		if ev.Kind != hart.EvNone {
			return n, ev, true
		}
	}
	return n, hart.Event{}, true
}

// WakeAtTimer is the WFI fast-forward: when hart h's timer is armed for a
// later cycle, it moves h's clock to that deadline, charges the wake-up
// cost and returns true, and the next Advance takes the timer interrupt.
// Idle simulated time is free. It returns false when no armed timer can
// wake the hart. The jump may cross quantum edges; under the parallel
// engine the next Advance's CheckYield then pays one barrier per quantum
// crossed.
func (m *Machine) WakeAtTimer(h *hart.Hart) bool {
	dl, ok := m.CLINT.NextDeadline(h.ID)
	if !ok || dl <= h.Cycles {
		return false
	}
	h.Cycles = dl
	h.Advance(h.Cost.WFIWake)
	return true
}

// RunHart runs hart i on bare metal until MHandler stops the loop or
// maxSteps instructions retire. It returns the number of steps executed
// and a non-nil error if a trap had no handler.
func (m *Machine) RunHart(i int, maxSteps uint64) (uint64, error) {
	h := m.Harts[i]
	var steps uint64
	for steps < maxSteps {
		n, ev, live := m.Advance(h, maxSteps-steps, nil)
		steps += n
		if !live {
			return steps, nil
		}
		switch ev.Kind {
		case hart.EvWFI:
			// Under the engine the hart idles at the barrier first, so a
			// peer's IPI can still wake it.
			if h.Yield != nil {
				if !m.parallelWFI(h) {
					return steps, nil // global halt: no peer will ever wake this hart
				}
				continue
			}
			if !m.WakeAtTimer(h) {
				return steps, nil // idle forever: nothing to wake the hart
			}
		case hart.EvTrap:
			t := ev.Trap
			if t.Target != isa.ModeM || m.MHandler == nil {
				return steps, fmt.Errorf("%w: %s to %v at pc=%#x",
					ErrUnhandledTrap, isa.CauseName(t.Cause), t.Target, t.PC)
			}
			if !m.MHandler(h, t) {
				return steps, nil
			}
		}
	}
	return steps, nil
}

// parallelWFI idles a hart under the quantum barrier until its own timer
// fires or a peer's cross-hart event (IPI doorbell, mtimecmp program)
// arrives at a barrier release. Unlike the sequential engine, an idle
// hart may not simply return "idle forever": it must keep participating
// in the rendezvous, both so the other harts are never blocked waiting
// for it and so a peer's MSIP write can still wake it — the idle-hart
// livelock this file's sequential exit would otherwise cause. Returns
// false only on global halt (every hart idle with no pending events),
// which is when "idle forever" becomes provably true machine-wide.
func (m *Machine) parallelWFI(h *hart.Hart) bool {
	for {
		dl, armed := m.CLINT.NextDeadline(h.ID)
		// The timer fires within this quantum: take the same virtual-time
		// jump the sequential engine takes.
		if armed && dl <= h.QuantumDeadline && m.WakeAtTimer(h) {
			return true
		}
		// A timer beyond the quantum still counts as progress; an armed-
		// but-already-fired comparator does not (were its interrupt
		// deliverable the hart would never have retired WFI), matching
		// the sequential engine's idle-forever verdict for that state.
		canProgress := armed && dl > h.Cycles
		if h.Cycles < h.QuantumDeadline {
			h.Cycles = h.QuantumDeadline // idle simulated time is free
		}
		if !h.Yield(!canProgress) {
			return false
		}
		// Barrier released: cross-hart ops have been applied. Re-sample
		// the timer and wake on any now-deliverable interrupt.
		m.tickTimer(h)
		if _, ok := h.PendingInterrupt(); ok {
			h.Advance(h.Cost.WFIWake)
			return true
		}
	}
}
