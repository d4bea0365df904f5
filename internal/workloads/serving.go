package workloads

import (
	"encoding/binary"
	"fmt"
	"time"

	"zion/internal/asm"
	"zion/internal/guest"
	"zion/internal/hart"
	"zion/internal/hv"
	"zion/internal/sm"
	"zion/internal/telemetry"
	"zion/internal/virtio"
)

// The sustained-serving load generator: many concurrent CVMs, each with
// a multi-queue virtio-blk device, driven to millions of requests. The
// generator plays the guest driver's role from the host side (posting
// descriptor chains through each CVM's shared-window GuestMem with a Go
// DriverView), while every architectural cost the interpreted driver
// would pay — world-switch pads for doorbell and interrupt traps, MMIO
// emulation, per-copy cache-line charges, bounce-slot scrubbing — is
// charged to the hart's simulated-cycle counter explicitly. That keeps
// request counts in the millions tractable (the interpreted path tops
// out around 10^4 requests/minute of host time) while preserving the
// quantities the benchmark exists to measure: exits per request, bytes
// bounced per request, and cycle-domain p50/p99 latency. Runs are
// deterministic: a seeded splitmix64 drives the op mix and every cost is
// simulated-cycle-domain, so identical configs produce bit-identical
// cycle counts and histograms.

// ServingConfig tunes the sustained-serving run.
type ServingConfig struct {
	// CVMs is the number of concurrent confidential VMs (>= 1).
	CVMs int
	// Queues is the number of blk queues per CVM (1..guest.MaxQueues).
	Queues int
	// QueueSize is the ring depth per queue.
	QueueSize uint16
	// Requests is the total request count across all CVMs.
	Requests uint64
	// Depth is the number of requests kept in flight per queue.
	Depth int
	// ReqBytes is the payload size per request (rounded up to a whole
	// number of 512-byte sectors).
	ReqBytes int
	// Coalesce is the interrupt-coalescing threshold (completions per
	// IRQ; <= 1 fires per notify, the unbatched baseline behavior).
	Coalesce int
	// CoalesceTimeout bounds IRQ latency in simulated cycles (0 = none).
	CoalesceTimeout uint64
	// Seed drives the deterministic op mix.
	Seed uint64
	// DiskBytes is the per-CVM disk capacity (0 = 8 MiB).
	DiskBytes uint64
}

// ServingStats is the result of one serving run.
type ServingStats struct {
	Requests   uint64 `json:"requests"`
	Reads      uint64 `json:"reads"`
	Writes     uint64 `json:"writes"`
	BytesMoved uint64 `json:"bytes_moved"`
	Cycles     uint64 `json:"simulated_cycles"`

	// Exit accounting: how many full CVM world switches the run charged.
	DoorbellExits uint64 `json:"doorbell_exits"`
	IRQAckExits   uint64 `json:"irq_ack_exits"`

	// Device-side coalescing observables (summed over devices).
	IRQsFired      uint64 `json:"irqs_fired"`
	IRQsSuppressed uint64 `json:"irqs_suppressed"`

	// Bounce-pool pressure (max over CVMs).
	PoolHWM   int `json:"pool_hwm"`
	PoolSlots int `json:"pool_slots"`

	// Latency in simulated cycles, from the telemetry histogram.
	Hist *telemetry.Histogram `json:"-"`
	P50  uint64               `json:"p50_cycles"`
	P99  uint64               `json:"p99_cycles"`
	Mean float64              `json:"mean_cycles"`

	// HostSeconds is wall time for the run — informational only, never
	// part of any fingerprint.
	HostSeconds float64 `json:"host_seconds,omitempty"`
}

// reqMeta tracks one in-flight request, indexed by head descriptor.
type reqMeta struct {
	slot  int
	start uint64
	write bool
	gpa   uint64
}

// servVM is the per-CVM serving state.
type servVM struct {
	vm           *hv.VM
	blk          *virtio.Blk
	mem          virtio.MemIO
	drv          []*virtio.DriverView
	pool         *guest.BouncePool
	meta         [][]reqMeta // [queue][head]
	outst        []int       // in-flight per queue
	rng          uint64
	issued, done uint64
	quota        uint64
	lastFired    uint64
}

// splitmix64 is the deterministic mix generator.
func splitmix64(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// idleImage is the minimal valid CVM image: the guest shuts down
// immediately. The serving generator never runs the vCPU — it drives the
// device plane directly and charges the would-be trap costs explicitly.
func idleImage() []byte {
	p := asm.New(GuestBase)
	p.LI(asm.A7, sm.EIDReset)
	p.ECALL()
	return p.MustAssemble()
}

// slot layout: header at +0, status at +16, payload at +64.
const (
	servHdrOff    = 0
	servStatusOff = 16
	servDataOff   = 64
)

// RunServing drives cfg.Requests block requests across cfg.CVMs
// confidential VMs on hypervisor k / hart h and reports latency through
// a telemetry histogram (registered on sc as "serving/latency_cycles"
// when sc is non-nil).
func RunServing(k *hv.Hypervisor, h *hart.Hart, sc *telemetry.Scope, cfg ServingConfig) (*ServingStats, error) {
	if cfg.CVMs < 1 {
		cfg.CVMs = 1
	}
	if cfg.Queues < 1 {
		cfg.Queues = 1
	}
	if cfg.Queues > guest.MaxQueues {
		cfg.Queues = guest.MaxQueues
	}
	if cfg.QueueSize == 0 {
		cfg.QueueSize = 64
	}
	// Each chain occupies 3 descriptor slots until the device's
	// synchronous Notify consumes them; a batch posted before one doorbell
	// must fit the ring. A ring without room for one chain would clamp the
	// depth to zero and the round loop would spin without posting.
	if cfg.QueueSize < 3 {
		return nil, fmt.Errorf("serving: queue size %d cannot hold one 3-descriptor chain", cfg.QueueSize)
	}
	if cfg.Depth < 1 {
		cfg.Depth = 1
	}
	if cfg.Depth > int(cfg.QueueSize)/3 {
		cfg.Depth = int(cfg.QueueSize) / 3
	}
	if cfg.ReqBytes <= 0 {
		cfg.ReqBytes = virtio.SectorSize
	}
	// Whole sectors, so disk reads/writes stay aligned.
	cfg.ReqBytes = (cfg.ReqBytes + virtio.SectorSize - 1) / virtio.SectorSize * virtio.SectorSize
	if cfg.DiskBytes == 0 {
		cfg.DiskBytes = 8 << 20
	}
	if cfg.Requests == 0 {
		cfg.Requests = 1
	}

	// Per-request exit cost: one full CVM world switch plus the MMIO
	// decode/emulation path (doorbell trap or interrupt-ack trap).
	exitCost := h.Cost.CVMExitPad + h.Cost.MMIODecode + h.Cost.HVExitHandle +
		h.Cost.HVMMIOEmul + h.Cost.CVMEntryPad

	slotSize := uint64(servDataOff + cfg.ReqBytes)
	// Round to cache lines so slot scrub charges are uniform.
	slotSize = (slotSize + 63) / 64 * 64

	hist := telemetry.NewHistogram()
	if sc != nil {
		sc.RegisterHistogram("serving/latency_cycles", hist)
	}

	img := idleImage()
	vms := make([]*servVM, cfg.CVMs)
	nsec := uint64(cfg.ReqBytes / virtio.SectorSize)
	if cfg.DiskBytes/virtio.SectorSize <= nsec {
		return nil, fmt.Errorf("serving: disk (%d B) smaller than one request (%d B)", cfg.DiskBytes, cfg.ReqBytes)
	}
	maxSector := cfg.DiskBytes/virtio.SectorSize - nsec
	// The pool must cover the full in-flight window or the post loop
	// would spin without progress on an empty free list.
	if slots := int((guest.LayoutFor(true).BounceSize) / slotSize); cfg.Queues*cfg.Depth > slots {
		cfg.Depth = slots / cfg.Queues
		if cfg.Depth < 1 {
			return nil, fmt.Errorf("serving: request size %d leaves no bounce slots for %d queues", cfg.ReqBytes, cfg.Queues)
		}
	}
	for i := range vms {
		vm, err := k.CreateCVM(h, fmt.Sprintf("serv%d", i), img, hv.GuestRAMBase)
		if err != nil {
			return nil, fmt.Errorf("serving: cvm %d: %w", i, err)
		}
		if err := k.SetupSharedWindow(h, vm); err != nil {
			return nil, fmt.Errorf("serving: cvm %d window: %w", i, err)
		}
		blk := guest.SetupBlkMQ(k, vm, h, cfg.DiskBytes, cfg.Queues, cfg.QueueSize)
		blk.Dev().SetTelemetry(sc)
		blk.Dev().SetCoalesce(virtio.CoalesceConfig{
			MaxPend: cfg.Coalesce,
			Timeout: cfg.CoalesceTimeout,
		}, func() uint64 { return h.Cycles })
		mem := blk.Dev().Mem()
		l := guest.LayoutFor(true)
		pool := guest.NewBouncePool(mem, l, slotSize)
		pool.SetTelemetry(sc)
		sv := &servVM{
			vm: vm, blk: blk, mem: mem, pool: pool,
			drv:   make([]*virtio.DriverView, cfg.Queues),
			meta:  make([][]reqMeta, cfg.Queues),
			outst: make([]int, cfg.Queues),
			rng:   cfg.Seed*0x9E3779B9 + uint64(i)*0xABCD1234 + 1,
		}
		for q := 0; q < cfg.Queues; q++ {
			sv.drv[q] = virtio.NewDriverView(blk.Dev().Queue(q), mem)
			sv.meta[q] = make([]reqMeta, cfg.QueueSize)
		}
		vms[i] = sv
	}
	// Deterministic quota split: remainder goes to the first CVMs.
	per := cfg.Requests / uint64(cfg.CVMs)
	rem := cfg.Requests % uint64(cfg.CVMs)
	for i, sv := range vms {
		sv.quota = per
		if uint64(i) < rem {
			sv.quota++
		}
	}

	stats := &ServingStats{Hist: hist, PoolSlots: vms[0].pool.Slots()}
	payload := make([]byte, cfg.ReqBytes)
	for i := range payload {
		payload[i] = byte(i*7 + 13)
	}
	var hdr [16]byte
	var stByte [1]byte
	segs := make([]virtio.DriverSeg, 3)
	start := h.Cycles
	t0 := time.Now()

	active := len(vms)
	for active > 0 {
		active = 0
		for _, sv := range vms {
			if sv.done == sv.quota {
				continue
			}
			active++
			// Post phase: top up every queue to Depth.
			for q := 0; q < cfg.Queues; q++ {
				posted := 0
				for sv.outst[q] < cfg.Depth && sv.issued < sv.quota {
					slot, gpa, err := sv.pool.Alloc()
					if err != nil {
						break // pool pressure: back off, retry next round
					}
					r := splitmix64(&sv.rng)
					isWrite := r%10 < 3 // 30% writes, 70% reads
					sector := (r >> 8) % maxSector
					typ := uint32(virtio.BlkTIn)
					if isWrite {
						typ = virtio.BlkTOut
					}
					binary.LittleEndian.PutUint32(hdr[0:4], typ)
					binary.LittleEndian.PutUint64(hdr[8:16], sector)
					startCycle := h.Cycles
					if err := sv.mem.WriteBytes(gpa+servHdrOff, hdr[:]); err != nil {
						return nil, err
					}
					if isWrite {
						// Guest-side bounce: copy the payload into the
						// shared window (charged through MemIO).
						if err := sv.mem.WriteBytes(gpa+servDataOff, payload); err != nil {
							return nil, err
						}
					}
					segs[0] = virtio.DriverSeg{GPA: gpa + servHdrOff, Len: 16}
					segs[1] = virtio.DriverSeg{GPA: gpa + servDataOff, Len: uint32(cfg.ReqBytes), Writable: !isWrite}
					segs[2] = virtio.DriverSeg{GPA: gpa + servStatusOff, Len: 1, Writable: true}
					head, err := sv.drv[q].PostChain(segs)
					if err != nil {
						return nil, err
					}
					sv.meta[q][head] = reqMeta{slot: slot, start: startCycle, write: isWrite, gpa: gpa}
					sv.issued++
					sv.outst[q]++
					posted++
				}
				if posted > 0 {
					// One doorbell per queue per round: the trap the
					// batched driver actually takes.
					h.Advance(exitCost)
					stats.DoorbellExits++
					sv.blk.Dev().MMIOWrite(virtio.NotifyOffset(), 4, uint64(q))
					if err := sv.blk.Dev().LastErr; err != nil {
						return nil, fmt.Errorf("serving: device reset: %w", err)
					}
				}
			}
			// The cycle clock advanced during processing: a timed-out
			// coalesced interrupt fires now.
			sv.blk.Dev().PollCoalesce()
			// Completion phase: reap, measure, scrub, release.
			for q := 0; q < cfg.Queues; q++ {
				for {
					head, _, ok, err := sv.drv[q].PollUsed()
					if err != nil {
						return nil, err
					}
					if !ok {
						break
					}
					m := &sv.meta[q][head]
					if err := sv.mem.ReadInto(m.gpa+servStatusOff, stByte[:]); err != nil {
						return nil, err
					}
					if stByte[0] != virtio.BlkSOK {
						return nil, fmt.Errorf("serving: request failed with status %d", stByte[0])
					}
					if m.write {
						stats.Writes++
					} else {
						// Guest-side bounce back out of the shared window.
						if err := sv.mem.ReadInto(m.gpa+servDataOff, payload); err != nil {
							return nil, err
						}
						stats.Reads++
					}
					stats.BytesMoved += uint64(cfg.ReqBytes)
					hist.Observe(h.Cycles - m.start)
					if err := sv.pool.Release(m.slot); err != nil {
						return nil, err
					}
					sv.outst[q]--
					sv.done++
				}
			}
			// Interrupt delivery: each fired IRQ costs the guest one
			// trap-in/trap-out plus the ISR's ack store.
			if fired := sv.blk.Dev().IRQsFired; fired > sv.lastFired {
				for ; sv.lastFired < fired; sv.lastFired++ {
					h.Advance(exitCost)
					stats.IRQAckExits++
					sv.blk.Dev().MMIOWrite(virtio.IntACKOffset(), 4, 1)
				}
			}
			if sv.done == sv.quota {
				sv.blk.Dev().FlushCoalesced()
				if fired := sv.blk.Dev().IRQsFired; fired > sv.lastFired {
					for ; sv.lastFired < fired; sv.lastFired++ {
						h.Advance(exitCost)
						stats.IRQAckExits++
						sv.blk.Dev().MMIOWrite(virtio.IntACKOffset(), 4, 1)
					}
				}
				active--
			}
		}
		if active == 0 {
			break
		}
	}

	stats.Cycles = h.Cycles - start
	stats.HostSeconds = time.Since(t0).Seconds()
	for _, sv := range vms {
		stats.Requests += sv.done
		stats.IRQsFired += sv.blk.Dev().IRQsFired
		stats.IRQsSuppressed += sv.blk.Dev().IRQsSuppressed
		if sv.pool.HWM > stats.PoolHWM {
			stats.PoolHWM = sv.pool.HWM
		}
		if sv.pool.InUse() != 0 {
			return nil, fmt.Errorf("serving: %d bounce slots leaked", sv.pool.InUse())
		}
	}
	stats.P50 = hist.Quantile(0.50)
	stats.P99 = hist.Quantile(0.99)
	stats.Mean = hist.Mean()
	return stats, nil
}
