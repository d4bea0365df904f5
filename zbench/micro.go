package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"zion"
	"zion/internal/asm"
	"zion/internal/guest"
	"zion/internal/hart"
	"zion/internal/hv"
	"zion/internal/isa"
	"zion/internal/mem"
	"zion/internal/platform"
	"zion/internal/pmp"
	"zion/internal/ptw"
	"zion/internal/sm"
	"zion/internal/telemetry"
	"zion/internal/tlb"
	"zion/internal/virtio"
	wl "zion/internal/workloads"
)

// The layer microbenchmarks: warmed loops over each layer's public
// functions, timed from outside. Each reports the median ns per
// operation over microReps repetitions, after one untimed warm-up.
const microReps = 5

// sink keeps loop results live.
var sink uint64

// rep runs one repetition of a microbenchmark and returns the host time
// of its timed part and the number of operations that part covered.
type rep func() (time.Duration, float64, error)

// timedLoop is a repetition of n operations, timed whole.
func timedLoop(n int, fn func(n int) error) rep {
	return func() (time.Duration, float64, error) {
		t := time.Now()
		err := fn(n)
		return time.Since(t), float64(n), err
	}
}

// microBench runs fn once to warm up, then microReps times, and returns
// the median ns per operation, scaled to the reference host speed by
// probes around each repetition.
func microBench(tr *tracer, name string, fn rep) (float64, error) {
	tr.begin("micro."+name, 0)
	defer tr.end()
	per := make([]float64, 0, microReps)
	for i := 0; i <= microReps; i++ {
		before := hostProbe()
		d, ops, err := fn()
		if err != nil {
			return 0, fmt.Errorf("micro %s: %w", name, err)
		}
		probe := (before + hostProbe()) / 2
		if i > 0 {
			per = append(per, float64(d.Nanoseconds())/ops*float64(probeRef)/float64(probe))
		}
	}
	return median(per), nil
}

// microbenchmarks runs every layer microbenchmark. The results do not
// depend on the workload; each traced run measures them afresh.
func microbenchmarks(tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	type mb struct {
		name string
		fn   rep
	}
	var list []mb
	add := func(name string, fn rep) { list = append(list, mb{name, fn}) }

	// isa: decode the words of an assembled kernel image.
	img := wl.Program(wl.RV8()[0], 64)
	words := make([]uint32, len(img)/4)
	for i := range words {
		words[i] = binary.LittleEndian.Uint32(img[i*4:])
	}
	add("isa.decode_ns", timedLoop(200_000, func(n int) error {
		for i := 0; i < n; i++ {
			sink += uint64(isa.Decode(words[i%len(words)]).Op)
		}
		return nil
	}))

	// hart: per-instruction dispatch of a warm kernel in a normal VM with
	// no scheduler tick — the steady-state cost of the default engine.
	add("hart.dispatch_ns", dispatchRep())

	// tlb: lookups that hit, spread over every set.
	tl := tlb.NewDefault()
	for i := uint64(0); i < 64; i++ {
		tl.Insert(i<<12, 0x8000_0000+i<<12, isa.PTERead|isa.PTEWrite, 0, 1, 1)
	}
	add("tlb.lookup_ns", timedLoop(500_000, func(n int) error {
		for i := 0; i < n; i++ {
			ppn, _, _, _ := tl.Lookup(uint64(i%64)<<12, 1, 1)
			sink += ppn
		}
		return nil
	}))

	// ptw: nested VS-stage-1 plus G-stage walks over 4 KiB leaves.
	walk, err := newWalkBench()
	if err != nil {
		return nil, err
	}
	add("ptw.walk_ns", timedLoop(50_000, walk))

	// pmp: S-mode checks against the Secure Monitor's entry plan.
	pmpSys, err := zion.NewSystem(zion.Config{})
	if err != nil {
		return nil, err
	}
	unit := pmpSys.Machine.Harts[0].PMP
	add("pmp.check_ns", timedLoop(100_000, func(n int) error {
		for i := 0; i < n; i++ {
			if unit.Check(platform.RAMBase+0x0100_0000+uint64(i%4096)*64, 8, pmp.AccessRead, false) {
				sink++
			}
		}
		return nil
	}))

	// virtio: post, pop and push batches of 16 three-segment chains on a
	// blk queue; deliver frames into a net RX queue. guest: bounce-slot
	// allocation plus release (release scrubs the slot). All through the
	// GuestMem view of a CVM's shared window.
	k, h, blkVM, err := microCVM()
	if err != nil {
		return nil, err
	}
	vq := newQueueBench(k, h, blkVM)
	add("virtio.post_chain_ns", vq.phase(0))
	add("virtio.pop_batch_ns_per_chain", vq.phase(1))
	add("virtio.push_batch_ns_per_chain", vq.phase(2))
	pool := guest.NewBouncePool(vq.mem, guest.LayoutFor(true), 576)
	add("guest.bounce_ns", timedLoop(100_000, func(n int) error {
		for i := 0; i < n; i++ {
			slot, _, err := pool.Alloc()
			if err != nil {
				return err
			}
			if err := pool.Release(slot); err != nil {
				return err
			}
		}
		return nil
	}))
	// mem.copy: 4 KiB writes into the shared window, the copy the data
	// plane makes per payload.
	page := make([]byte, 4096)
	bounce := guest.LayoutFor(true).Bounce
	add("mem.copy_ns_per_kib", timedLoop(4*20_000, func(n int) error {
		for i := 0; i < n/4; i++ {
			if err := vq.mem.WriteBytes(bounce+uint64(i%64)*4096, page); err != nil {
				return err
			}
		}
		return nil
	}))
	k, h, netVM, err := microCVM()
	if err != nil {
		return nil, err
	}
	add("virtio.inject_ns", newInjectBench(k, h, netVM))

	// mem: 64-byte reads of simulated physical memory.
	pm := mem.NewPhysMemory(platform.RAMBase, 16<<20)
	if err := pm.Write(platform.RAMBase, make([]byte, 2<<20)); err != nil {
		return nil, err
	}
	line := make([]byte, 64)
	add("mem.read_ns", timedLoop(500_000, func(n int) error {
		for i := 0; i < n; i++ {
			if err := pm.ReadInto(platform.RAMBase+uint64(i%16384)*64, line); err != nil {
				return err
			}
		}
		return nil
	}))
	// telemetry: histogram observations of varied magnitudes.
	hist := telemetry.NewHistogram()
	add("telemetry.hist_observe_ns", timedLoop(300_000, func(n int) error {
		for i := 0; i < n; i++ {
			hist.Observe(uint64(i*2654435761) >> 40)
		}
		return nil
	}))

	// sm: hv.RunCVM host time per round trip, on a guest whose every
	// loop iteration exits on an emulated MMIO load; CVM creation.
	add("sm.roundtrip_ns", roundTripRep())
	add("sm.create_cvm_ms", createCVMRep())

	for _, m := range list {
		v, err := microBench(tr, m.name, m.fn)
		if err != nil {
			return nil, err
		}
		out[m.name] = v
	}
	out["sm.create_cvm_ms"] /= 1e6
	return out, nil
}

// dispatchRep runs a warm aes kernel in a normal VM on a fresh stack
// (no tick: one entry, one exit); the operations are its instructions.
func dispatchRep() rep {
	img := wl.Program(wl.RV8()[0], 8000)
	return func() (time.Duration, float64, error) {
		sys, err := zion.NewSystem(zion.Config{})
		if err != nil {
			return 0, 0, err
		}
		h := sys.Machine.Harts[0]
		vm, err := sys.Hypervisor.CreateNormalVM("dispatch", img, zion.GuestRAMBase)
		if err != nil {
			return 0, 0, err
		}
		t := time.Now()
		ex, err := sys.Hypervisor.RunNormalVCPU(h, vm, 0)
		d := time.Since(t)
		if err == nil && ex.Reason != sm.ExitShutdown {
			err = fmt.Errorf("dispatch guest: exit %v", ex.Reason)
		}
		return d, float64(h.Instret), err
	}
}

// mmioStub is an emulated device: reads return a value, writes store it.
type mmioStub struct{ val uint64 }

func (d *mmioStub) GPARange() (uint64, uint64)              { return 0x1000_0000, 0x1000 }
func (d *mmioStub) MMIORead(off uint64, _ int) uint64       { return d.val + off }
func (d *mmioStub) MMIOWrite(off uint64, _ int, val uint64) { d.val = val }

// roundTripRep times hv.RunCVM over a guest that loads from the stub
// device n times; the operations are the MMIO exits.
func roundTripRep() rep {
	const n = 4000
	p := asm.New(wl.GuestBase)
	p.LI(asm.T0, 0x1000_0000)
	p.LI(asm.S2, n)
	p.Label("loop")
	p.LD(asm.A0, asm.T0, 0)
	p.ADDI(asm.S2, asm.S2, -1)
	p.BNE(asm.S2, asm.Zero, "loop")
	p.LI(asm.A7, sm.EIDReset)
	p.ECALL()
	img := p.MustAssemble()
	return func() (time.Duration, float64, error) {
		sys, err := zion.NewSystem(zion.Config{})
		if err != nil {
			return 0, 0, err
		}
		k, h := sys.Hypervisor, sys.Machine.Harts[0]
		vm, err := k.CreateCVM(h, "roundtrip", img, zion.GuestRAMBase)
		if err != nil {
			return 0, 0, err
		}
		k.AttachDevice(vm, &mmioStub{})
		t := time.Now()
		info, err := k.RunCVM(h, vm, 0)
		d := time.Since(t)
		if err == nil && (info.Reason != sm.ExitShutdown || vm.Exits["mmio"] != n) {
			err = fmt.Errorf("roundtrip guest: exit %v after %d mmio exits", info.Reason, vm.Exits["mmio"])
		}
		return d, n, err
	}
}

// createCVMRep times one hv.CreateCVM (copy, measurement, page tables)
// of the kv server image on a fresh stack.
func createCVMRep() rep {
	img := wl.RedisServerProgramP(guest.LayoutFor(true), wl.RedisParams{StackWork: kvStackWork})
	return func() (time.Duration, float64, error) {
		sys, err := zion.NewSystem(zion.Config{})
		if err != nil {
			return 0, 0, err
		}
		t := time.Now()
		_, err = sys.Hypervisor.CreateCVM(sys.Machine.Harts[0], "create", img, zion.GuestRAMBase)
		return time.Since(t), 1, err
	}
}

// newWalkBench builds a VS-stage-1 table (64 pages) and a G-stage table
// identity-mapping everything the walk touches, all with 4 KiB leaves.
func newWalkBench() (func(n int) error, error) {
	const base = platform.RAMBase
	pm := mem.NewPhysMemory(base, 64<<20)
	next := uint64(base + 16<<20)
	b := &ptw.Builder{Mem: pm, Alloc: func() (uint64, error) {
		f := next
		next += isa.PageSize
		return f, nil
	}}
	// The G-stage root wants 16 KiB alignment: the first frames are.
	g, err := b.NewRoot(true)
	if err != nil {
		return nil, err
	}
	s1, err := b.NewRoot(false)
	if err != nil {
		return nil, err
	}
	const pages = 64
	for i := uint64(0); i < pages; i++ {
		if err := b.Map(s1, 0x4000_0000+i*isa.PageSize, base+i*isa.PageSize, isa.PTERead|isa.PTEWrite|isa.PTEAccess|isa.PTEDirty, 0, false); err != nil {
			return nil, err
		}
	}
	// Identity-map the data pages and the frames the stage-1 tables sit
	// in: a nested walk translates each stage-1 PTE address too.
	limit := next + 64*isa.PageSize
	g2 := func(pa uint64) error {
		return b.Map(g, pa, pa, isa.PTERead|isa.PTEWrite|isa.PTEUser|isa.PTEAccess|isa.PTEDirty, 0, true)
	}
	for i := uint64(0); i < pages; i++ {
		if err := g2(base + i*isa.PageSize); err != nil {
			return nil, err
		}
	}
	for pa := uint64(base + 16<<20); pa < limit; pa += isa.PageSize {
		if err := g2(pa); err != nil {
			return nil, err
		}
	}
	var st ptw.WalkStats
	w := &ptw.Walker{Mem: pm, Stats: &st}
	return func(n int) error {
		for i := 0; i < n; i++ {
			r, err := w.TranslateTwoStage(s1, g, 0x4000_0000+uint64(i%pages)*isa.PageSize, ptw.AccessRead, false)
			if err != nil {
				return err
			}
			sink += r.PA
		}
		return nil
	}, nil
}

// queueBench posts, pops and pushes batches of blk-shaped chains on a
// CVM's virtio-blk queue; each phase is timed on its own.
type queueBench struct {
	mem  virtio.MemIO
	q    *virtio.Queue
	drv  *virtio.DriverView
	segs []virtio.DriverSeg
	used []virtio.UsedElem
}

const queueBatch = 16

func newQueueBench(k *hv.Hypervisor, h *hart.Hart, vm *hv.VM) *queueBench {
	l := guest.LayoutFor(true)
	blk := guest.SetupBlkMQ(k, vm, h, 1<<20, 1, 64)
	m := blk.Dev().Mem()
	q := blk.Dev().Queue(0)
	qb := &queueBench{mem: m, q: q, drv: virtio.NewDriverView(q, m)}
	for i := uint64(0); i < 3; i++ {
		qb.segs = append(qb.segs, virtio.DriverSeg{GPA: l.Bounce + i*64, Len: 16, Writable: i > 0})
	}
	return qb
}

// cycle runs n/queueBatch batches, timing only the selected phase.
func (qb *queueBench) cycle(n int, phase int) (time.Duration, error) {
	var spent time.Duration
	for b := 0; b < n/queueBatch; b++ {
		t := time.Now()
		for i := 0; i < queueBatch; i++ {
			if _, err := qb.drv.PostChain(qb.segs); err != nil {
				return 0, err
			}
		}
		if phase == 0 {
			spent += time.Since(t)
		}
		t = time.Now()
		chains, err := qb.q.PopBatch(qb.mem, queueBatch)
		if err != nil {
			return 0, err
		}
		if phase == 1 {
			spent += time.Since(t)
		}
		qb.used = qb.used[:0]
		for _, c := range chains {
			qb.used = append(qb.used, virtio.UsedElem{Head: c.Head, Written: 1})
		}
		t = time.Now()
		if err := qb.q.PushBatch(qb.mem, qb.used); err != nil {
			return 0, err
		}
		if phase == 2 {
			spent += time.Since(t)
		}
		for {
			_, _, ok, err := qb.drv.PollUsed()
			if err != nil {
				return 0, err
			}
			if !ok {
				break
			}
		}
	}
	return spent, nil
}

// phase times one phase (0 post, 1 pop, 2 push) of 4,000 batches.
func (qb *queueBench) phase(p int) rep {
	const n = queueBatch * 4000
	return func() (time.Duration, float64, error) {
		d, err := qb.cycle(n, p)
		return d, n, err
	}
}

// newInjectBench delivers request frames into a CVM's virtio-net RX
// queue, with receive buffers posted (untimed) ahead of each batch.
func newInjectBench(k *hv.Hypervisor, h *hart.Hart, vm *hv.VM) rep {
	batch := guest.QueueSize
	l := guest.LayoutFor(true)
	net := guest.SetupNet(k, vm, h)
	drv := virtio.NewDriverView(net.Dev().Queue(virtio.NetRXQ), net.Dev().Mem())
	frame := wl.EncodeRedisRequest(wl.OpGET, 42, 0)
	bufs := make([][]virtio.DriverSeg, batch)
	for i := range bufs {
		bufs[i] = []virtio.DriverSeg{{GPA: l.Bounce + uint64(i)*64, Len: 64, Writable: true}}
	}
	const batches = 4000
	return func() (time.Duration, float64, error) {
		var spent time.Duration
		for b := 0; b < batches; b++ {
			for i := range bufs {
				if _, err := drv.PostChain(bufs[i]); err != nil {
					return 0, 0, err
				}
			}
			t := time.Now()
			for i := 0; i < batch; i++ {
				if err := net.Inject(frame); err != nil {
					return 0, 0, err
				}
			}
			spent += time.Since(t)
			for got := 0; got < batch; got++ {
				if _, _, ok, err := drv.PollUsed(); err != nil || !ok {
					return 0, 0, fmt.Errorf("inject: frame %d not delivered (%v)", got, err)
				}
			}
		}
		return spent, batches * float64(batch), nil
	}
}

// microCVM boots a stack with one idle CVM and its shared window: the
// device plane the virtio and bounce-pool microbenchmarks run on, through
// the hypervisor's GuestMem view as the real data plane does.
func microCVM() (*hv.Hypervisor, *hart.Hart, *hv.VM, error) {
	sys, err := zion.NewSystem(zion.Config{})
	if err != nil {
		return nil, nil, nil, err
	}
	k, h := sys.Hypervisor, sys.Machine.Harts[0]
	vm, err := k.CreateCVM(h, "micro", idleImage(), zion.GuestRAMBase)
	if err != nil {
		return nil, nil, nil, err
	}
	return k, h, vm, k.SetupSharedWindow(h, vm)
}
