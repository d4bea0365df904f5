package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"time"

	"zion"
	"zion/internal/asm"
	"zion/internal/guest"
	"zion/internal/hart"
	"zion/internal/hv"
	"zion/internal/isa"
	"zion/internal/platform"
	"zion/internal/sm"
	"zion/internal/virtio"
	wl "zion/internal/workloads"
)

// tickQuantum is the guest OS tick of the RV8 runs: the paper's 100 Hz
// tick scaled with the kernels (EXPERIMENTS.md, T1).
const tickQuantum = 220_000

// Workload sizes. A round is one fresh stack; a run repeats rounds until
// its time is spent, so each size keeps a round near a second of host
// time and a run collects enough rounds for stable medians.
const (
	computeScaleDiv = 4      // RV8 and CoreMark at a quarter of the Table I scale
	kvRequests      = 20_000 // requests per kv-exits round
	kvKeys          = 512    // distinct keys: half the server's 1024-bucket table
	kvStackWork     = 30     // protocol loop per request, in place of the calibrated 30,000
	blkRequests     = 4096   // requests per RunServing call: 16 times the 256 in flight
	smpScaleDiv     = 2
)

// paperOverheadPct is Table I's CVM overhead per kernel, and the
// CoreMark score change of §V.D.
var paperOverheadPct = map[string]float64{
	"aes": 2.95, "bigint": 2.73, "dhrystone": 2.90, "miniz": 1.92,
	"norx": 2.79, "primes": 1.81, "qsort": 2.65, "sha512": 2.93,
	"coremark": -2.77,
}

// paperWSCycles is §V.B.1's shared-vCPU world switch, entry plus exit.
const paperWSCycles = 4191 + 2524

// collect adds a system's simulated state to the round: the fingerprint
// (instret, cycles, exits by kind, world-switch histogram counts and
// sums) and the per-layer counts.
func collect(rs *roundStats, sys *zion.System, vms []*hv.VM) {
	c := rs.counts
	for _, h := range sys.Machine.Harts {
		rs.fp.add(fmt.Sprintf("hart%d.instret", h.ID), h.Instret)
		rs.fp.add(fmt.Sprintf("hart%d.cycles", h.ID), h.Cycles)
		for _, t := range h.TrapMix() {
			rs.fp.add(fmt.Sprintf("hart%d.trap.%s", h.ID, t.Name), t.Count)
		}
		c["sim.instret"] += float64(h.Instret)
		c["sim.cycles"] += float64(h.Cycles)
		fs := h.FastPathStats()
		c["hart.tc_ops"] += float64(fs.TCOps)
		c["hart.tc_bailouts"] += float64(fs.TCBailouts)
		c["hart.tc_compiles"] += float64(fs.TCCompiles)
		c["hart.sb_horizon_cutoffs"] += float64(fs.HorizonCutoffs)
		c["hart.fetch_hits"] += float64(fs.FetchHits)
		c["hart.fetch_misses"] += float64(fs.FetchMisses)
		ts := h.TLB.Stats()
		c["tlb.hits"] += float64(ts.Hits)
		c["tlb.misses"] += float64(ts.Misses)
		c["tlb.flushes"] += float64(ts.Flushes)
		c["pmp.checks"] += float64(h.PMP.Stats().Checks)
		c["ptw.walks"] += float64(h.WalkStats.Walks)
		c["ptw.steps"] += float64(h.WalkStats.Steps)
	}
	st := &sys.Monitor.Stats
	c["sm.entries"] += float64(st.Entries)
	c["sm.exits"] += float64(st.Exits)
	rs.fp.add("sm.entry.count", st.Entry.Count())
	rs.fp.add("sm.entry.sum", st.Entry.Sum())
	rs.fp.add("sm.exit.count", st.Exit.Count())
	rs.fp.add("sm.exit.sum", st.Exit.Sum())
	// The world-switch p50s come from the stack with the most entries.
	if n := float64(st.Entry.Count()); n > 0 && n >= c["sm.ws_samples"] {
		c["sm.ws_samples"] = n
		c["sm.ws_entry_p50_cycles"] = float64(st.Entry.Quantile(0.5))
		c["sm.ws_exit_p50_cycles"] = float64(st.Exit.Quantile(0.5))
	}
	c["hv.s2fault_hv"] += float64(sys.Hypervisor.S2FaultCount)
	for _, vm := range vms {
		for kind, n := range vm.Exits {
			rs.fp.add("exit."+kind, n)
			c["hv.exits."+kind] += float64(n)
		}
	}
}

// runToShutdown drives a VM on hart h until it shuts down, re-entering
// across scheduler ticks. It returns the guest's a0 and a1. Its latency
// samples are the steady tick slices: run calls that end on a tick, after
// the VM's first call (cold: trace compiles, demand faults).
func runToShutdown(tr *tracer, rs *roundStats, k *hv.Hypervisor, h *hart.Hart, vm *hv.VM) (uint64, uint64, error) {
	for call := 0; ; call++ {
		var reason sm.ExitReason
		var a0, a1 uint64
		var err error
		t := time.Now()
		if vm.Confidential {
			tr.begin("hv.run_cvm", 0)
			var info sm.ExitInfo
			info, err = k.RunCVM(h, vm, 0)
			tr.end()
			reason, a0, a1 = info.Reason, info.Data, info.Data2
		} else {
			tr.begin("hv.run_normal", 0)
			var ex hv.NormalExit
			ex, err = k.RunNormalVCPU(h, vm, 0)
			tr.end()
			reason, a0, a1 = ex.Reason, ex.Data, ex.Data2
		}
		d := time.Since(t)
		rs.counts["hv.run_calls"]++
		if err != nil {
			return 0, 0, err
		}
		switch reason {
		case sm.ExitShutdown:
			return a0, a1, nil
		case sm.ExitTimer:
			if call > 0 {
				rs.lat = append(rs.lat, d)
			}
		default:
			return 0, 0, fmt.Errorf("%s: unexpected exit %v", vm.Name, reason)
		}
	}
}

func newRound() *roundStats {
	return &roundStats{fp: fingerprint{}, counts: counts{}}
}

// --- compute -------------------------------------------------------------

type kernelRun struct {
	k     wl.Kernel
	scale int
	want  uint64 // the Go mirror's checksum
}

// prepareCompute orders the eight RV8 kernels and CoreMark by the seed
// and perturbs each scale by up to ±2%.
func prepareCompute(seed uint64) (roundFunc, error) {
	r := rng(seed)
	ks := append(wl.RV8(), wl.Coremark())
	var runs []kernelRun
	for _, i := range r.perm(len(ks)) {
		k := ks[i]
		scale := k.DefaultScale / computeScaleDiv
		scale += scale * (r.intn(5) - 2) / 100
		runs = append(runs, kernelRun{k: k, scale: scale, want: k.Mirror(scale)})
	}
	return func(tr *tracer) (*roundStats, error) {
		return computeRound(tr, runs)
	}, nil
}

func computeRound(tr *tracer, runs []kernelRun) (*roundStats, error) {
	rs := newRound()
	type job struct {
		sys *zion.System
		vm  *hv.VM
		run *kernelRun
	}
	var jobs []job
	t0 := time.Now()
	for i := range runs {
		run := &runs[i]
		tr.begin("setup.assemble", 0)
		img := wl.Program(run.k, run.scale)
		tr.end()
		for _, conf := range []bool{false, true} {
			tr.begin("setup.new_system", 0)
			sys, err := zion.NewSystem(zion.Config{SchedQuantum: tickQuantum})
			tr.end()
			if err != nil {
				return nil, err
			}
			h := sys.Machine.Harts[0]
			var vm *hv.VM
			if conf {
				tr.begin("setup.create_cvm", 0)
				vm, err = sys.Hypervisor.CreateCVM(h, run.k.Name, img, zion.GuestRAMBase)
			} else {
				tr.begin("setup.create_vm", 0)
				vm, err = sys.Hypervisor.CreateNormalVM(run.k.Name, img, zion.GuestRAMBase)
			}
			tr.end()
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, job{sys, vm, run})
		}
	}
	rs.setup = time.Since(t0)

	measured := map[string][2]float64{} // kernel -> guest-timed cycles (normal, cvm)
	t1 := time.Now()
	for _, j := range jobs {
		h := j.sys.Machine.Harts[0]
		cyc, sum, err := runToShutdown(tr, rs, j.sys.Hypervisor, h, j.vm)
		if err != nil {
			return nil, err
		}
		rs.check(sum == j.run.want, "%s (confidential=%v) checksum %#x, mirror %#x", j.run.k.Name, j.vm.Confidential, sum, j.run.want)
		m := measured[j.run.k.Name]
		if j.vm.Confidential {
			m[1] = float64(cyc)
		} else {
			m[0] = float64(cyc)
		}
		measured[j.run.k.Name] = m
	}
	rs.run = time.Since(t1)

	for _, j := range jobs {
		collect(rs, j.sys, []*hv.VM{j.vm})
	}
	rs.work = rs.counts["sim.instret"]
	// Fidelity: mean absolute distance, in percentage points, from the
	// paper's per-kernel CVM overhead (CoreMark: score change).
	var dev float64
	for _, run := range runs {
		m := measured[run.k.Name]
		got := (m[1] - m[0]) / m[0] * 100
		if run.k.Name == "coremark" {
			got = (m[0]/m[1] - 1) * 100
		}
		dev += math.Abs(got - paperOverheadPct[run.k.Name])
	}
	rs.counts["sim.model_err_pct"] = dev / float64(len(runs))
	return rs, nil
}

// --- kv-exits ------------------------------------------------------------

type kvReq struct {
	frame  []byte
	status byte
	value  uint64
}

// prepareKV draws the kv-exits request stream from the seed.
func prepareKV(seed uint64) (roundFunc, error) {
	reqs := kvStream(seed, kvRequests)
	return func(tr *tracer) (*roundStats, error) {
		return kvRound(tr, reqs)
	}, nil
}

// kvStream draws n requests, about half writes (SET/INCR/LPUSH/SADD) and
// half reads (GET/EXISTS) over kvKeys keys, each with the response the
// Go mirror expects.
func kvStream(seed uint64, n int) []kvReq {
	r := rng(seed)
	keys := make([]uint64, kvKeys)
	seen := map[uint64]bool{0: true} // key 0 marks an empty bucket
	for i := range keys {
		k := r.next()
		for seen[k] {
			k = r.next()
		}
		seen[k] = true
		keys[i] = k
	}
	mix := []wl.RedisOp{
		wl.OpGET, wl.OpGET, wl.OpGET, wl.OpEXISTS, wl.OpEXISTS,
		wl.OpSET, wl.OpSET, wl.OpINCR, wl.OpLPUSH, wl.OpSADD,
	}
	mirror := kvMirror{}
	reqs := make([]kvReq, n)
	for i := range reqs {
		op := mix[r.intn(len(mix))]
		key := keys[r.intn(len(keys))]
		val := r.next() >> 16
		st, v := mirror.apply(op, key, val)
		reqs[i] = kvReq{frame: wl.EncodeRedisRequest(op, key, val), status: st, value: v}
	}
	return reqs
}

func kvRound(tr *tracer, reqs []kvReq) (*roundStats, error) {
	rs := newRound()
	t0 := time.Now()
	tr.begin("setup.assemble", 0)
	img := wl.RedisServerProgramP(guest.LayoutFor(true), wl.RedisParams{StackWork: kvStackWork})
	tr.end()
	tr.begin("setup.new_system", 0)
	sys, err := zion.NewSystem(zion.Config{})
	tr.end()
	if err != nil {
		return nil, err
	}
	k, h := sys.Hypervisor, sys.Machine.Harts[0]
	tr.begin("setup.create_cvm", 0)
	vm, err := k.CreateCVM(h, "kv", img, zion.GuestRAMBase)
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("setup.shared_window", 0)
	err = k.SetupSharedWindow(h, vm)
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("setup.attach_device", 0)
	net := guest.SetupNet(k, vm, h)
	tr.end()
	rs.setup = time.Since(t0)

	var resp []byte
	var tap time.Time
	got := false
	net.Tap = func(f []byte) {
		tr.begin("virtio.tap", 0)
		tap = time.Now()
		resp = append(resp[:0], f...)
		got = true
		tr.end()
	}
	// Boot until the server parks awaiting its first request.
	tr.begin("setup.boot", 0)
	_, err = k.RunCVM(h, vm, 0)
	tr.end()
	if err != nil {
		return nil, err
	}
	rs.lat = make([]time.Duration, 0, len(reqs))
	c0 := h.Cycles
	t1 := time.Now()
	for i := range reqs {
		q := &reqs[i]
		tr.begin("kv.request", int64(i+1))
		got = false
		s := time.Now()
		tr.begin("virtio.inject", 0)
		err := net.Inject(q.frame)
		tr.end()
		for tries := 0; err == nil && !got; tries++ {
			if tries == 100 {
				err = fmt.Errorf("request %d: no response after 100 runs", i)
				break
			}
			tr.begin("hv.run_cvm", 0)
			_, err = k.RunCVM(h, vm, 0)
			tr.end()
			rs.counts["hv.run_calls"]++
		}
		tr.end()
		if err != nil {
			return nil, err
		}
		rs.lat = append(rs.lat, tap.Sub(s))
		rs.check(kvResponseOK(resp, q.status, q.value), "kv request %d: response %x, mirror status %d value %d", i, resp, q.status, q.value)
	}
	rs.run = time.Since(t1)
	rs.work = float64(len(reqs))
	rs.counts["kv.sim_cycles_per_req"] = float64(h.Cycles-c0) / float64(len(reqs))
	rs.counts["virtio.injects"] = float64(len(reqs))
	collect(rs, sys, []*hv.VM{vm})
	rs.counts["virtio.doorbells"] = rs.counts["hv.exits.mmio"]
	rs.counts["virtio.irqs_fired"] = float64(net.Dev().IRQsFired)
	rs.counts["virtio.irqs_suppressed"] = float64(net.Dev().IRQsSuppressed)
	rs.fp.add("net.irqs_fired", net.Dev().IRQsFired)
	ws := float64(sys.Monitor.Stats.Entry.Quantile(0.5) + sys.Monitor.Stats.Exit.Quantile(0.5))
	rs.counts["sim.model_err_pct"] = math.Abs(ws-paperWSCycles) / paperWSCycles * 100
	return rs, nil
}

// --- blk-serving ---------------------------------------------------------

// s1Config is the S1 serving geometry: 8 CVMs x 2 queues, depth 16 (256
// requests in flight), 16 completions per interrupt, 512-byte requests,
// a 70/30 read/write mix drawn from the seed. The disks are 1 MiB instead
// of the default 8 MiB: no simulated number changes, and allocating the
// smaller disks keeps RunServing's set-up short enough for a run to make
// ~1,500 calls, each one latency sample.
func s1Config(seed uint64) wl.ServingConfig {
	return wl.ServingConfig{
		CVMs: 8, Queues: 2, QueueSize: 64, Depth: 16,
		Requests: blkRequests, ReqBytes: 512,
		Coalesce: 16, CoalesceTimeout: 2_000_000,
		Seed: seed, DiskBytes: 1 << 20,
	}
}

func prepareBlk(seed uint64) (roundFunc, error) {
	cfg := s1Config(seed)
	return func(tr *tracer) (*roundStats, error) {
		return blkRound(tr, cfg)
	}, nil
}

func blkRound(tr *tracer, cfg wl.ServingConfig) (*roundStats, error) {
	rs := newRound()
	t0 := time.Now()
	tr.begin("setup.new_system", 0)
	sys, err := zion.NewSystem(zion.Config{})
	tr.end()
	if err != nil {
		return nil, err
	}
	boot := time.Since(t0)
	k, h := sys.Hypervisor, sys.Machine.Harts[0]
	t1 := time.Now()
	tr.begin("workloads.run_serving", 0)
	st, err := wl.RunServing(k, h, nil, cfg)
	tr.end()
	wall := time.Since(t1)
	rs.attempted = int(cfg.Requests)
	if err != nil {
		// A failed status or a leaked bounce slot ends the run.
		fmt.Fprintf(os.Stderr, "zbench: serving: %v\n", err)
		rs.failed = rs.attempted
		rs.setup, rs.run, rs.work = boot, wall, 1
		return rs, nil
	}
	// RunServing creates its CVMs and devices before its own request
	// clock starts: that part of its wall time is set-up.
	run := time.Duration(st.HostSeconds * float64(time.Second))
	rs.setup, rs.run = boot+wall-run, run
	rs.work = float64(st.Requests)
	rs.lat = []time.Duration{run}
	if st.Requests != cfg.Requests || st.Reads+st.Writes != st.Requests || st.PoolHWM > st.PoolSlots {
		fmt.Fprintf(os.Stderr, "zbench: serving accounting: %d requests (%d reads, %d writes), pool hwm %d of %d\n",
			st.Requests, st.Reads, st.Writes, st.PoolHWM, st.PoolSlots)
		rs.failed = rs.attempted
	}
	for key, v := range map[string]uint64{
		"serving.cycles": st.Cycles, "serving.reads": st.Reads, "serving.writes": st.Writes,
		"serving.doorbell_exits": st.DoorbellExits, "serving.irq_ack_exits": st.IRQAckExits,
		"serving.irqs_fired": st.IRQsFired, "serving.irqs_suppressed": st.IRQsSuppressed,
		"serving.hist.count": st.Hist.Count(), "serving.hist.sum": st.Hist.Sum(),
		"serving.pool_hwm": uint64(st.PoolHWM),
	} {
		rs.fp.add(key, v)
	}
	c := rs.counts
	c["virtio.doorbells"] = float64(st.DoorbellExits)
	c["virtio.irqs_fired"] = float64(st.IRQsFired)
	c["virtio.irqs_suppressed"] = float64(st.IRQsSuppressed)
	c["virtio.chains"] = float64(st.Requests)
	c["guest.pool_hwm"] = float64(st.PoolHWM)
	c["serving.lat_p50_cycles"] = float64(st.P50)
	c["serving.lat_p99_cycles"] = float64(st.P99)
	c["serving.bytes_moved"] = float64(st.BytesMoved)
	collect(rs, sys, k.VMs)

	// RunServing keeps its disks to itself, so the sector check runs on a
	// verification burst through the same data plane (after the
	// fingerprint was taken: it advances the hart's clock).
	tr.begin("check.blk_verify", 0)
	att, bad, err := verifyBlkPlane(sys, cfg.Seed)
	tr.end()
	if err != nil {
		return nil, err
	}
	rs.attempted += att
	rs.failed += bad
	return rs, nil
}

// blkPattern is the payload every verification write stores: RunServing's
// fixed write pattern.
func blkPattern() []byte {
	p := make([]byte, virtio.SectorSize)
	for i := range p {
		p[i] = byte(i*7 + 13)
	}
	return p
}

// verifyBlkPlane drives a seeded burst of single-sector reads and writes
// through a fresh CVM's virtio-blk queue, bounce pool and driver view. Each
// read must return what the mirror says the sector holds, each status must
// be OK, no bounce slot may leak, and afterwards every sector must be all
// zero or the write pattern, exactly where the burst wrote.
func verifyBlkPlane(sys *zion.System, seed uint64) (attempted, failed int, err error) {
	const (
		requests = 512
		depth    = 8
		sectors  = 256
		dataOff  = 64
		slotSize = dataOff + virtio.SectorSize
	)
	k, h := sys.Hypervisor, sys.Machine.Harts[0]
	vm, err := k.CreateCVM(h, "blk-verify", idleImage(), zion.GuestRAMBase)
	if err != nil {
		return 0, 0, err
	}
	if err := k.SetupSharedWindow(h, vm); err != nil {
		return 0, 0, err
	}
	blk := guest.SetupBlkMQ(k, vm, h, sectors*virtio.SectorSize, 1, 64)
	mem := blk.Dev().Mem()
	pool := guest.NewBouncePool(mem, guest.LayoutFor(true), slotSize)
	drv := virtio.NewDriverView(blk.Dev().Queue(0), mem)
	pattern := blkPattern()
	zero := make([]byte, virtio.SectorSize)
	written := map[uint64]bool{}
	r := rng(seed ^ 0xB1C0)
	type inflight struct {
		slot   int
		gpa    uint64
		write  bool
		sector uint64
	}
	meta := map[uint16]inflight{}
	buf := make([]byte, virtio.SectorSize)
	var hdr [16]byte
	var status [1]byte
	for done := 0; done < requests; {
		for len(meta) < depth && attempted < requests {
			slot, gpa, err := pool.Alloc()
			if err != nil {
				return 0, 0, err
			}
			q := inflight{slot: slot, gpa: gpa, write: r.intn(10) < 3, sector: uint64(r.intn(sectors))}
			typ := uint32(virtio.BlkTIn)
			if q.write {
				typ = virtio.BlkTOut
				if err := mem.WriteBytes(gpa+dataOff, pattern); err != nil {
					return 0, 0, err
				}
			}
			binary.LittleEndian.PutUint32(hdr[0:4], typ)
			binary.LittleEndian.PutUint64(hdr[8:16], q.sector)
			if err := mem.WriteBytes(gpa, hdr[:]); err != nil {
				return 0, 0, err
			}
			head, err := drv.PostChain([]virtio.DriverSeg{
				{GPA: gpa, Len: 16},
				{GPA: gpa + dataOff, Len: virtio.SectorSize, Writable: !q.write},
				{GPA: gpa + 16, Len: 1, Writable: true},
			})
			if err != nil {
				return 0, 0, err
			}
			meta[head] = q
			attempted++
		}
		blk.Dev().MMIOWrite(virtio.NotifyOffset(), 4, 0)
		for {
			head, _, ok, err := drv.PollUsed()
			if err != nil {
				return 0, 0, err
			}
			if !ok {
				break
			}
			q := meta[head]
			delete(meta, head)
			done++
			if err := mem.ReadInto(q.gpa+16, status[:]); err != nil {
				return 0, 0, err
			}
			ok = status[0] == virtio.BlkSOK
			if q.write {
				written[q.sector] = true
			} else {
				if err := mem.ReadInto(q.gpa+dataOff, buf); err != nil {
					return 0, 0, err
				}
				want := zero
				if written[q.sector] {
					want = pattern
				}
				ok = ok && string(buf) == string(want)
			}
			if !ok {
				failed++
			}
			if err := pool.Release(q.slot); err != nil {
				return 0, 0, err
			}
		}
	}
	if n := pool.InUse(); n != 0 {
		failed += n
	}
	failed += badSectors(blk.Disk(), pattern, written)
	attempted += sectors
	return attempted, failed, nil
}

// idleImage is a guest that shuts down at once: the verification CVM is
// only a container for the device plane.
func idleImage() []byte {
	p := asm.New(wl.GuestBase)
	p.LI(asm.A7, sm.EIDReset)
	p.ECALL()
	return p.MustAssemble()
}

// --- smp -----------------------------------------------------------------

// prepareSMP gives each of two harts the eight RV8 kernels, one CVM
// each, in its own seeded order and with each scale changed by up to ±2%;
// the harts run together under the deterministic quantum-barrier engine.
func prepareSMP(seed uint64) (roundFunc, error) {
	return smpRunner(seed, true)
}

// prepareSMPSequential is the same round with the harts run one after
// the other on one goroutine: the reference for platform.par_over_seq.
func prepareSMPSequential(seed uint64) (roundFunc, error) {
	return smpRunner(seed, false)
}

func smpRunner(seed uint64, parallel bool) (roundFunc, error) {
	r := rng(seed)
	ks := wl.RV8()
	var plan [2][]kernelRun
	for hi := range plan {
		for _, i := range r.perm(len(ks)) {
			scale := ks[i].DefaultScale / smpScaleDiv
			scale += scale * (r.intn(5) - 2) / 100
			plan[hi] = append(plan[hi], kernelRun{k: ks[i], scale: scale, want: ks[i].Mirror(scale)})
		}
	}
	return func(tr *tracer) (*roundStats, error) {
		return smpRound(tr, plan, parallel)
	}, nil
}

func smpRound(tr *tracer, plan [2][]kernelRun, parallel bool) (*roundStats, error) {
	rs := newRound()
	t0 := time.Now()
	var imgs [2][][]byte
	tr.begin("setup.assemble", 0)
	for hi := range plan {
		for _, run := range plan[hi] {
			imgs[hi] = append(imgs[hi], wl.Program(run.k, run.scale))
		}
	}
	tr.end()
	tr.begin("setup.new_system", 0)
	sys, err := zion.NewSystem(zion.Config{Harts: 2, SchedQuantum: tickQuantum})
	tr.end()
	if err != nil {
		return nil, err
	}
	k := sys.Hypervisor
	var vms [2][]*hv.VM
	for hi, h := range sys.Machine.Harts {
		h.Mode = isa.ModeS // the hypervisor drives every hart from HS-mode
		for i, run := range plan[hi] {
			tr.begin("setup.create_cvm", 0)
			vm, err := k.CreateCVM(h, fmt.Sprintf("%s-h%d", run.k.Name, hi), imgs[hi][i], zion.GuestRAMBase)
			tr.end()
			if err != nil {
				return nil, err
			}
			vms[hi] = append(vms[hi], vm)
		}
	}
	rs.setup = time.Since(t0)

	var lanes [2]*tracer
	var part [2]*roundStats
	runners := make([]platform.HartRunner, 2)
	for hi := range runners {
		lanes[hi] = tr.fork(hi + 1)
		part[hi] = newRound()
		runners[hi] = func(h *hart.Hart) error {
			for i, vm := range vms[hi] {
				_, sum, err := runToShutdown(lanes[hi], part[hi], k, h, vm)
				if err != nil {
					return err
				}
				want := plan[hi][i].want
				part[hi].check(sum == want, "%s checksum %#x, mirror %#x", vm.Name, sum, want)
			}
			return nil
		}
	}
	t1 := time.Now()
	if parallel {
		tr.begin("platform.run_parallel", 0)
		err = sys.Machine.RunParallel(platform.EngineConfig{
			Mode: platform.EngineBlock, Adaptive: true, Quantum: platform.DefaultQuantum,
		}, runners)
		tr.end()
	} else {
		for hi, h := range sys.Machine.Harts {
			if err = runners[hi](h); err != nil {
				break
			}
		}
	}
	rs.run = time.Since(t1)
	if err != nil {
		return nil, err
	}
	for hi := range part {
		tr.join(lanes[hi])
		rs.attempted += part[hi].attempted
		rs.failed += part[hi].failed
		rs.counts["hv.run_calls"] += part[hi].counts["hv.run_calls"]
		rs.lat = append(rs.lat, part[hi].lat...)
	}
	collect(rs, sys, append(vms[0], vms[1]...))
	if parallel {
		es := sys.Machine.EngineStats()
		rs.fp.add("engine.epochs", es.Epochs)
		rs.fp.add("engine.cross_ops", es.CrossOps)
		rs.counts["platform.epochs"] = float64(es.Epochs)
		rs.counts["platform.cross_ops"] = float64(es.CrossOps)
	}
	rs.work = rs.counts["sim.instret"]
	return rs, nil
}
