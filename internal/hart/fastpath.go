package hart

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"zion/internal/isa"
	"zion/internal/mem"
	"zion/internal/pmp"
	"zion/internal/ptw"
	"zion/internal/telemetry"
)

const (
	mtlbSize = 64 // direct-mapped entries per access type
	mtlbMask = mtlbSize - 1
)

// mtlbEntry caches one page's fully resolved access verdict: the host
// slice backing the physical page, the TLB entry that justified the
// translation, and the epochs under which all of it was established. The
// entry is valid only while every epoch still matches — any architectural
// event that could change the outcome (TLB insert/flush, PMP reprogram,
// satp/mstatus write, privilege change) bumps an epoch and silently
// retires the entry.
type mtlbEntry struct {
	page   []byte // backing bytes of the physical page; nil = invalid
	vaPage uint64 // VA >> PageShift tag
	paPage uint64 // page-aligned physical address
	mode   isa.PrivMode
	bare   bool  // no TLB involved (M-mode, or S/U with satp=Bare)
	tlbIdx int32 // TLB entry to Touch on each hit (bare=false)
	tlbGen uint64
	pmpGen uint64
	mmuGen uint64
	// Write entries: cached code-page verdict under memGen.
	code   bool
	memGen uint64
	// Fetch entries: decoded instructions for the page.
	dp *decodedPage
}

// decodedPage holds the eager decode of one physical page and everything
// derived from it, all built in one pass by decodePageLocked. live flips
// to false when the underlying bytes change; every fetch revalidates it,
// so self-modifying code observes its own stores exactly like the slow
// path (which re-fetches every instruction). live is atomic because under
// the parallel engine the invalidating store may come from a peer hart's
// goroutine (mem watcher dispatch); the decode cache is semantically
// transparent, so a cross-hart invalidation landing mid-quantum changes
// only host-side cache effectiveness, never simulated results. The other
// fields are immutable once the page is published.
type decodedPage struct {
	live  atomic.Bool
	insts [isa.PageSize / 4]isa.Inst

	// Superblock metadata (superblock.go). For each slot i:
	//
	//	sbLen[i]   — number of instructions in the straight-line run
	//	             starting at i, up to and including the next
	//	             run-terminating boundary (control transfer that
	//	             always leaves the line, CSR access, privileged op,
	//	             invalid encoding) or the end of the page.
	//	sbWorst[i] — worst-case simulated cycles of that run excluding
	//	             its final instruction: exactly the cycles that can
	//	             accrue before the last per-instruction boundary
	//	             check a per-step engine would have performed.
	//
	// Conditional branches are NOT boundaries: they stay mid-line and the
	// trace detects a taken branch as a side exit (PC left the straight
	// line), so runs survive the not-taken common case.
	sbLen   [isa.PageSize / 4]uint16
	sbWorst [isa.PageSize / 4]uint64

	// tcOps is the compiled trace table (trace.go); nil when the page was
	// demoted because its invalidation history says compiling would
	// thrash. A demoted page retires every instruction through execute().
	tcOps *[tracePageSlots]traceOp
}

// FastPathStats counts engine effectiveness; exported as fp/* telemetry
// gauges by the bench harness. Pure host-side counters — they influence
// nothing in the simulation.
type FastPathStats struct {
	FetchHits   uint64 // instructions issued from a decoded page
	FetchMisses uint64 // fetch micro-TLB misses (entry invalid or absent)
	ReadHits    uint64
	ReadMisses  uint64
	WriteHits   uint64
	WriteMisses uint64
	Fills       uint64 // micro-TLB fill attempts
	FillFails   uint64 // fills declined (TLB miss, PMP, MMIO, ...)
	BlockBuilds uint64 // pages decoded (superblock metadata and trace table included)
	BlockInvals uint64 // decoded pages dropped after a write hit them

	HorizonCutoffs uint64 // superblock entries degraded to single-step because the worst-case cycle bound crossed the event horizon

	// Trace compilation and dispatch (trace.go).
	TCCompiles   uint64 // pages compiled into pre-bound trace tables
	TCRecompiles uint64 // compiles of a page that had been invalidated before
	TCDemotions  uint64 // decodes left uncompiled by invalidation history
	TCEntries    uint64 // trace dispatch entries (one generation snapshot each)
	TCOps        uint64 // instructions retired by pre-bound handlers
	TCBailouts   uint64 // memory handlers that aborted, leaving their instruction to execute()
	TCInvals     uint64 // compiled trace tables dropped by store invalidation
}

// fastPath is the state the trace engine runs on: three
// direct-mapped micro-TLBs (fetch/read/write) plus a decoded-instruction
// cache keyed by physical page. It never produces a result the slow path
// wouldn't: every cacheable case replays the exact counter mutations (TLB
// tick/LRU/hits, PMP checks, TLBHit/Mem cycles) the slow path performs,
// and everything else falls back.
type fastPath struct {
	mem   *mem.PhysMemory
	fetch [mtlbSize]mtlbEntry
	read  [mtlbSize]mtlbEntry
	write [mtlbSize]mtlbEntry

	// mu guards the decoded-page registry below: InvalidateCodePage may
	// be dispatched from a peer hart's goroutine (its store hit one of
	// our registered code pages), while the owner decodes and blacklists
	// on its own goroutine. The per-instruction hit path (micro-TLB entry
	// valid, decoded page live) never takes it.
	mu    sync.Mutex
	pages map[uint64]*decodedPage // pa page -> decoded
	// Pages invalidated this often stop being block-cached (code and hot
	// data sharing a page would otherwise rebuild the decode per store).
	invCount  map[uint64]uint32
	blacklist map[uint64]bool
	stats     FastPathStats

	// Trace-dispatch scratch: the generation snapshot taken once per trace
	// entry (see trace.go for the soundness argument), plus the PC of the
	// op being dispatched and the cycle of the next profiler sample
	// (MaxUint64 when the profiler is off), for the profiler hook.
	// Owner-goroutine only.
	tcMode   isa.PrivMode
	tcTLBGen uint64
	tcPMPGen uint64
	tcMMUGen uint64
	tcBare   bool
	tcTidx   int
	tcPC     uint64
	tcNext   uint64

	// Optional dispatch-length histogram (SetDispatchHist): instructions
	// retired per trace entry. Nil when the observability plane is dark.
	// The dispatch loop records into the plain single-writer local — an
	// armed observation is a few non-atomic increments — and
	// FlushDispatchHist drains it into the shared atomic histogram;
	// per-observation CAS traffic on the hot loop would blow the plane's
	// 3% overhead budget.
	hist *telemetry.Histogram
	lens telemetry.LocalHist
}

const blacklistThreshold = 16

func newFastPath(h *Hart) *fastPath {
	e := &fastPath{
		mem:       h.Mem,
		pages:     make(map[uint64]*decodedPage),
		invCount:  make(map[uint64]uint32),
		blacklist: make(map[uint64]bool),
	}
	h.Mem.AddCodeWatcher(e)
	return e
}

// Engine selects a hart's execution tier. Both tiers retire through the
// same opcode table, and every simulated cycle count, TLB/PMP/PTW
// statistic and trap is bit-identical across them (docs/PERF.md explains
// why); they differ only in host speed.
type Engine uint8

const (
	// EngineTrace dispatches superblocks through compiled trace tables
	// (trace.go, superblock.go). The zero value and the default.
	EngineTrace Engine = iota
	// EngineSlow is the reference interpreter alone: RunBatch declines
	// and callers fall back to Step.
	EngineSlow
)

// Engines lists every tier, fastest first — the lockstep test matrix.
func Engines() []Engine { return []Engine{EngineTrace, EngineSlow} }

// String names the engine the way the bench JSON records it.
func (e Engine) String() string {
	switch e {
	case EngineTrace:
		return "trace"
	case EngineSlow:
		return "slow"
	}
	return "?"
}

// SetEngine selects the hart's execution tier. Leaving the trace tier
// drops its caches and code-page registrations, so the memory no longer
// pays write-notification costs; entering it attaches fresh ones.
func (h *Hart) SetEngine(e Engine) {
	if e != EngineSlow {
		if h.fp == nil {
			h.fp = newFastPath(h)
		}
		return
	}
	if h.fp == nil {
		return
	}
	h.fp.mu.Lock()
	for pa, dp := range h.fp.pages {
		dp.live.Store(false)
		h.Mem.UnregisterCodePage(pa)
	}
	h.fp.mu.Unlock()
	h.Mem.RemoveCodeWatcher(h.fp)
	h.fp = nil
}

// Engine reports the hart's execution tier.
func (h *Hart) Engine() Engine {
	if h.fp == nil {
		return EngineSlow
	}
	return EngineTrace
}

// FastPathStats returns the engine counters (zero value when disabled).
func (h *Hart) FastPathStats() FastPathStats {
	if h.fp == nil {
		return FastPathStats{}
	}
	h.fp.mu.Lock()
	defer h.fp.mu.Unlock()
	return h.fp.stats
}

// InvalidateCodePage implements mem.CodeWatcher: a write landed in a page
// this engine decoded. Under the parallel engine the writer may be a
// peer hart, so the registry mutations are lock-protected.
func (e *fastPath) InvalidateCodePage(paPage uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	dp, ok := e.pages[paPage]
	if !ok {
		return
	}
	dp.live.Store(false)
	delete(e.pages, paPage)
	e.mem.UnregisterCodePage(paPage)
	e.stats.BlockInvals++
	if dp.tcOps != nil {
		e.stats.TCInvals++
	}
	if c := e.invCount[paPage] + 1; c >= blacklistThreshold {
		e.blacklist[paPage] = true
	} else {
		e.invCount[paPage] = c
	}
}

// valid reports whether ent still answers for vaPage under the hart's
// current translation context.
func (e *fastPath) valid(h *Hart, ent *mtlbEntry, vaPage uint64) bool {
	if ent.page == nil || ent.vaPage != vaPage || ent.mode != h.Mode ||
		ent.mmuGen != h.mmuGen || ent.pmpGen != h.PMP.Gen() {
		return false
	}
	return ent.bare || ent.tlbGen == h.TLB.Gen()
}

// fill tries to establish a micro-TLB entry for the page-aligned va. It is
// side-effect-free on the architectural state: translation uses TLB.Peek
// (no stats, no LRU) and protection uses PMP.Probe (no stats), so a
// declined fill leaves everything exactly as the slow path expects to find
// it. A fill succeeds only when a later hit is provably bit-identical to
// slow-path execution: present TLB entry (or bare translation) whose
// cached permissions pass the same permsAllow the slow path applies, PMP
// allowing the access for the whole page within one entry, and the target
// page fully inside RAM.
func (e *fastPath) fill(h *Hart, ent *mtlbEntry, va uint64, acc ptw.Access) bool {
	e.stats.Fills++
	*ent = mtlbEntry{}
	bare := false
	tlbIdx := -1
	var pa uint64
	switch h.Mode {
	case isa.ModeM:
		bare, pa = true, va
	case isa.ModeS, isa.ModeU:
		satp := h.csr.raw(isa.CSRSatp)
		if satpRoot(satp) == 0 {
			bare, pa = true, va
		} else {
			opts := h.transOpts()
			opts.User = h.Mode == isa.ModeU
			asid := uint16(satp >> 44 & 0xFFFF)
			idx, ppn, perms, level, hit := h.TLB.Peek(va, asid, 0)
			if !hit || !permsAllow(perms, acc, opts) {
				e.stats.FillFails++
				return false
			}
			tlbIdx = idx
			pa = ppn<<uint(isa.PageShift+9*level) | va&pageMask(level)
		}
	default: // VS / VU
		vsatp := h.csr.raw(isa.CSRVsatp)
		if satpRoot(h.csr.raw(isa.CSRHgatp)) == 0 {
			// The slow path access-faults before any TLB lookup; never cache.
			e.stats.FillFails++
			return false
		}
		opts := h.transOpts()
		opts.User = h.Mode == isa.ModeVU
		if satpRoot(vsatp) == 0 {
			// Mirror Translate's Bare-stage-1 hit rule: no guest privilege
			// check, U pages reachable from both VS and VU.
			opts.User, opts.SUM = false, true
		}
		idx, ppn, perms, level, hit := h.TLB.Peek(va, uint16(vsatp>>44&0xFFFF), h.vmid())
		if !hit || !permsAllow(perms, acc, opts) {
			e.stats.FillFails++
			return false
		}
		tlbIdx = idx
		pa = ppn<<uint(isa.PageShift+9*level) | va&pageMask(level)
	}

	var pacc pmp.AccessType
	switch acc {
	case ptw.AccessRead:
		pacc = pmp.AccessRead
	case ptw.AccessWrite:
		pacc = pmp.AccessWrite
	default:
		pacc = pmp.AccessExec
	}
	// Probe the whole page: a pass means one PMP entry fully contains it,
	// so every sub-access resolves against that same entry with the same
	// verdict the slow path's per-access Check would produce.
	if !h.PMP.Probe(pa, isa.PageSize, pacc, h.Mode == isa.ModeM) {
		e.stats.FillFails++
		return false
	}
	if !h.Mem.Contains(pa, isa.PageSize) {
		e.stats.FillFails++ // MMIO or partial page: bus accesses stay slow
		return false
	}
	*ent = mtlbEntry{
		page:   e.mem.PageSlice(pa),
		vaPage: va >> isa.PageShift,
		paPage: pa,
		mode:   h.Mode,
		bare:   bare,
		tlbIdx: int32(tlbIdx),
		tlbGen: h.TLB.Gen(),
		pmpGen: h.PMP.Gen(),
		mmuGen: h.mmuGen,
	}
	return true
}

// hitAccounting replays the slow path's per-access state changes for a
// validated entry: the TLB hit (tick, LRU, stats, TLBHit cycles) unless
// the translation was bare — the slow path consults no TLB then — and the
// PMP check count.
func (e *fastPath) hitAccounting(h *Hart, ent *mtlbEntry) {
	if !ent.bare {
		h.TLB.Touch(int(ent.tlbIdx))
		h.Cycles += h.Cost.TLBHit
	}
	h.PMP.NoteCheck()
}

// decodePageLocked builds (or returns) the decoded block for a physical
// page and registers it for write-invalidation. One backward pass decodes
// every slot, derives its superblock run length and worst-case cycle
// bound, and compiles its trace op — unless the page's invalidation
// history demotes it (tcDemoteThreshold), in which case it gets no trace
// table. The cost table is captured here; it is set once at hart
// construction and never mutated mid-run. Caller holds e.mu.
func (e *fastPath) decodePageLocked(h *Hart, paPage uint64, page []byte) *decodedPage {
	if dp, ok := e.pages[paPage]; ok {
		return dp
	}
	dp := &decodedPage{}
	dp.live.Store(true)
	if inv := e.invCount[paPage]; inv >= tcDemoteThreshold {
		e.stats.TCDemotions++
	} else {
		dp.tcOps = new([tracePageSlots]traceOp)
		e.stats.TCCompiles++
		if inv > 0 {
			e.stats.TCRecompiles++
		}
	}
	c := h.Cost
	last := len(dp.insts) - 1
	for i := last; i >= 0; i-- {
		in := &dp.insts[i]
		*in = isa.Decode(binary.LittleEndian.Uint32(page[i*4:]))
		if dp.tcOps != nil {
			compileTraceOp(c, in, &dp.tcOps[i])
		}
		if i == last || sbBoundary(in.Op) {
			dp.sbLen[i] = 1
			continue
		}
		dp.sbLen[i] = dp.sbLen[i+1] + 1
		// sbWorst excludes the run's final instruction: checks happen
		// before each instruction, so the last one's cycles land after
		// every hoisted check already passed.
		dp.sbWorst[i] = sbWorstCycles(c, in) + dp.sbWorst[i+1]
	}
	e.pages[paPage] = dp
	e.mem.RegisterCodePage(paPage)
	e.stats.BlockBuilds++
	return dp
}

// access performs a load or store through the micro-TLB, or reports
// ok=false for the slow path (page-straddling access, odd width, miss
// that can't fill, or a store into a decoded code page — the slow path's
// mem.WriteUint triggers the block invalidation those need).
func (e *fastPath) access(h *Hart, va uint64, size int, write bool, val uint64) (uint64, bool) {
	switch size {
	case 1, 2, 4, 8:
	default:
		return 0, false
	}
	off := va & (isa.PageSize - 1)
	if off+uint64(size) > isa.PageSize {
		return 0, false
	}
	vaPage := va >> isa.PageShift
	var ent *mtlbEntry
	if write {
		ent = &e.write[vaPage&mtlbMask]
	} else {
		ent = &e.read[vaPage&mtlbMask]
	}
	if !e.valid(h, ent, vaPage) {
		acc := ptw.AccessRead
		if write {
			e.stats.WriteMisses++
			acc = ptw.AccessWrite
		} else {
			e.stats.ReadMisses++
		}
		if !e.fill(h, ent, va&^uint64(isa.PageSize-1), acc) {
			return 0, false
		}
	}
	if write {
		if ent.memGen != e.mem.CodeGen() {
			ent.code = e.mem.IsCodePage(ent.paPage)
			ent.memGen = e.mem.CodeGen()
		}
		if ent.code {
			return 0, false
		}
	}
	e.hitAccounting(h, ent)
	h.Cycles += h.Cost.Mem
	p := ent.page[off:]
	if write {
		e.stats.WriteHits++
		switch size {
		case 1:
			p[0] = byte(val)
		case 2:
			binary.LittleEndian.PutUint16(p, uint16(val))
		case 4:
			binary.LittleEndian.PutUint32(p, uint32(val))
		default:
			binary.LittleEndian.PutUint64(p, val)
		}
		return 0, true
	}
	e.stats.ReadHits++
	switch size {
	case 1:
		return uint64(p[0]), true
	case 2:
		return uint64(binary.LittleEndian.Uint16(p)), true
	case 4:
		return uint64(binary.LittleEndian.Uint32(p)), true
	default:
		return binary.LittleEndian.Uint64(p), true
	}
}
