package sm

import (
	"fmt"
	"sort"

	"zion/internal/isa"
	"zion/internal/pmp"
	"zion/internal/ptw"
)

// The invariant auditor cross-verifies the SM's three views of secure
// memory — the PMP plan programmed into every hart, the hierarchical
// allocator's block bitmaps, and each CVM's stage-2 page tables — and
// reports any disagreement. It is the continuous proof obligation behind
// the isolation argument: a bit-flipped page table, a misprogrammed PMP
// entry, or a leaked frame each break exactly one of these cross-checks.
// The auditor is read-only; RepairPMP restores the PMP plan from the
// SM's authoritative state when hardware faults garble it.

// AuditKind classifies an invariant violation.
type AuditKind int

// Audit finding kinds.
const (
	// AuditPMPPlan: a pool/base PMP entry on some hart no longer matches
	// the SM's plan (wrong address, wrong mode, or pool readable from
	// Normal mode).
	AuditPMPPlan AuditKind = iota
	// AuditOwnershipOverlap: a secure frame appears in two CVMs' owned sets.
	AuditOwnershipOverlap
	// AuditOwnershipEscape: an owned frame lies outside every secure region.
	AuditOwnershipEscape
	// AuditBlockAccounting: a block's free counter disagrees with its bitmap,
	// or a used page is not attributed to its CVM's owned set (a leak), or
	// an owned page is not marked used (double accounting).
	AuditBlockAccounting
	// AuditMappingBroken: a recorded private GPA mapping fails to resolve
	// through the CVM's stage-2 tree, or resolves to a frame the CVM does
	// not own.
	AuditMappingBroken
	// AuditTableEscape: a stage-2 table frame (outside the hypervisor's
	// shared subtree) lies in normal memory.
	AuditTableEscape
	// AuditSharedLeafSecure: a leaf in the hypervisor's shared subtable
	// names secure memory.
	AuditSharedLeafSecure
	// AuditIOPMPWindow: an IOPMP window intersects a secure region.
	AuditIOPMPWindow
	// AuditPoolLeak: with no live CVMs, free blocks != total blocks.
	AuditPoolLeak
	// AuditCompartmentPMP: a monitor compartment's gate PMP unit no longer
	// matches its boundary plan (entry 0 NAPOT R/W over its own window).
	AuditCompartmentPMP
)

// String implements fmt.Stringer.
func (k AuditKind) String() string {
	switch k {
	case AuditPMPPlan:
		return "pmp-plan"
	case AuditOwnershipOverlap:
		return "ownership-overlap"
	case AuditOwnershipEscape:
		return "ownership-escape"
	case AuditBlockAccounting:
		return "block-accounting"
	case AuditMappingBroken:
		return "mapping-broken"
	case AuditTableEscape:
		return "table-escape"
	case AuditSharedLeafSecure:
		return "shared-leaf-secure"
	case AuditIOPMPWindow:
		return "iopmp-window"
	case AuditPoolLeak:
		return "pool-leak"
	case AuditCompartmentPMP:
		return "compartment-pmp"
	}
	return fmt.Sprintf("audit(%d)", int(k))
}

// AuditFinding is one cross-layer invariant violation.
type AuditFinding struct {
	Kind        AuditKind
	CVMID       int // 0 when not scoped to a CVM
	Detail      string
	Compartment Compartment // set for AuditCompartmentPMP findings only
}

// Scope names the monitor compartment whose owned state an audit finding
// implicates, so compromise campaigns can assert the auditor is clean on
// every *surviving* compartment while the quarantined one may (by design)
// still carry findings until repair.
func (f AuditFinding) Scope() Compartment {
	switch f.Kind {
	case AuditCompartmentPMP:
		return f.Compartment
	case AuditPMPPlan, AuditBlockAccounting, AuditIOPMPWindow, AuditPoolLeak:
		return CompAlloc
	}
	// Ownership sets and page-table trees are CVM lifecycle state.
	return CompLifecycle
}

// String renders the finding for logs.
func (f AuditFinding) String() string {
	if f.CVMID != 0 {
		return fmt.Sprintf("%s cvm=%d: %s", f.Kind, f.CVMID, f.Detail)
	}
	return fmt.Sprintf("%s: %s", f.Kind, f.Detail)
}

// Audit runs every cross-layer invariant check and returns the findings,
// deterministically ordered. An empty result is the healthy state.
func (s *SM) Audit() []AuditFinding {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.auditLocked()
}

// auditLocked is Audit for callers already holding s.mu (HVCall's
// per-lifecycle-call auditing; s.mu is not reentrant).
func (s *SM) auditLocked() []AuditFinding {
	var out []AuditFinding
	out = append(out, s.auditPMP()...)
	out = append(out, s.auditOwnership()...)
	out = append(out, s.auditPageTables()...)
	out = append(out, s.auditIOPMP()...)
	out = append(out, s.auditPoolLeak()...)
	out = append(out, s.auditGatePMP()...)
	s.Stats.AuditRuns++
	s.Stats.AuditFindings += uint64(len(out))
	s.lastAudit = out
	return out
}

// LastAudit returns the findings of the most recent audit run.
func (s *SM) LastAudit() []AuditFinding {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastAudit
}

// auditPMP verifies that every hart still carries the SM's PMP plan:
// pool regions NAPOT-mapped with Normal-mode access denied (the auditor
// only runs from Normal mode — inside a CVM run the SM owns the hart),
// and the MMIO/RAM base entries intact.
func (s *SM) auditPMP() []AuditFinding {
	var out []AuditFinding
	for _, h := range s.machine.Harts {
		for i, r := range s.alloc.pool.regions {
			idx := pmpPoolFirst + i
			if idx > pmpPoolLast {
				break
			}
			want, err := pmp.EncodeNAPOT(r.base, roundPow2(r.end-r.base))
			if err != nil {
				continue // regions are validated NAPOT-encodable at registration
			}
			cfg := h.PMP.Cfg(idx)
			switch {
			case h.PMP.Addr(idx) != want:
				out = append(out, AuditFinding{Kind: AuditPMPPlan, Detail: fmt.Sprintf(
					"hart %d entry %d addr %#x, want %#x", h.ID, idx, h.PMP.Addr(idx), want)})
			case (cfg>>3)&3 != pmp.ANAPOT:
				out = append(out, AuditFinding{Kind: AuditPMPPlan, Detail: fmt.Sprintf(
					"hart %d entry %d mode %d, want NAPOT", h.ID, idx, (cfg>>3)&3)})
			case cfg&(pmp.PermR|pmp.PermW|pmp.PermX) != 0:
				out = append(out, AuditFinding{Kind: AuditPMPPlan, Detail: fmt.Sprintf(
					"hart %d entry %d: secure pool open to Normal mode (cfg %#x)", h.ID, idx, cfg)})
			}
		}
		for _, idx := range []int{pmpMMIO, pmpRAM} {
			if (h.PMP.Cfg(idx)>>3)&3 != pmp.ANAPOT {
				out = append(out, AuditFinding{Kind: AuditPMPPlan, Detail: fmt.Sprintf(
					"hart %d base entry %d disabled", h.ID, idx)})
			}
		}
	}
	return out
}

// auditOwnership cross-checks CVM owned sets against the pool regions,
// against each other, and against the allocator's block bitmaps.
func (s *SM) auditOwnership() []AuditFinding {
	var out []AuditFinding
	ownerOf := make(map[uint64]int)
	for _, id := range s.cvmIDs() {
		c := s.life.cvms[id]
		for _, pa := range sortedKeys(c.owned) {
			if !s.alloc.pool.contains(pa, isa.PageSize) {
				out = append(out, AuditFinding{Kind: AuditOwnershipEscape, CVMID: id,
					Detail: fmt.Sprintf("owned frame %#x outside secure regions", pa)})
			}
			if prev, dup := ownerOf[pa]; dup {
				out = append(out, AuditFinding{Kind: AuditOwnershipOverlap, CVMID: id,
					Detail: fmt.Sprintf("frame %#x also owned by cvm %d", pa, prev)})
			}
			ownerOf[pa] = id
		}
		// Block bitmaps: the union of used pages across this CVM's cache
		// blocks must equal its owned set exactly.
		used := make(map[uint64]bool)
		for _, cache := range append([]*pageCache{&c.tableCache}, vcpuCaches(c)...) {
			for _, b := range cache.blocks() {
				free := 0
				for i := 0; i < BlockPages; i++ {
					pa := b.base + uint64(i)*isa.PageSize
					if b.used&(1<<i) == 0 {
						free++
						continue
					}
					used[pa] = true
					if !c.owned[pa] {
						out = append(out, AuditFinding{Kind: AuditBlockAccounting, CVMID: id,
							Detail: fmt.Sprintf("page %#x used in block %#x but unowned (leak)", pa, b.base)})
					}
				}
				if free != b.free {
					out = append(out, AuditFinding{Kind: AuditBlockAccounting, CVMID: id,
						Detail: fmt.Sprintf("block %#x free counter %d, bitmap says %d", b.base, b.free, free)})
				}
			}
		}
		for _, pa := range sortedKeys(c.owned) {
			if !used[pa] {
				out = append(out, AuditFinding{Kind: AuditBlockAccounting, CVMID: id,
					Detail: fmt.Sprintf("owned frame %#x not used in any cache block", pa)})
			}
		}
	}
	return out
}

// auditPageTables re-walks every CVM's recorded private mappings and its
// stage-2 table tree, verifying that leaves land on owned frames, table
// frames stay in secure memory, and the shared subtree never names it.
func (s *SM) auditPageTables() []AuditFinding {
	var out []AuditFinding
	for _, id := range s.cvmIDs() {
		c := s.life.cvms[id]
		b := &ptw.Builder{Mem: s.ram}
		for _, gpa := range sortedKeys(c.mappings) {
			pte, level, err := b.Lookup(c.hgatpRoot, gpa, true)
			if err != nil {
				out = append(out, AuditFinding{Kind: AuditMappingBroken, CVMID: id,
					Detail: fmt.Sprintf("gpa %#x no longer resolves: %v", gpa, err)})
				continue
			}
			pa := (pte >> isa.PTEPPNShift) << isa.PageShift
			if level != 0 || pa != c.mappings[gpa] {
				out = append(out, AuditFinding{Kind: AuditMappingBroken, CVMID: id,
					Detail: fmt.Sprintf("gpa %#x resolves to %#x (level %d), recorded %#x",
						gpa, pa, level, c.mappings[gpa])})
				continue
			}
			if !c.owned[pa] {
				out = append(out, AuditFinding{Kind: AuditMappingBroken, CVMID: id,
					Detail: fmt.Sprintf("gpa %#x maps unowned frame %#x", gpa, pa)})
			}
		}
		out = append(out, s.auditTableTree(c)...)
	}
	return out
}

// auditTableTree walks the secure stage-2 tree breadth-first, checking
// every table frame below the root is secure and owned, and descending
// into the hypervisor's shared subtree only to check for secure leaves.
func (s *SM) auditTableTree(c *CVM) []AuditFinding {
	var out []AuditFinding
	rootEntries := ptw.RootSize(true) / 8
	type frame struct {
		pa    uint64
		level int
	}
	var queue []frame
	for i := uint64(0); i < rootEntries; i++ {
		pte, err := s.ram.ReadUint64(c.hgatpRoot + i*8)
		if err != nil || pte&isa.PTEValid == 0 {
			continue
		}
		target := (pte >> isa.PTEPPNShift) << isa.PageShift
		if pte&(isa.PTERead|isa.PTEWrite|isa.PTEExec) != 0 {
			continue // huge-page leaf at the root: nothing to descend
		}
		if i == SharedSlot && c.sharedSubtable != 0 && target == c.sharedSubtable {
			// The spliced shared subtree is deliberately normal memory;
			// only its leaf targets are constrained.
			if err := s.validateTableLevelQuiet(target, 1); err != nil {
				out = append(out, AuditFinding{Kind: AuditSharedLeafSecure, CVMID: c.ID,
					Detail: err.Error()})
			}
			continue
		}
		queue = append(queue, frame{target, 1})
	}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		if !s.alloc.pool.contains(f.pa, isa.PageSize) {
			out = append(out, AuditFinding{Kind: AuditTableEscape, CVMID: c.ID,
				Detail: fmt.Sprintf("level-%d table frame %#x in normal memory", f.level, f.pa)})
			continue // do not chase pointers through normal memory
		}
		if !c.owned[f.pa] {
			out = append(out, AuditFinding{Kind: AuditTableEscape, CVMID: c.ID,
				Detail: fmt.Sprintf("level-%d table frame %#x not owned by this CVM", f.level, f.pa)})
		}
		if f.level == 0 {
			continue
		}
		for i := uint64(0); i < 512; i++ {
			pte, err := s.ram.ReadUint64(f.pa + i*8)
			if err != nil || pte&isa.PTEValid == 0 {
				continue
			}
			if pte&(isa.PTERead|isa.PTEWrite|isa.PTEExec) != 0 {
				continue // leaf: covered by the mapping audit
			}
			queue = append(queue, frame{(pte >> isa.PTEPPNShift) << isa.PageShift, f.level - 1})
		}
	}
	return out
}

// validateTableLevelQuiet is validateTableLevel without cycle charging
// (the auditor is a diagnostic facility, not an architectural path).
func (s *SM) validateTableLevelQuiet(tablePA uint64, level int) error {
	if s.alloc.pool.contains(tablePA, isa.PageSize) {
		return fmt.Errorf("shared subtable frame %#x in secure memory", tablePA)
	}
	for i := uint64(0); i < 512; i++ {
		pte, err := s.ram.ReadUint64(tablePA + i*8)
		if err != nil {
			return err
		}
		if pte&isa.PTEValid == 0 {
			continue
		}
		target := (pte >> isa.PTEPPNShift) << isa.PageShift
		if pte&(isa.PTERead|isa.PTEWrite|isa.PTEExec) == 0 {
			if level == 0 {
				return fmt.Errorf("non-leaf at level 0 in shared subtree")
			}
			if err := s.validateTableLevelQuiet(target, level-1); err != nil {
				return err
			}
			continue
		}
		span := uint64(isa.PageSize) << (9 * uint(level))
		if s.leafTouchesSecure(target, span) {
			return fmt.Errorf("shared leaf %#x maps secure memory", target)
		}
	}
	return nil
}

// auditIOPMP verifies no DMA window intersects a secure region.
func (s *SM) auditIOPMP() []AuditFinding {
	var out []AuditFinding
	for _, w := range s.machine.IOPMP.Windows() {
		for _, r := range s.alloc.pool.regions {
			if w.Entry.Base < r.end && w.Entry.Base+w.Entry.Size > r.base {
				out = append(out, AuditFinding{Kind: AuditIOPMPWindow, Detail: fmt.Sprintf(
					"domain %d window [%#x,+%#x) intersects secure region [%#x,%#x)",
					w.Domain, w.Entry.Base, w.Entry.Size, r.base, r.end)})
			}
		}
	}
	return out
}

// auditPoolLeak checks global block conservation: blocks either sit on
// the free list or are held by a live CVM's caches — nothing else.
func (s *SM) auditPoolLeak() []AuditFinding {
	held := 0
	for _, id := range s.cvmIDs() {
		c := s.life.cvms[id]
		for _, cache := range append([]*pageCache{&c.tableCache}, vcpuCaches(c)...) {
			held += len(cache.blocks())
		}
	}
	if s.alloc.pool.nfree+held != s.alloc.pool.ntotal {
		return []AuditFinding{{Kind: AuditPoolLeak, Detail: fmt.Sprintf(
			"free %d + held %d != total %d blocks", s.alloc.pool.nfree, held, s.alloc.pool.ntotal)}}
	}
	return nil
}

// auditGatePMP verifies every compartment's gate unit against the
// boundary plan: entry 0 NAPOT R/W over the compartment's own window,
// every other entry off, and the unit must admit its owner. A corrupted
// unit is reported against the compartment it isolates (RepairGatePMP
// restores the plan; the finding clears on the next audit).
func (s *SM) auditGatePMP() []AuditFinding {
	var out []AuditFinding
	for c := Compartment(0); c < NumCompartments; c++ {
		u := &s.comp[c].gate
		want, err := pmp.EncodeNAPOT(CompRegion(c), compRegionSize)
		if err != nil {
			continue // regions are NAPOT-encodable by construction
		}
		wantCfg := uint8(pmp.PermR | pmp.PermW | pmp.ANAPOT<<3)
		switch {
		case u.Addr(0) != want:
			out = append(out, AuditFinding{Kind: AuditCompartmentPMP, Compartment: c,
				Detail: fmt.Sprintf("%s gate entry 0 addr %#x, want %#x", c, u.Addr(0), want)})
		case u.Cfg(0) != wantCfg:
			out = append(out, AuditFinding{Kind: AuditCompartmentPMP, Compartment: c,
				Detail: fmt.Sprintf("%s gate entry 0 cfg %#x, want %#x", c, u.Cfg(0), wantCfg)})
		case !u.Check(CompRegion(c), 8, pmp.AccessWrite, false):
			out = append(out, AuditFinding{Kind: AuditCompartmentPMP, Compartment: c,
				Detail: fmt.Sprintf("%s gate denies its own window %#x", c, CompRegion(c))})
		}
		for i := 1; i < pmp.NumEntries; i++ {
			if u.Cfg(i) != 0 || u.Addr(i) != 0 {
				out = append(out, AuditFinding{Kind: AuditCompartmentPMP, Compartment: c,
					Detail: fmt.Sprintf("%s gate entry %d not off (cfg %#x addr %#x)",
						c, i, u.Cfg(i), u.Addr(i))})
			}
		}
	}
	return out
}

// RepairPMP re-programs the SM's PMP plan — base entries plus the
// Normal-mode (closed) pool view — on every hart from the SM's
// authoritative region list, recovering from injected or transient PMP
// corruption. It returns the number of entries rewritten.
func (s *SM) RepairPMP() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	fixed := 0
	for _, h := range s.machine.Harts {
		if err := s.programBasePMP(h); err == nil {
			fixed += 2
		}
		for i, r := range s.alloc.pool.regions {
			idx := pmpPoolFirst + i
			if idx > pmpPoolLast {
				break
			}
			raw, err := pmp.EncodeNAPOT(r.base, roundPow2(r.end-r.base))
			if err != nil {
				continue
			}
			h.PMP.SetAddr(idx, raw)
			h.PMP.SetCfg(idx, pmp.ANAPOT<<3)
			h.Advance(h.Cost.PMPWriteEntry)
			fixed++
		}
		h.TLB.FlushAll()
	}
	return fixed
}

// MappedFrames returns the secure physical frames currently backing a
// CVM's data pages (not page-table or vCPU frames), in ascending GPA
// order. This is the fault-injection seam for memory-corruption
// campaigns: flipping bits in these frames models DRAM faults inside
// confidential memory with a deterministic target enumeration.
func (s *SM) MappedFrames(id int) ([]uint64, error) {
	c, err := s.cvm(id)
	if err != nil {
		return nil, wrapErr("mapped-frames", id, err)
	}
	pas := make([]uint64, 0, len(c.mappings))
	for _, gpa := range sortedKeys(c.mappings) {
		pas = append(pas, c.mappings[gpa])
	}
	return pas, nil
}

// cvmIDs returns live CVM ids in ascending order (deterministic audits).
func (s *SM) cvmIDs() []int {
	ids := make([]int, 0, len(s.life.cvms))
	for id := range s.life.cvms {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// sortedKeys returns map keys in ascending order.
func sortedKeys[V any](m map[uint64]V) []uint64 {
	ks := make([]uint64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}
