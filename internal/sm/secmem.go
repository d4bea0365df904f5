package sm

import (
	"errors"
	"fmt"
	"math/bits"

	"zion/internal/isa"
)

// BlockSize is the secure-memory block granule (§IV.D: default 256 KiB).
const BlockSize = 256 << 10

// BlockPages is the number of 4 KiB pages per block.
const BlockPages = BlockSize / isa.PageSize

// A block's page bitmap is one uint64: these fail to compile unless
// BlockPages is exactly 64.
const (
	_ uint = 64 - BlockPages
	_ uint = BlockPages - 64
)

// ErrPoolEmpty reports that the secure pool has no free blocks left; the
// caller must trigger the stage-3 expansion protocol with the hypervisor.
var ErrPoolEmpty = errors.New("sm: secure memory pool exhausted")

// block is one 256 KiB secure memory block: a node in the address-ordered
// circular doubly-linked free list, carrying a page-allocation bitmap once
// it has been handed out as a vCPU page cache or table arena.
type block struct {
	base       uint64
	prev, next *block
	// used marks allocated pages within the block, bit i for page i.
	used uint64
	free int
}

// allocPage hands out the lowest free page.
func (b *block) allocPage() (uint64, bool) {
	if b.free == 0 || b.used == ^uint64(0) {
		return 0, false
	}
	i := bits.TrailingZeros64(^b.used)
	b.used |= 1 << i
	b.free--
	return b.base + uint64(i)*isa.PageSize, true
}

// allocRun allocates n contiguous pages aligned to n*PageSize (page-table
// roots need a 16 KiB-aligned run of 4).
func (b *block) allocRun(n int) (uint64, bool) {
	if b.free < n {
		return 0, false
	}
	run := uint64(1)<<n - 1
	for i := 0; i+n <= BlockPages; i += n {
		if m := run << i; b.used&m == 0 {
			b.used |= m
			b.free -= n
			return b.base + uint64(i)*isa.PageSize, true
		}
	}
	return 0, false
}

func (b *block) freePage(pa uint64) error {
	i := int((pa - b.base) / isa.PageSize)
	if i < 0 || i >= BlockPages || b.used&(1<<i) == 0 {
		return fmt.Errorf("sm: double free or bad page %#x in block %#x", pa, b.base)
	}
	b.used &^= 1 << i
	b.free++
	return nil
}

// securePool is the SM's secure memory: every registered region is split
// into blocks linked in a circular list ordered by address, with
// allocation from the head (§IV.D, Figure 2).
type securePool struct {
	head   *block // lowest-address free block; nil when empty
	nfree  int
	ntotal int
	// regions records registered [base, end) ranges for membership tests
	// (PMP/IOPMP programming and ownership checks).
	regions []region
}

type region struct{ base, end uint64 }

// contains reports whether [pa, pa+n) lies inside secure memory.
func (p *securePool) contains(pa, n uint64) bool {
	for _, r := range p.regions {
		if pa >= r.base && pa+n <= r.end {
			return true
		}
	}
	return false
}

// register splits a new contiguous physical region into blocks and links
// them into the free list. base and size must be block-aligned.
func (p *securePool) register(base, size uint64) error {
	if base%BlockSize != 0 || size%BlockSize != 0 || size == 0 {
		return fmt.Errorf("sm: pool region [%#x,+%#x) not %d-aligned", base, size, BlockSize)
	}
	for _, r := range p.regions {
		if base < r.end && base+size > r.base {
			return fmt.Errorf("sm: pool region overlaps existing region [%#x,%#x)", r.base, r.end)
		}
	}
	p.regions = append(p.regions, region{base, base + size})
	for off := uint64(0); off < size; off += BlockSize {
		b := &block{base: base + off, free: BlockPages}
		p.insert(b)
	}
	return nil
}

// insert links b into the circular list keeping address order.
func (p *securePool) insert(b *block) {
	p.nfree++
	p.ntotal++
	if p.head == nil {
		b.prev, b.next = b, b
		p.head = b
		return
	}
	// Find insertion point: the first node with a larger base, scanning
	// from the head (blocks arrive mostly in order, so this is cheap).
	cur := p.head
	for {
		if cur.base > b.base {
			break
		}
		cur = cur.next
		if cur == p.head {
			break
		}
	}
	// Insert before cur.
	b.prev, b.next = cur.prev, cur
	cur.prev.next = b
	cur.prev = b
	if b.base < p.head.base {
		p.head = b
	}
}

// takeHead unlinks and returns the head block (O(1), §IV.D stage 2).
func (p *securePool) takeHead() (*block, error) {
	if p.head == nil {
		return nil, ErrPoolEmpty
	}
	b := p.head
	if b.next == b {
		p.head = nil
	} else {
		b.prev.next = b.next
		b.next.prev = b.prev
		p.head = b.next
	}
	b.prev, b.next = nil, nil
	p.nfree--
	return b, nil
}

// giveBack reinserts a fully free block into the list.
func (p *securePool) giveBack(b *block) {
	p.ntotal-- // insert() re-increments
	p.insert(b)
}

// FreeBlocks returns the number of blocks on the free list.
func (p *securePool) FreeBlocks() int { return p.nfree }

// verify is the allocator compartment's gate-crossing integrity
// self-check: the free-list ring must close with intact back links,
// every free-list block must be wholly free with counter and bitmap in
// agreement, and the free counter must match the ring length. It is
// read-only and cheap relative to any allocation it guards.
func (p *securePool) verify() error {
	if p.head == nil {
		if p.nfree != 0 {
			return fmt.Errorf("sm: empty free list but free counter %d", p.nfree)
		}
		return nil
	}
	count := 0
	cur := p.head
	for {
		if free := BlockPages - bits.OnesCount64(cur.used); free != cur.free {
			return fmt.Errorf("sm: block %#x free counter %d, bitmap says %d",
				cur.base, cur.free, free)
		}
		if cur.free != BlockPages {
			return fmt.Errorf("sm: free-list block %#x not wholly free (%d/%d)",
				cur.base, cur.free, BlockPages)
		}
		if cur.next == nil || cur.next.prev != cur {
			return fmt.Errorf("sm: free-list ring broken at block %#x", cur.base)
		}
		count++
		cur = cur.next
		if cur == p.head {
			break
		}
		if count > p.ntotal {
			return fmt.Errorf("sm: free-list ring does not close (walked %d > total %d)",
				count, p.ntotal)
		}
	}
	if count != p.nfree {
		return fmt.Errorf("sm: free counter %d, ring holds %d blocks", p.nfree, count)
	}
	return nil
}

// salvage repairs the free list to a consistent state after metadata
// corruption (the allocator compartment's quarantine-time state rescue):
// a block on the free list is authoritatively wholly free, so counters
// and bitmaps are reset from that ground truth, back links are rebuilt
// from forward links, and the free counter is recomputed from the ring.
// It returns a description of what was repaired so the post-mortem can
// carry it.
func (p *securePool) salvage() string {
	if p.head == nil {
		if p.nfree != 0 {
			old := p.nfree
			p.nfree = 0
			return fmt.Sprintf("reset free counter %d -> 0 (empty list)", old)
		}
		return ""
	}
	blocksFixed, linksFixed, count := 0, 0, 0
	cur := p.head
	for {
		if cur.free != BlockPages || cur.used != 0 {
			cur.used = 0
			cur.free = BlockPages
			blocksFixed++
		}
		if cur.next.prev != cur {
			cur.next.prev = cur
			linksFixed++
		}
		count++
		cur = cur.next
		if cur == p.head || count > p.ntotal {
			break
		}
	}
	counterFixed := p.nfree != count
	p.nfree = count
	if blocksFixed == 0 && linksFixed == 0 && !counterFixed {
		return ""
	}
	return fmt.Sprintf("salvaged free list: %d blocks reset, %d back links rebuilt, counter -> %d",
		blocksFixed, linksFixed, count)
}

// pageCache is a per-vCPU (or per-arena) fast allocation cache: the block
// currently assigned plus previously assigned blocks that still hold live
// pages (needed for reclamation).
type pageCache struct {
	current *block
	retired []*block
}

// AllocStage identifies which stage of the hierarchical allocator
// satisfied a request (drives the §V.C cycle accounting).
type AllocStage int

// Allocation stages per §IV.D.
const (
	StageCache  AllocStage = 1 // page cache hit
	StageBlock  AllocStage = 2 // new block unlinked from the pool
	StageExpand AllocStage = 3 // pool exhausted; hypervisor must expand
)

// allocPage implements the three-stage allocation of Figure 2. On
// ErrPoolEmpty the caller drives expansion and retries.
func (p *securePool) allocPage(c *pageCache) (uint64, AllocStage, error) {
	if c.current != nil {
		if pa, ok := c.current.allocPage(); ok {
			return pa, StageCache, nil
		}
		// Cache block exhausted: retire it and fall through.
		c.retired = append(c.retired, c.current)
		c.current = nil
	}
	b, err := p.takeHead()
	if err != nil {
		return 0, StageExpand, err
	}
	c.current = b
	pa, _ := b.allocPage()
	return pa, StageBlock, nil
}

// allocRun allocates n contiguous, n*PageSize-aligned pages for page-table
// roots, trying the cache first.
func (p *securePool) allocRun(c *pageCache, n int) (uint64, error) {
	if c.current != nil {
		if pa, ok := c.current.allocRun(n); ok {
			return pa, nil
		}
	}
	b, err := p.takeHead()
	if err != nil {
		return 0, err
	}
	if c.current != nil {
		c.retired = append(c.retired, c.current)
	}
	c.current = b
	pa, ok := b.allocRun(n)
	if !ok {
		return 0, fmt.Errorf("sm: fresh block cannot satisfy %d-page run", n)
	}
	return pa, nil
}

// releaseAll frees every page the cache ever allocated and returns the
// blocks to the pool (CVM teardown; pages must be scrubbed by the caller
// first).
func (p *securePool) releaseAll(c *pageCache) {
	give := func(b *block) {
		b.used = 0
		b.free = BlockPages
		p.giveBack(b)
	}
	if c.current != nil {
		give(c.current)
		c.current = nil
	}
	for _, b := range c.retired {
		give(b)
	}
	c.retired = nil
}

// blocks lists every block the cache currently holds (current + retired),
// for the invariant auditor's ownership/accounting cross-checks.
func (c *pageCache) blocks() []*block {
	var out []*block
	if c.current != nil {
		out = append(out, c.current)
	}
	return append(out, c.retired...)
}

// TotalBlocks returns the number of blocks ever registered with the pool
// (free + held by CVM caches).
func (p *securePool) TotalBlocks() int { return p.ntotal }

// ownerOf finds the cache block containing pa, for free operations.
func (c *pageCache) ownerOf(pa uint64) *block {
	if c.current != nil && pa >= c.current.base && pa < c.current.base+BlockSize {
		return c.current
	}
	for _, b := range c.retired {
		if pa >= b.base && pa < b.base+BlockSize {
			return b
		}
	}
	return nil
}
