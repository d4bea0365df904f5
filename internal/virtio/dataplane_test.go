package virtio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"zion/internal/telemetry"
)

// rawDesc writes descriptor i of a ring by hand — the tool for forging
// chains no well-behaved DriverView would post.
func rawDesc(t *testing.T, mem MemIO, descBase uint64, i uint16,
	addr uint64, ln uint32, flags, next uint16) {
	t.Helper()
	var d [16]byte
	binary.LittleEndian.PutUint64(d[0:], addr)
	binary.LittleEndian.PutUint32(d[8:], ln)
	binary.LittleEndian.PutUint16(d[12:], flags)
	binary.LittleEndian.PutUint16(d[14:], next)
	if err := mem.WriteBytes(descBase+uint64(i)*16, d[:]); err != nil {
		t.Fatal(err)
	}
}

// forgeAvail publishes head as avail entry `slot` and sets avail.idx.
func forgeAvail(t *testing.T, mem MemIO, availBase uint64, slot, head, idx uint16) {
	t.Helper()
	if err := writeU16(mem, availBase+4+uint64(slot)*2, head); err != nil {
		t.Fatal(err)
	}
	if err := writeU16(mem, availBase+2, idx); err != nil {
		t.Fatal(err)
	}
}

// chainKind pops one chain and returns the typed rejection kind.
func chainKind(t *testing.T, q *Queue, mem MemIO) ChainErrorKind {
	t.Helper()
	_, err := q.PopBatch(mem, 1)
	var ce *ChainError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *ChainError", err)
	}
	return ce.Kind
}

// Malformed chains are classified, not guessed at: each forged shape
// maps to its own ChainErrorKind.
func TestChainErrorKinds(t *testing.T) {
	fixture := func() (*Queue, MemIO, ringLayout) {
		mem := NewBytesMemIO(memBase, 1<<20)
		b := NewBlk(0x1000_0000, 4096, mem)
		l := layoutAt(memBase)
		b.Dev().SetupQueue(0, 4, l.desc, l.avail, l.used)
		return b.Dev().Queue(0), mem, l
	}

	t.Run("next-index cycle", func(t *testing.T) {
		q, mem, l := fixture()
		rawDesc(t, mem, l.desc, 0, l.buf, 16, descFNext, 1)
		rawDesc(t, mem, l.desc, 1, l.buf, 16, descFNext, 0) // 0 -> 1 -> 0
		forgeAvail(t, mem, l.avail, 0, 0, 1)
		if k := chainKind(t, q, mem); k != ChainLoop {
			t.Errorf("kind = %v, want ChainLoop", k)
		}
	})
	t.Run("chain longer than queue", func(t *testing.T) {
		q, mem, l := fixture()
		// 0 -> 1 -> 2 -> 3 -> 0: the revisit happens on the fifth hop,
		// after the walk has already consumed every slot.
		for i := uint16(0); i < 4; i++ {
			rawDesc(t, mem, l.desc, i, l.buf, 16, descFNext, (i+1)%4)
		}
		forgeAvail(t, mem, l.avail, 0, 0, 1)
		if k := chainKind(t, q, mem); k != ChainTooLong {
			t.Errorf("kind = %v, want ChainTooLong", k)
		}
	})
	t.Run("next past queue size", func(t *testing.T) {
		q, mem, l := fixture()
		rawDesc(t, mem, l.desc, 0, l.buf, 16, descFNext, 9)
		forgeAvail(t, mem, l.avail, 0, 0, 1)
		if k := chainKind(t, q, mem); k != ChainBadIndex {
			t.Errorf("kind = %v, want ChainBadIndex", k)
		}
	})
	t.Run("head past queue size", func(t *testing.T) {
		q, mem, l := fixture()
		forgeAvail(t, mem, l.avail, 0, 200, 1)
		if k := chainKind(t, q, mem); k != ChainBadIndex {
			t.Errorf("kind = %v, want ChainBadIndex", k)
		}
	})
	t.Run("segment length overflow", func(t *testing.T) {
		q, mem, l := fixture()
		rawDesc(t, mem, l.desc, 0, l.buf, 1<<31, 0, 0)
		forgeAvail(t, mem, l.avail, 0, 0, 1)
		if k := chainKind(t, q, mem); k != ChainLenOverflow {
			t.Errorf("kind = %v, want ChainLenOverflow", k)
		}
	})
	t.Run("gpa wraparound", func(t *testing.T) {
		q, mem, l := fixture()
		rawDesc(t, mem, l.desc, 0, ^uint64(0)-7, 16, 0, 0)
		forgeAvail(t, mem, l.avail, 0, 0, 1)
		if k := chainKind(t, q, mem); k != ChainLenOverflow {
			t.Errorf("kind = %v, want ChainLenOverflow", k)
		}
	})
	t.Run("avail index ahead of capacity", func(t *testing.T) {
		q, mem, l := fixture()
		rawDesc(t, mem, l.desc, 0, l.buf, 16, 0, 0)
		forgeAvail(t, mem, l.avail, 0, 0, 100) // 100 pending on a 4-deep ring
		_, err := q.PopBatch(mem, 0)
		var ce *ChainError
		if !errors.As(err, &ce) || ce.Kind != ChainBadAvail {
			t.Errorf("err = %v, want ChainBadAvail", err)
		}
	})
}

// A rejected chain poisons the device, not the machine: LastErr is the
// typed error, DEVICE_NEEDS_RESET is raised, and the rejected-DMA
// telemetry counter ticks — for forged chains and for out-of-window
// (private-memory) buffer addresses alike.
func TestNotifyRejectionRaisesNeedsResetAndCounter(t *testing.T) {
	sink := telemetry.New(telemetry.Config{})
	sc := sink.Scope()
	rejected := sc.Counter("virtio/rejected_dma")

	mem := NewBytesMemIO(memBase, 0x10000)
	b := NewBlk(0x1000_0000, 4096, mem)
	l := layoutAt(memBase)
	b.Dev().SetupQueue(0, 8, l.desc, l.avail, l.used)
	b.Dev().SetTelemetry(sc)

	// Forged loop.
	rawDesc(t, mem, l.desc, 0, l.buf, 16, descFNext, 0)
	forgeAvail(t, mem, l.avail, 0, 0, 1)
	b.Dev().MMIOWrite(NotifyOffset(), 4, 0)
	var ce *ChainError
	if !errors.As(b.Dev().LastErr, &ce) {
		t.Fatalf("LastErr = %v, want *ChainError", b.Dev().LastErr)
	}
	if b.Dev().MMIORead(0x070, 4)&0x40 == 0 {
		t.Error("DEVICE_NEEDS_RESET not raised for forged chain")
	}
	if rejected.Value() != 1 {
		t.Errorf("rejected_dma = %d after forged chain", rejected.Value())
	}

	// Out-of-window buffer address: points past the 0x10000-byte window,
	// the bytesMemIO stand-in for a CVM's private memory.
	b2 := NewBlk(0x1000_0000, 4096, mem)
	b2.Dev().SetupQueue(0, 8, l.desc, l.avail, l.used)
	b2.Dev().SetTelemetry(sc)
	rawDesc(t, mem, l.desc, 0, memBase+0x80000, 16, 0, 0)
	forgeAvail(t, mem, l.avail, 0, 0, 1)
	b2.Dev().MMIOWrite(NotifyOffset(), 4, 0)
	var oow *OutOfWindowError
	if !errors.As(b2.Dev().LastErr, &oow) {
		t.Fatalf("LastErr = %v, want *OutOfWindowError", b2.Dev().LastErr)
	}
	if rejected.Value() != 2 {
		t.Errorf("rejected_dma = %d after out-of-window DMA", rejected.Value())
	}
}

// opCountMemIO counts ring accesses by GPA region, to prove the batched
// pump's one-read/one-publish contract.
type opCountMemIO struct {
	MemIO
	reads  map[uint64]int // by GPA of the access
	writes map[uint64]int
}

func newOpCountMemIO(m MemIO) *opCountMemIO {
	return &opCountMemIO{MemIO: m, reads: map[uint64]int{}, writes: map[uint64]int{}}
}

func (m *opCountMemIO) ReadBytes(gpa uint64, n int) ([]byte, error) {
	m.reads[gpa]++
	return m.MemIO.ReadBytes(gpa, n)
}

func (m *opCountMemIO) ReadInto(gpa uint64, out []byte) error {
	m.reads[gpa]++
	return m.MemIO.ReadInto(gpa, out)
}

func (m *opCountMemIO) WriteBytes(gpa uint64, b []byte) error {
	m.writes[gpa]++
	return m.MemIO.WriteBytes(gpa, b)
}

// One doorbell over a batch of posted chains costs one avail-index read
// and one used-index publish — not one per chain.
func TestBatchedPumpRingRoundTrips(t *testing.T) {
	inner := NewBytesMemIO(memBase, 1<<20)
	mem := newOpCountMemIO(inner)
	b := NewBlk(0x1000_0000, 1<<20, mem)
	l := layoutAt(memBase)
	b.Dev().SetupQueue(0, 64, l.desc, l.avail, l.used)
	drv := NewDriverView(b.Dev().Queue(0), mem)

	const batch = 8
	for i := 0; i < batch; i++ {
		postBlkReq(t, drv, mem, l, BlkTOut, uint64(i), []byte{byte(i)}, 0)
	}
	availIdxReads := mem.reads[l.avail+2]
	usedIdxWrites := mem.writes[l.used+2]
	b.Dev().MMIOWrite(NotifyOffset(), 4, 0)
	if b.Dev().LastErr != nil {
		t.Fatal(b.Dev().LastErr)
	}
	if b.Writes != batch {
		t.Fatalf("processed %d of %d writes", b.Writes, batch)
	}
	// One avail-index read drains the batch; the pump loop pays one more
	// to observe the ring empty. Popping one chain per call would pay 8.
	if got := mem.reads[l.avail+2] - availIdxReads; got > 2 {
		t.Errorf("avail-index reads for the batch = %d, want <= 2", got)
	}
	if got := mem.writes[l.used+2] - usedIdxWrites; got != 1 {
		t.Errorf("used-index publishes for the batch = %d, want 1", got)
	}
	for i := 0; i < batch; i++ {
		if _, _, ok, err := drv.PollUsed(); !ok || err != nil {
			t.Fatalf("completion %d missing (%v)", i, err)
		}
	}
}

// The virtio hot path — post, doorbell, device pump, completion poll —
// runs allocation-free once the scratch buffers are warm.
func TestBlkPumpZeroAllocs(t *testing.T) {
	mem := NewBytesMemIO(memBase, 1<<20)
	b := NewBlk(0x1000_0000, 1<<20, mem)
	l := layoutAt(memBase)
	b.Dev().SetupQueue(0, 64, l.desc, l.avail, l.used)
	drv := NewDriverView(b.Dev().Queue(0), mem)

	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint32(hdr[0:], BlkTOut)
	payload := bytes.Repeat([]byte{0x5A}, 512)
	segs := []DriverSeg{
		{GPA: l.buf, Len: 16},
		{GPA: l.buf + 0x1000, Len: 512},
		{GPA: l.buf + 0x80, Len: 1, Writable: true},
	}
	once := func() {
		if err := mem.WriteBytes(l.buf, hdr); err != nil {
			t.Fatal(err)
		}
		if err := mem.WriteBytes(l.buf+0x1000, payload); err != nil {
			t.Fatal(err)
		}
		if _, err := drv.PostChain(segs); err != nil {
			t.Fatal(err)
		}
		b.Dev().MMIOWrite(NotifyOffset(), 4, 0)
		if b.Dev().LastErr != nil {
			t.Fatal(b.Dev().LastErr)
		}
		if _, _, ok, err := drv.PollUsed(); !ok || err != nil {
			t.Fatal("no completion", err)
		}
		b.Dev().MMIOWrite(0x064, 4, 1) // IRQ ack
	}
	once() // warm the scratch buffers
	if avg := testing.AllocsPerRun(100, once); avg != 0 {
		t.Errorf("virtio hot path allocates %.1f times per op, want 0", avg)
	}
}

// Multi-queue blk: requests on distinct queues complete independently,
// with per-queue rings and cursors.
func TestBlkMultiQueue(t *testing.T) {
	mem := NewBytesMemIO(memBase, 1<<20)
	b := NewBlkMQ(0x1000_0000, 1<<20, mem, 3)
	if b.NumQueues() != 3 {
		t.Fatalf("NumQueues = %d", b.NumQueues())
	}
	drvs := make([]*DriverView, 3)
	layouts := make([]ringLayout, 3)
	for q := 0; q < 3; q++ {
		l := layoutAt(memBase + uint64(q)*0x10000)
		b.Dev().SetupQueue(q, 16, l.desc, l.avail, l.used)
		drvs[q] = NewDriverView(b.Dev().Queue(q), mem)
		layouts[q] = l
	}
	// One write per queue, distinct sectors and bytes.
	for q := 0; q < 3; q++ {
		postBlkReq(t, drvs[q], mem, layouts[q], BlkTOut, uint64(q), []byte{0xC0 + byte(q)}, 0)
	}
	// Notify in reverse order to prove queue independence.
	for q := 2; q >= 0; q-- {
		b.Dev().MMIOWrite(NotifyOffset(), 4, uint64(q))
		if b.Dev().LastErr != nil {
			t.Fatalf("queue %d: %v", q, b.Dev().LastErr)
		}
	}
	for q := 0; q < 3; q++ {
		if _, _, ok, err := drvs[q].PollUsed(); !ok || err != nil {
			t.Errorf("queue %d completion missing (%v)", q, err)
		}
		if got := b.Disk()[uint64(q)*SectorSize]; got != 0xC0+byte(q) {
			t.Errorf("sector %d byte = %#x", q, got)
		}
	}
	if b.Writes != 3 {
		t.Errorf("writes = %d", b.Writes)
	}
}

// Coalescing by count: no IRQ until the threshold accumulates, then one
// IRQ for the whole group.
func TestCoalesceThreshold(t *testing.T) {
	mem := NewBytesMemIO(memBase, 1<<20)
	b := NewBlk(0x1000_0000, 4096, mem)
	d := b.Dev()
	var now uint64
	d.SetCoalesce(CoalesceConfig{MaxPend: 4, Timeout: 1 << 40}, func() uint64 { return now })
	for i := 0; i < 3; i++ {
		d.Completed(1)
		if d.IntStatus()&1 != 0 {
			t.Fatalf("IRQ fired at %d of 4 completions", i+1)
		}
	}
	if d.IRQsSuppressed != 3 {
		t.Errorf("suppressed = %d, want 3", d.IRQsSuppressed)
	}
	d.Completed(1)
	if d.IntStatus()&1 == 0 {
		t.Error("IRQ not fired at the threshold")
	}
	if d.IRQsFired != 1 || d.PendingCompletions() != 0 {
		t.Errorf("fired=%d pend=%d", d.IRQsFired, d.PendingCompletions())
	}
}

// Coalescing by time: a stalled partial group fires once the cycle
// timeout elapses — latency is bounded even when the threshold never
// fills.
func TestCoalesceTimeout(t *testing.T) {
	mem := NewBytesMemIO(memBase, 1<<20)
	b := NewBlk(0x1000_0000, 4096, mem)
	d := b.Dev()
	var now uint64
	d.SetCoalesce(CoalesceConfig{MaxPend: 100, Timeout: 1000}, func() uint64 { return now })
	d.Completed(2)
	if d.IntStatus()&1 != 0 {
		t.Fatal("IRQ fired below threshold and before timeout")
	}
	now = 999
	d.PollCoalesce()
	if d.IntStatus()&1 != 0 {
		t.Fatal("IRQ fired before the timeout elapsed")
	}
	now = 1001
	d.PollCoalesce()
	if d.IntStatus()&1 == 0 {
		t.Error("IRQ not fired after the timeout")
	}
	if d.PendingCompletions() != 0 {
		t.Errorf("pend = %d after timeout fire", d.PendingCompletions())
	}
}

// FlushCoalesced drains the pending group unconditionally — the
// end-of-run path that guarantees no completion is ever stranded.
func TestCoalesceFlush(t *testing.T) {
	mem := NewBytesMemIO(memBase, 1<<20)
	b := NewBlk(0x1000_0000, 4096, mem)
	d := b.Dev()
	var now uint64
	d.SetCoalesce(CoalesceConfig{MaxPend: 100, Timeout: 1 << 40}, func() uint64 { return now })
	d.Completed(5)
	if d.IntStatus()&1 != 0 {
		t.Fatal("premature IRQ")
	}
	d.FlushCoalesced()
	if d.IntStatus()&1 == 0 || d.PendingCompletions() != 0 {
		t.Error("flush did not deliver the pending group")
	}
	// Flushing an empty device is a no-op, not a spurious IRQ.
	d.MMIOWrite(0x064, 4, 1)
	d.FlushCoalesced()
	if d.IntStatus()&1 != 0 {
		t.Error("flush with nothing pending raised an IRQ")
	}
}

// Legacy mode (MaxPend <= 1) keeps the one-IRQ-per-notify contract that
// the interpreted drivers depend on.
func TestCoalesceDisabledKeepsPerNotifyIRQ(t *testing.T) {
	b, drv, l, mem := newBlkFixture(t, 1<<20)
	postBlkReq(t, drv, mem, l, BlkTOut, 0, []byte{1}, 0)
	b.Dev().MMIOWrite(NotifyOffset(), 4, 0)
	if b.Dev().IntStatus()&1 == 0 {
		t.Error("legacy notify did not raise the IRQ")
	}
	if b.Dev().IRQsFired != 1 {
		t.Errorf("IRQsFired = %d", b.Dev().IRQsFired)
	}
}

// Multi-pair net device: frames injected to pair 1 land in pair 1's RX
// queue, not pair 0's.
func TestNetMultiQueuePairs(t *testing.T) {
	mem := NewBytesMemIO(memBase, 1<<20)
	n := NewNetMQ(0x1000_0000, mem, 2)
	if n.NumQueues() != 4 {
		t.Fatalf("NumQueues = %d", n.NumQueues())
	}
	drvs := make([]*DriverView, 2)
	bufs := make([]uint64, 2)
	for pair := 0; pair < 2; pair++ {
		l := layoutAt(memBase + uint64(pair)*0x20000)
		rxq := 2 * pair
		n.Dev().SetupQueue(rxq, 8, l.desc, l.avail, l.used)
		n.Dev().SetupQueue(rxq+1, 8, l.desc+0x8000, l.avail+0x8000, l.used+0x8000)
		drvs[pair] = NewDriverView(n.Dev().Queue(rxq), mem)
		bufs[pair] = l.buf
		if _, err := drvs[pair].PostChain([]DriverSeg{{GPA: l.buf, Len: 128, Writable: true}}); err != nil {
			t.Fatal(err)
		}
		n.Dev().MMIOWrite(NotifyOffset(), 4, uint64(rxq))
	}
	if err := n.InjectTo(1, []byte("pair-one")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := drvs[0].PollUsed(); ok {
		t.Error("frame for pair 1 delivered to pair 0")
	}
	_, written, ok, err := drvs[1].PollUsed()
	if err != nil || !ok {
		t.Fatalf("pair-1 delivery missing (%v)", err)
	}
	if written != NetHdrLen+8 {
		t.Errorf("written = %d", written)
	}
	got, _ := mem.ReadBytes(bufs[1]+NetHdrLen, 8)
	if string(got) != "pair-one" {
		t.Errorf("payload = %q", got)
	}
}
