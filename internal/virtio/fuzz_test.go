package virtio

import (
	"errors"
	"testing"
)

// The fuzz harness's shared window: two pages at memBase. Ring addresses
// are drawn from a span reaching 64 bytes past either edge, so rings
// straddle the window as often as they sit inside it.
const (
	fzWindow = 0x2000
	fzSlack  = 0x40
)

// windowMemIO is the device's DMA view in the fuzz harness: the shared
// window alone, which refuses every access outside it with
// *OutOfWindowError, wrapped so the harness sees every access the queue
// makes. It records refusals, records writes, and fails the test on any
// read that strays from the descriptor table or the avail ring — the only
// guest memory a pop may read.
type windowMemIO struct {
	t       *testing.T
	win     MemIO
	desc    [2]uint64 // [lo, hi) of the descriptor table
	avail   [2]uint64 // [lo, hi) of the avail ring: flags, idx, Size heads
	refused int
	writes  int
}

func newWindowMemIO(t *testing.T, win MemIO, q *Queue) *windowMemIO {
	n := uint64(q.Size)
	return &windowMemIO{
		t:     t,
		win:   win,
		desc:  [2]uint64{q.DescGPA, q.DescGPA + 16*n},
		avail: [2]uint64{q.AvailGPA, q.AvailGPA + 4 + 2*n},
	}
}

func (m *windowMemIO) note(gpa uint64, n int, err error) error {
	end := gpa + uint64(n)
	in := func(r [2]uint64) bool { return gpa >= r[0] && end <= r[1] && end >= gpa }
	if !in(m.desc) && !in(m.avail) {
		m.t.Errorf("read [%#x, +%d) outside the descriptor table %#x and avail ring %#x", gpa, n, m.desc, m.avail)
	}
	if err != nil {
		m.refused++
	}
	return err
}

func (m *windowMemIO) ReadBytes(gpa uint64, n int) ([]byte, error) {
	b, err := m.win.ReadBytes(gpa, n)
	return b, m.note(gpa, n, err)
}

func (m *windowMemIO) ReadInto(gpa uint64, b []byte) error {
	return m.note(gpa, len(b), m.win.ReadInto(gpa, b))
}

func (m *windowMemIO) WriteBytes(gpa uint64, b []byte) error {
	m.writes++
	return m.win.WriteBytes(gpa, b)
}

// checkPop holds one pop's outcome to the validation contract: a typed
// rejection, or chains that are well formed and were read entirely from
// inside the window.
func checkPop(t *testing.T, m *windowMemIO, q *Queue, chains []Chain, err error) {
	t.Helper()
	if m.writes != 0 {
		t.Errorf("pop wrote guest memory %d times", m.writes)
	}
	if err != nil {
		var ce *ChainError
		var oe *OutOfWindowError
		if !errors.As(err, &ce) && !errors.As(err, &oe) {
			t.Fatalf("untyped rejection %T: %v", err, err)
		}
		return
	}
	if m.refused != 0 {
		t.Fatalf("%d out-of-window reads refused, yet the pop succeeded", m.refused)
	}
	if len(chains) > int(q.Size) {
		t.Errorf("%d chains popped from a %d-slot ring", len(chains), q.Size)
	}
	for _, c := range chains {
		if c.Head >= q.Size {
			t.Errorf("chain head %d past queue size %d", c.Head, q.Size)
		}
		segs := len(c.ReadGPA) + len(c.WriteGPA)
		if segs == 0 || segs > int(q.Size) {
			t.Errorf("chain %d has %d segments on a %d-slot ring", c.Head, segs, q.Size)
		}
		for _, segs := range [][]segment{c.ReadGPA, c.WriteGPA} {
			for _, s := range segs {
				if s.Len > maxSegLen || s.GPA+uint64(s.Len) < s.GPA {
					t.Errorf("chain %d: segment %#x+%d escaped length validation", c.Head, s.GPA, s.Len)
				}
			}
		}
	}
}

// FuzzPopBatch drives the device-side pop over arbitrary ring bytes and
// queue geometry. PopBatch, with the fuzzed max and with max 1 (the net
// device's RX path), must return well-formed chains or a typed
// *ChainError / *OutOfWindowError, never panic, and never read guest
// memory outside the shared window or beyond the queue's own rings.
func FuzzPopBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, ring []byte, size, last uint16, max int8, descOff, availOff uint16) {
		win := NewBytesMemIO(memBase, fzWindow)
		if len(ring) > fzWindow {
			ring = ring[:fzWindow]
		}
		if err := win.WriteBytes(memBase, ring); err != nil {
			t.Fatal(err)
		}
		geom := Queue{
			Size:      size % (maxQueue + 1),
			DescGPA:   memBase - fzSlack + uint64(descOff)%(fzWindow+2*fzSlack),
			AvailGPA:  memBase - fzSlack + uint64(availOff)%(fzWindow+2*fzSlack),
			Ready:     true,
			lastAvail: last,
		}

		q := geom
		m := newWindowMemIO(t, win, &q)
		chains, err := q.PopBatch(m, int(max))
		checkPop(t, m, &q, chains, err)
		if max > 0 && len(chains) > int(max) {
			t.Errorf("%d chains popped with max %d", len(chains), max)
		}
		// A batch moves the avail cursor past exactly the chains it
		// returns; a rejected batch does not move it at all.
		if moved := int(q.lastAvail - last); moved != len(chains) {
			t.Errorf("PopBatch moved the avail cursor %d for %d chains (err %v)", moved, len(chains), err)
		}

		q = geom
		m = newWindowMemIO(t, win, &q)
		chains, err = q.PopBatch(m, 1)
		checkPop(t, m, &q, chains, err)
		if len(chains) > 1 {
			t.Errorf("%d chains popped with max 1", len(chains))
		}
	})
}
