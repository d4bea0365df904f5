package virtio

import "fmt"

// NetHdrLen is the virtio-net header prepended to every frame.
const NetHdrLen = 12

// Net is a virtio network device. Frames written to a TX queue are
// delivered to the peer (another Net, or a host-side tap function);
// frames arriving from the peer land in RX buffers the driver posted.
// With pairs > 1 the device exposes multiple RX/TX queue pairs (queue
// 2p = RX, 2p+1 = TX); each pair has its own pending backlog, and
// injected traffic steers by pair.
type Net struct {
	dev   *MMIODev
	pairs int

	// peer receives frames this device transmits.
	peer interface {
		deliverTo(pair int, frame []byte) error
	}

	// pending holds frames awaiting RX buffers, one backlog per pair.
	pending [][][]byte

	// frame is the reusable TX gather buffer; the payload slice handed
	// to Tap/peer aliases it and is valid only for the duration of the
	// call (receivers copy, as a real NIC consumer would).
	frame []byte
	used  []UsedElem

	// Tap, when set, receives every transmitted frame instead of a peer
	// (host-side load generators use this).
	Tap func(frame []byte)

	TxFrames, RxFrames uint64
	TxBytes, RxBytes   uint64
	DroppedRx          uint64
}

// Queue indices for pair 0 (the classic two-queue layout).
const (
	NetRXQ = 0
	NetTXQ = 1
)

// NewNet creates a single-pair network device at base with the given
// guest-memory view.
func NewNet(base uint64, mem MemIO) *Net {
	return NewNetMQ(base, mem, 1)
}

// NewNetMQ creates a network device with the given number of RX/TX
// queue pairs.
func NewNetMQ(base uint64, mem MemIO, pairs int) *Net {
	if pairs < 1 {
		pairs = 1
	}
	n := &Net{pairs: pairs, pending: make([][][]byte, pairs)}
	n.dev = NewMMIODev(base, n, mem)
	return n
}

// Dev returns the MMIO transport.
func (n *Net) Dev() *MMIODev { return n.dev }

// Pair cross-connects two devices (VM-to-VM loopback link).
func Pair(a, b *Net) {
	a.peer = b
	b.peer = a
}

// DeviceID implements Backend (1 = network device).
func (n *Net) DeviceID() uint32 { return 1 }

// NumQueues implements Backend.
func (n *Net) NumQueues() int { return 2 * n.pairs }

// Config implements Backend: a fixed MAC address.
func (n *Net) Config() []byte { return []byte{0x52, 0x54, 0x5A, 0x49, 0x4F, 0x4E} }

// Notify implements Backend. Even queues are RX, odd are TX.
func (n *Net) Notify(q int) error {
	if q < 0 || q >= 2*n.pairs {
		return fmt.Errorf("virtio-net: bad queue %d", q)
	}
	if q%2 == NetTXQ {
		return n.drainTX(q / 2)
	}
	// Fresh RX buffers: flush anything queued for this pair.
	return n.flushPending(q / 2)
}

// drainTX drains one pair's TX ring in batches: one avail-index read and
// one used-ring publish per batch.
func (n *Net) drainTX(pair int) error {
	queue := n.dev.Queue(2*pair + NetTXQ)
	mem := n.dev.Mem()
	for {
		chains, err := queue.PopBatch(mem, 0)
		if err != nil {
			return err
		}
		if len(chains) == 0 {
			return nil
		}
		if cap(n.used) < int(queue.Size) {
			n.used = make([]UsedElem, 0, int(queue.Size))
		}
		n.used = n.used[:0]
		completed := 0
		for i := range chains {
			ch := &chains[i]
			fl := int(ch.ReadCap())
			if cap(n.frame) < fl {
				n.frame = make([]byte, fl)
			}
			frame := n.frame[:fl]
			if _, err := ch.ReadAllInto(mem, frame); err != nil {
				return err
			}
			n.used = append(n.used, UsedElem{Head: ch.Head, Written: 0})
			completed++
			if len(frame) < NetHdrLen {
				continue
			}
			payload := frame[NetHdrLen:]
			n.TxFrames++
			n.TxBytes += uint64(len(payload))
			switch {
			case n.Tap != nil:
				n.Tap(payload)
			case n.peer != nil:
				if err := n.peer.deliverTo(pair, payload); err != nil {
					return err
				}
			}
		}
		if err := queue.PushBatch(mem, n.used); err != nil {
			return err
		}
		n.dev.Completed(completed)
	}
}

// Inject queues a frame toward the guest on pair 0 (host-side senders
// use this).
func (n *Net) Inject(payload []byte) error { return n.deliverTo(0, payload) }

// InjectTo queues a frame toward the guest on a specific queue pair.
func (n *Net) InjectTo(pair int, payload []byte) error { return n.deliverTo(pair, payload) }

func (n *Net) deliverTo(pair int, payload []byte) error {
	if pair < 0 || pair >= n.pairs {
		pair = 0
	}
	n.pending[pair] = append(n.pending[pair], append([]byte(nil), payload...))
	return n.flushPending(pair)
}

func (n *Net) flushPending(pair int) error {
	queue := n.dev.Queue(2*pair + NetRXQ)
	mem := n.dev.Mem()
	pend := n.pending[pair]
	defer func() { n.pending[pair] = pend }()
	completed := 0
	for len(pend) > 0 {
		// One chain per frame: RX is not batched.
		chains, err := queue.PopBatch(mem, 1)
		if err != nil {
			return err
		}
		if len(chains) == 0 {
			break // no buffers; frames stay pending
		}
		ch := &chains[0]
		frame := make([]byte, NetHdrLen+len(pend[0]))
		copy(frame[NetHdrLen:], pend[0])
		if ch.WriteCap() < uint32(len(frame)) {
			n.DroppedRx++
			if err := queue.PushBatch(mem, []UsedElem{{Head: ch.Head}}); err != nil {
				return err
			}
			pend = pend[1:]
			continue
		}
		w, err := ch.WriteAll(mem, frame)
		if err != nil {
			return err
		}
		if err := queue.PushBatch(mem, []UsedElem{{Head: ch.Head, Written: w}}); err != nil {
			return err
		}
		n.RxFrames++
		n.RxBytes += uint64(len(pend[0]))
		pend = pend[1:]
		completed++
	}
	n.dev.Completed(completed)
	return nil
}
