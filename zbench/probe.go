package main

import "time"

// The host this benchmark was built on switches between speed states
// about 1.6x apart, for tenths of a second to minutes at a time, so raw
// host-time medians of two 25-second runs differ by up to 30%. Every
// round is therefore bracketed by a fixed probe loop, and the end-to-end
// metrics are scaled to the host speed at which the probe takes probeRef:
// a time t measured next to a probe time p is reported as t*probeRef/p.
// The probe shares no code with the simulator, so a change to the
// program moves the scaled figures as it moves the raw ones.

// probeRef is the reference probe time (about its median on the 2-vCPU
// Xeon host the bounds were set on).
const probeRef = 500 * time.Microsecond

// probeIters sizes the probe near probeRef.
const probeIters = 25_000

// hostProbe times the probe: a switch-dispatched bytecode loop with
// loads and stores into a small array, the shape of the simulator's own
// hot loops.
func hostProbe() time.Duration {
	t := time.Now()
	sink += probeLoop(probeIters)
	return time.Since(t)
}

func probeLoop(iters int) uint64 {
	type ins struct{ op, a, b uint8 }
	prog := [...]ins{{0, 1, 2}, {1, 2, 3}, {2, 3, 1}, {3, 0, 4}, {0, 4, 5}, {4, 5, 6}, {1, 6, 7}, {5, 7, 0}}
	var regs [8]uint64
	var mem [4096]uint64
	regs[1] = 12345
	for i := 0; i < iters; i++ {
		for _, in := range prog {
			switch in.op {
			case 0:
				regs[in.b] = regs[in.a]*0x9E3779B97F4A7C15 + 1
			case 1:
				regs[in.b] = regs[in.a] ^ regs[in.a]>>13
			case 2:
				mem[regs[in.a]&4095] = regs[in.b]
			case 3:
				regs[in.b] += mem[regs[in.a]&4095]
			case 4:
				if regs[in.a]&1 == 0 {
					regs[in.b]++
				} else {
					regs[in.b]--
				}
			case 5:
				regs[in.b] = regs[in.a] + uint64(i)
			}
		}
	}
	return regs[0] + mem[7]
}

// hostScale is the factor that turns the round's host times into
// reference-speed times (1 when the round was not probed).
func (rs *roundStats) hostScale() float64 {
	if rs.probe <= 0 {
		return 1
	}
	return float64(probeRef) / float64(rs.probe)
}
