package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// ProfTier identifies which execution engine dispatched the sampled
// instruction. The shared execute() back half cannot know the tier, so
// each engine loop passes its own constant at the sample hook.
type ProfTier uint8

// Engine tiers.
const (
	ProfTierSlow  ProfTier = iota // reference interpreter Step()
	ProfTierTrace                 // RunBatch on the trace engine
)

// String implements fmt.Stringer.
func (t ProfTier) String() string {
	switch t {
	case ProfTierSlow:
		return "slow"
	case ProfTierTrace:
		return "trace"
	}
	return "?"
}

// DefaultProfilePeriod is the sampling period (simulated cycles between
// samples) selected when a profile is requested without an explicit
// period. Chosen so aes-class workloads collect thousands of samples per
// run while the armed overhead stays well under the 3% bench gate.
const DefaultProfilePeriod = 8192

// profKey is one folded-stacks leaf: where a sample landed.
type profKey struct {
	cvm  int32
	mode string // static isa.PrivMode.String() value
	tier ProfTier
	pc   uint64
}

// matKey is one cell of the per-CVM × per-mode cycle matrix.
type matKey struct {
	cvm  int32
	mode string
}

// HartProfiler is one hart's cycle-domain sampling profiler. The hart's
// engine loops check Next against the hart cycle counter (one nil-check
// plus one compare when armed; just the nil-check when off) and call
// Sample when due. Sampling is cycle-driven — never wall clock — so a
// seeded run produces a byte-identical profile every time, and Sample
// touches no simulated state, so armed runs stay bit-identical to
// unarmed runs.
//
// Weights use a cursor model mirroring Attribution: each sample charges
// the cycles elapsed since the previous sample to the sampled location,
// so the per-hart matrix total provably equals the hart's attributed
// cycle total after both are flushed to the same final cycle. The
// per-location split is a sampling estimate; the totals are exact.
type HartProfiler struct {
	// Period is the sampling interval in simulated cycles.
	Period uint64
	// Next is the cycle at which the next sample is due. Only the
	// owning hart goroutine reads or advances it.
	Next uint64

	pid int32
	tid int32

	mu       sync.Mutex
	last     uint64 // cycle up to which the matrix has been charged
	cvm      int32  // current CVM (tracked via Scope.AttrSwitch)
	lastMode string // mode of the most recent sample (flush target)
	samples  map[profKey]uint64
	matrix   map[matKey]uint64
}

// Sample records one sample: the PC about to execute next, the current
// privilege mode (its static String() form), and the dispatching engine
// tier, charging the cycles since the previous sample to that location.
func (p *HartProfiler) Sample(pc uint64, mode string, tier ProfTier, now uint64) {
	p.mu.Lock()
	if now > p.last {
		d := now - p.last
		p.samples[profKey{cvm: p.cvm, mode: mode, tier: tier, pc: pc}] += d
		p.matrix[matKey{cvm: p.cvm, mode: mode}] += d
		p.last = now
	}
	p.lastMode = mode
	p.Next = now + p.Period
	p.mu.Unlock()
}

// Flush charges the remaining [last, now) cycles to the matrix under the
// most recently sampled (cvm, mode) cell, so the matrix total equals the
// hart's final cycle count exactly — matching what AttrFlush does for
// the attribution table.
func (p *HartProfiler) Flush(now uint64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if now > p.last {
		p.matrix[matKey{cvm: p.cvm, mode: p.lastMode}] += now - p.last
		p.last = now
	}
	p.mu.Unlock()
}

// setCVM tracks world switches (called from Scope.AttrSwitch).
func (p *HartProfiler) setCVM(cvm int32) {
	p.mu.Lock()
	p.cvm = cvm
	p.mu.Unlock()
}

// profilers returns the sink's minted profilers sorted by (pid, tid).
func (s *Sink) sortedProfilers() []*HartProfiler {
	s.profMu.Lock()
	out := make([]*HartProfiler, 0, len(s.profilers))
	for _, p := range s.profilers {
		out = append(out, p)
	}
	s.profMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].pid != out[j].pid {
			return out[i].pid < out[j].pid
		}
		return out[i].tid < out[j].tid
	})
	return out
}

// ExportFoldedProfile writes the aggregated samples in folded-stacks
// form ("frame;frame;frame weight"), one line per sampled location,
// sorted, so flamegraph.pl / speedscope load it directly and seeded runs
// export byte-identical bodies. Frames are, outer to inner: scope,
// hart, CVM (or "host"), privilege mode, engine tier, program counter.
func (s *Sink) ExportFoldedProfile(w io.Writer) {
	if s == nil {
		return
	}
	var lines []string
	for _, p := range s.sortedProfilers() {
		p.mu.Lock()
		for k, wgt := range p.samples {
			cvm := "host"
			if k.cvm != NoCVM {
				cvm = fmt.Sprintf("cvm%d", k.cvm)
			}
			lines = append(lines, fmt.Sprintf("p%d;hart%d;%s;%s;%s;pc=0x%x %d",
				p.pid, p.tid, cvm, k.mode, k.tier, k.pc, wgt))
		}
		p.mu.Unlock()
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}

// ProfileCell is one exported (hart, CVM, mode) cycle-matrix cell.
type ProfileCell struct {
	PID    int32
	Hart   int32
	CVM    int32 // NoCVM for host-context cycles
	Mode   string
	Cycles uint64
}

// ProfileMatrix returns the per-CVM × per-mode cycle matrix sorted by
// (PID, Hart, CVM, Mode). After Flush, each hart's cells sum exactly to
// its attribution HartTotal.
func (s *Sink) ProfileMatrix() []ProfileCell {
	if s == nil {
		return nil
	}
	var cells []ProfileCell
	for _, p := range s.sortedProfilers() {
		p.mu.Lock()
		for k, v := range p.matrix {
			cells = append(cells, ProfileCell{PID: p.pid, Hart: p.tid, CVM: k.cvm, Mode: k.mode, Cycles: v})
		}
		p.mu.Unlock()
	}
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		if a.Hart != b.Hart {
			return a.Hart < b.Hart
		}
		if a.CVM != b.CVM {
			return a.CVM < b.CVM
		}
		return a.Mode < b.Mode
	})
	return cells
}

// Profiler mints (or returns) the sampling profiler for hart tid under
// this scope. Returns nil when the scope is nil or profiling is off
// (ProfilePeriod 0), so the hart-side hook collapses to one nil-check.
func (sc *Scope) Profiler(tid int) *HartProfiler {
	if sc == nil || sc.sink.profPeriod == 0 {
		return nil
	}
	s := sc.sink
	k := attrHartKey{pid: sc.pid, tid: int32(tid)}
	s.profMu.Lock()
	defer s.profMu.Unlock()
	p, ok := s.profilers[k]
	if !ok {
		p = &HartProfiler{
			Period:   s.profPeriod,
			Next:     s.profPeriod,
			pid:      sc.pid,
			tid:      int32(tid),
			cvm:      NoCVM,
			lastMode: "M", // harts boot in machine mode
			samples:  make(map[profKey]uint64),
			matrix:   make(map[matKey]uint64),
		}
		s.profilers[k] = p
	}
	return p
}

// profSetCVM routes a world-switch CVM change to the hart's profiler, if
// one was minted.
func (s *Sink) profSetCVM(pid, tid, cvm int32) {
	s.profMu.Lock()
	p := s.profilers[attrHartKey{pid: pid, tid: tid}]
	s.profMu.Unlock()
	if p != nil {
		p.setCVM(cvm)
	}
}
