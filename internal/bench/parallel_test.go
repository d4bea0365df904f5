package bench

import (
	"testing"

	"zion/internal/hart"
	"zion/internal/platform"
	"zion/internal/sm"
	"zion/internal/workloads"
)

// lockstepKernels is every guest workload the paper's tables are built
// from: the eight rv8 kernels (T1/E1–E3 scaling, A-series ablations) plus
// CoreMark (E4). The lockstep suite runs each one sequentially and under
// the parallel engine and requires bit-identical per-hart fingerprints.
func lockstepKernels() []workloads.Kernel {
	ks := workloads.RV8()
	return append(ks, workloads.Coremark())
}

// TestLockstepPaperWorkloads is the determinism gate for the parallel
// engine: for every paper-table workload, two harts each running a
// private copy must retire bit-identical cycles, instret, and trap mix
// whether the harts run sequentially, free-running under the quantum
// barrier, or in Ordered (reference-interleaving) mode. The small quantum
// forces thousands of barrier crossings per run.
func TestLockstepPaperWorkloads(t *testing.T) {
	const harts = 2
	for _, k := range lockstepKernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			scale := 64
			seq, _, err := RunWorkloadCopies(k, scale, harts, hart.EngineTrace, nil)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			for _, cfg := range []platform.EngineConfig{
				{Quantum: 4096},
				{Quantum: 4096, Ordered: true},
				// Adaptive sizing must preserve the same contract: the
				// resize schedule is simulated-state-deterministic, so a
				// full-stack guest run stays bit-identical to sequential
				// even while the quantum moves underneath it.
				{Quantum: 4096, Adaptive: true, MinQuantum: 512, MaxQuantum: 1 << 16},
			} {
				cfg := cfg
				par, _, err := RunWorkloadCopies(k, scale, harts, hart.EngineTrace, &cfg)
				if err != nil {
					t.Fatalf("parallel %+v: %v", cfg, err)
				}
				for i := range seq {
					if !seq[i].Equal(par[i]) {
						t.Errorf("cfg %+v hart %d diverged:\n  sequential %v\n  parallel   %v",
							cfg, i, seq[i], par[i])
					}
				}
			}
		})
	}
}

// TestParallelQuadEngineBitIdentity closes the engine/scheduling matrix:
// the same two-hart quantum-barrier run must produce bit-identical
// per-hart fingerprints under the compiled-trace tier and the slow
// reference interpreter. Together with runBothWays (sequential) and
// TestQuadEngineLockstepPaperWorkloads (all nine tables), this pins every
// cell of the slow/trace × sequential/parallel grid.
func TestParallelQuadEngineBitIdentity(t *testing.T) {
	k := lockstepKernels()[0] // aes
	cfg := platform.EngineConfig{Quantum: 4096}
	engines := hart.Engines()
	var ref []HartFingerprint
	for i, eng := range engines {
		fps, _, err := RunWorkloadCopies(k, 32, 2, eng, &cfg)
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if i == 0 {
			ref = fps
			continue
		}
		for h := range ref {
			if !ref[h].Equal(fps[h]) {
				t.Errorf("hart %d: %v vs %v divergence:\n  %v\n  %v",
					h, engines[0], eng, ref[h], fps[h])
			}
		}
	}
}

// TestQuadEngineLockstepPaperWorkloads proves bit-identity of both
// execution tiers on every paper-table workload: the eight rv8 kernels
// plus CoreMark, each run to completion under each engine, comparing the
// full per-hart fingerprint (cycles, instret, trap mix, TLB/PMP/PTW
// counters). This is the trace tier's end-to-end contract on the exact
// code the evaluation tables are built from.
func TestQuadEngineLockstepPaperWorkloads(t *testing.T) {
	engines := hart.Engines()
	for _, k := range lockstepKernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			var ref []HartFingerprint
			for i, eng := range engines {
				fps, _, err := RunWorkloadCopies(k, 32, 1, eng, nil)
				if err != nil {
					t.Fatalf("%v: %v", eng, err)
				}
				if i == 0 {
					ref = fps
					continue
				}
				for h := range ref {
					if !ref[h].Equal(fps[h]) {
						t.Errorf("hart %d: %v vs %v divergence:\n  %v\n  %v",
							h, engines[0], eng, ref[h], fps[h])
					}
				}
			}
		})
	}
}

// TestConcurrentCVMCreation creates and runs one CVM per hart on two
// harts simultaneously: the SM's lifecycle path (pool allocation, id
// assignment, measurement, vCPU creation) races from two goroutines and
// must both survive it and stay deterministic in everything
// cycle-accounted. A rerun must reproduce each hart exactly.
func TestConcurrentCVMCreation(t *testing.T) {
	k := lockstepKernels()[0] // aes
	cfg := platform.EngineConfig{Quantum: 4096}
	first, _, err := RunWorkloadCopies(k, 8, 2, hart.EngineTrace, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, fp := range first {
		if fp.Instret == 0 {
			t.Errorf("hart %d retired no instructions", i)
		}
	}
	again, _, err := RunWorkloadCopies(k, 8, 2, hart.EngineTrace, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if !first[i].Equal(again[i]) {
			t.Errorf("hart %d not reproducible: %v vs %v", i, first[i], again[i])
		}
	}
}

// TestFreeModeWorkloadEquivalence drives the full guest stack (CVM
// creation, SM, hypervisor, fast-path execution) under EngineFree and
// requires the same per-hart fingerprints as EngineBlock: private
// workload copies exchange no state, so the relaxed delivery order must
// not change anything architectural end to end.
func TestFreeModeWorkloadEquivalence(t *testing.T) {
	k := lockstepKernels()[0] // aes
	block := platform.EngineConfig{Quantum: 4096}
	ref, _, err := RunWorkloadCopies(k, 16, 2, hart.EngineTrace, &block)
	if err != nil {
		t.Fatal(err)
	}
	free := platform.EngineConfig{Quantum: 4096, Mode: platform.EngineFree}
	got, _, err := RunWorkloadCopies(k, 16, 2, hart.EngineTrace, &free)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if !ref[i].Equal(got[i]) {
			t.Errorf("hart %d free/block divergence:\n  block %v\n  free  %v", i, ref[i], got[i])
		}
	}
}

// TestScalingHartCounts pins the sweep points RunParallelHost measures.
func TestScalingHartCounts(t *testing.T) {
	for _, tc := range []struct {
		harts int
		want  []int
	}{
		{1, []int{1}},
		{2, []int{1, 2}},
		{4, []int{1, 2, 4}},
		{6, []int{1, 2, 4, 6}},
		{8, []int{1, 2, 4, 8}},
	} {
		got := scalingHartCounts(tc.harts)
		if len(got) != len(tc.want) {
			t.Errorf("scalingHartCounts(%d) = %v, want %v", tc.harts, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("scalingHartCounts(%d) = %v, want %v", tc.harts, got, tc.want)
				break
			}
		}
	}
}

// TestShootdownDuringPeerFastPath lands a cross-hart PMP+TLB update in
// the middle of a peer's fast-path CVM run: hart 1 registers a second
// secure pool, whose PMP reprogramming and TLB shootdown are delivered to
// hart 0 at a quantum barrier while hart 0 is executing decoded-page
// guest code. The CVM must complete, and the whole interaction must be
// identical between free-running and Ordered mode.
func TestShootdownDuringPeerFastPath(t *testing.T) {
	k := lockstepKernels()[0] // aes: fast-path heavy
	run := func(ordered bool) HartFingerprint {
		e := NewEnv(EnvConfig{Harts: 2, SM: sm.Config{SchedQuantum: rv8TickQuantum()}})
		runners := []platform.HartRunner{
			e.cvmRunner(k, 8),
			func(h *hart.Hart) error {
				// Registering a pool reprograms every hart's PMP and
				// flushes every TLB — delivered to hart 0 mid-run via the
				// barrier. Do it twice to land shootdowns in two epochs.
				for i := 0; i < 2; i++ {
					if err := e.HV.RegisterSecurePool(h, 4<<20); err != nil {
						return err
					}
					if !h.CheckYield() {
						return nil
					}
					h.Cycles = h.QuantumDeadline // move into the next epoch
				}
				return nil
			},
		}
		cfg := platform.EngineConfig{Quantum: 4096, Ordered: ordered}
		if err := e.M.RunParallel(cfg, runners); err != nil {
			t.Fatalf("ordered=%v: %v", ordered, err)
		}
		if n := e.M.Harts[0].FastPathStats().FetchHits; n == 0 {
			t.Fatalf("ordered=%v: hart 0 never ran the fast path", ordered)
		}
		return Fingerprint(e.M.Harts[0])
	}
	free := run(false)
	ord := run(true)
	if !free.Equal(ord) {
		t.Errorf("hart 0 free/ordered divergence:\n  free    %v\n  ordered %v", free, ord)
	}
}
