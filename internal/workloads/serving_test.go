package workloads

import (
	"testing"
	"time"

	"zion/internal/hart"
	"zion/internal/hv"
	"zion/internal/isa"
	"zion/internal/platform"
	"zion/internal/sm"
)

func newServingStack(t *testing.T) (*hv.Hypervisor, *hart.Hart) {
	t.Helper()
	m := platform.New(1, 512<<20)
	monitor, err := sm.New(m, sm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	k := hv.New(m, monitor, platform.RAMBase+0x0100_0000, 512<<20-0x0200_0000)
	h := m.Harts[0]
	h.Mode = isa.ModeS
	if err := k.RegisterSecurePool(h, 64<<20); err != nil {
		t.Fatal(err)
	}
	return k, h
}

func servingCfg(requests uint64) ServingConfig {
	return ServingConfig{
		CVMs: 8, Queues: 2, QueueSize: 64, Requests: requests,
		Depth: 16, ReqBytes: 512, Coalesce: 16, CoalesceTimeout: 2_000_000,
		Seed: 42,
	}
}

func TestServingSmoke(t *testing.T) {
	k, h := newServingStack(t)
	st, err := RunServing(k, h, nil, servingCfg(4000))
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 4000 {
		t.Fatalf("completed %d of 4000 requests", st.Requests)
	}
	if st.Reads+st.Writes != st.Requests {
		t.Fatalf("read/write split %d+%d != %d", st.Reads, st.Writes, st.Requests)
	}
	if st.Reads == 0 || st.Writes == 0 {
		t.Fatalf("degenerate op mix: %d reads, %d writes", st.Reads, st.Writes)
	}
	if st.P50 == 0 || st.P99 < st.P50 {
		t.Fatalf("implausible latency quantiles p50=%d p99=%d", st.P50, st.P99)
	}
	if st.Hist.Count() != st.Requests {
		t.Fatalf("histogram saw %d of %d requests", st.Hist.Count(), st.Requests)
	}
	if st.PoolHWM == 0 || st.PoolHWM > st.PoolSlots {
		t.Fatalf("implausible pool HWM %d of %d slots", st.PoolHWM, st.PoolSlots)
	}
	// Coalescing at 16 must cut interrupts well below one per request.
	if st.IRQsFired*4 > st.Requests {
		t.Fatalf("coalescing ineffective: %d IRQs for %d requests", st.IRQsFired, st.Requests)
	}
	if st.IRQsSuppressed == 0 {
		t.Fatal("expected suppressed interrupt notifications")
	}
	if st.DoorbellExits >= st.Requests {
		t.Fatalf("batching ineffective: %d doorbells for %d requests", st.DoorbellExits, st.Requests)
	}
}

// TestServingDeterministic pins the bit-identity contract: same seed,
// same config, fresh stacks — identical cycle count, exit counts and
// latency histogram.
func TestServingDeterministic(t *testing.T) {
	run := func() (a, b uint64, st *ServingStats) {
		k, h := newServingStack(t)
		st, err := RunServing(k, h, nil, servingCfg(2000))
		if err != nil {
			t.Fatal(err)
		}
		return st.Hist.Count(), st.Hist.Sum(), st
	}
	c1, s1, st1 := run()
	c2, s2, st2 := run()
	if c1 != c2 || s1 != s2 {
		t.Fatalf("histogram fingerprint diverged: (%d,%d) vs (%d,%d)", c1, s1, c2, s2)
	}
	if st1.Cycles != st2.Cycles {
		t.Fatalf("cycle counts diverged: %d vs %d", st1.Cycles, st2.Cycles)
	}
	if st1.DoorbellExits != st2.DoorbellExits || st1.IRQAckExits != st2.IRQAckExits ||
		st1.IRQsFired != st2.IRQsFired || st1.IRQsSuppressed != st2.IRQsSuppressed {
		t.Fatalf("exit accounting diverged: %+v vs %+v", st1, st2)
	}
	if st1.P50 != st2.P50 || st1.P99 != st2.P99 {
		t.Fatalf("quantiles diverged: p50 %d/%d p99 %d/%d", st1.P50, st2.P50, st1.P99, st2.P99)
	}
}

// TestServingBatchedBeatsBaseline is the shape behind the bench floor:
// multi-queue + batching + coalescing versus the single-queue unbatched
// single-request baseline, same seed and request count.
func TestServingBatchedBeatsBaseline(t *testing.T) {
	const requests = 2000
	kO, hO := newServingStack(t)
	opt, err := RunServing(kO, hO, nil, servingCfg(requests))
	if err != nil {
		t.Fatal(err)
	}
	kB, hB := newServingStack(t)
	base := servingCfg(requests)
	base.Queues = 1
	base.Depth = 1
	base.Coalesce = 1
	bst, err := RunServing(kB, hB, nil, base)
	if err != nil {
		t.Fatal(err)
	}
	if bst.Cycles < 2*opt.Cycles {
		t.Fatalf("batched path speedup %.2fx below the 2x floor (baseline %d, optimized %d cycles)",
			float64(bst.Cycles)/float64(opt.Cycles), bst.Cycles, opt.Cycles)
	}
	if bst.IRQsFired <= opt.IRQsFired {
		// The baseline fires one IRQ per request; coalescing must fire
		// far fewer for the same load.
		t.Fatalf("coalescing did not reduce IRQs: baseline %d, optimized %d", bst.IRQsFired, opt.IRQsFired)
	}
}

// A ring too small for one 3-descriptor chain must be rejected up front:
// clamping the in-flight depth to zero would post nothing and spin
// forever, so a regression fails on the timer instead of hanging the suite.
func TestServingRejectsTinyRing(t *testing.T) {
	for _, qs := range []uint16{1, 2} {
		k, h := newServingStack(t)
		cfg := servingCfg(64)
		cfg.QueueSize = qs
		done := make(chan error, 1)
		go func() {
			_, err := RunServing(k, h, nil, cfg)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("QueueSize %d: RunServing accepted a ring that cannot hold one chain", qs)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("QueueSize %d: RunServing did not return", qs)
		}
	}
}
