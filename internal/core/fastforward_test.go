package core

import (
	"math/rand/v2"
	"slices"
	"testing"

	"localbp/internal/bpu"
	"localbp/internal/bpu/loop"
	"localbp/internal/bpu/tage"
	"localbp/internal/obs"
	"localbp/internal/repair"
	"localbp/internal/trace"
	"localbp/internal/workloads"
)

type ffScheme struct {
	name string
	mk   func() repair.Scheme
}

var ffForward = ffScheme{"forward-coalesce", func() repair.Scheme {
	return repair.NewForwardWalk(loop.Loop128(), 32, repair.Ports{CkptRead: 4, BHTWrite: 2}, true)
}}

var ffFourSchemes = []ffScheme{
	{"baseline", func() repair.Scheme { return nil }},
	{"no-repair", func() repair.Scheme { return repair.NewNone(loop.Loop128()) }},
	ffForward,
	{"perfect", func() repair.Scheme { return repair.NewPerfect(loop.Loop128()) }},
}

// ffCheck runs tr on cfg under each scheme twice, fast-forwarded and cycle
// by cycle, and requires every Stats field, the debug stall counters and the
// full CPI stack to be bit-identical. It returns the CPI stacks summed over
// the schemes.
func ffCheck(t *testing.T, name string, tr []trace.Inst, cfg Config, schemes []ffScheme) [obs.NumCPIBuckets]int64 {
	t.Helper()
	var sum [obs.NumCPIBuckets]int64
	for _, sc := range schemes {
		runOne := func(disableFF bool) (Stats, [3]int64, [obs.NumCPIBuckets]int64) {
			cfg := cfg
			cfg.DisableFastForward = disableFF
			cpi := obs.NewCPIStack()
			cfg.Obs = &obs.Hooks{CPI: cpi}
			c := New(cfg, bpu.NewUnit(tage.KB8(), sc.mk()), tr)
			st := c.Run()
			fq, rf, nr, _ := c.DebugAllocStalls()
			var stacks [obs.NumCPIBuckets]int64
			cpi.Buckets(func(b obs.CPIBucket, n int64) { stacks[b] = n })
			return st, [3]int64{fq, rf, nr}, stacks
		}
		ffSt, ffDbg, ffCPI := runOne(false)
		plainSt, plainDbg, plainCPI := runOne(true)
		if ffSt != plainSt {
			t.Errorf("%s/%s: stats diverge\n  ff:    %+v\n  plain: %+v", name, sc.name, ffSt, plainSt)
		}
		if ffDbg != plainDbg {
			t.Errorf("%s/%s: dbg stall counters diverge: ff=%v plain=%v", name, sc.name, ffDbg, plainDbg)
		}
		if ffCPI != plainCPI {
			t.Errorf("%s/%s: CPI stacks diverge\n  ff:    %v\n  plain: %v", name, sc.name, ffCPI, plainCPI)
		}
		for b, n := range plainCPI {
			sum[b] += n
		}
	}
	return sum
}

// TestFastForwardDifferential pins the event-driven stepping's exactness
// contract on the first six quick-suite workloads and a stable-content loop,
// each under four schemes.
func TestFastForwardDifferential(t *testing.T) {
	for _, w := range workloads.QuickSuite()[:6] {
		ffCheck(t, w.Name, w.Generate(12_000), DefaultConfig(), ffFourSchemes)
	}
	ffCheck(t, "loop", loopTrace(2_000), DefaultConfig(), ffFourSchemes)
}

// TestFastForwardSuiteDifferential sweeps the full quick suite and every
// StressSuite rung under forward-coalesce: the fast-forwarded run must be
// bit-identical to the cycle-by-cycle run on each.
func TestFastForwardSuiteDifferential(t *testing.T) {
	for _, w := range append(workloads.QuickSuite(), workloads.StressSuite()...) {
		ffCheck(t, w.Name, w.Generate(8_000), DefaultConfig(), []ffScheme{ffForward})
	}
}

// TestFastForwardTinyLSQDifferential covers the fast-forward's LSQ-full
// clamp in idleUntil. The Table 2 buffers never fill — a slot is busy for
// one cycle and at most Width memory ops take slots per cycle — so this arm
// shrinks them to Width or below, where the lsq-full bucket fires.
func TestFastForwardTinyLSQDifferential(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LoadBuffer, cfg.StoreBuffer = 2, 1
	var lsqFull int64
	for _, w := range workloads.QuickSuite()[:6] {
		lsqFull += ffCheck(t, w.Name, w.Generate(10_000), cfg, []ffScheme{ffForward})[obs.CPILSQFull]
	}
	if lsqFull == 0 {
		t.Fatal("lsq-full never fired: the LSQ-full clamp went untested")
	}
	// An idle window that spans an LSQ-full flip is rare; a one-entry load
	// buffer on the aliasing stressor produces one, so dropping the clamp
	// makes this run diverge.
	cfg.LoadBuffer = 1
	w, ok := workloads.ByName("stress-aliasing-0512")
	if !ok {
		t.Fatal("stress-aliasing-0512 not in the stress suite")
	}
	ffCheck(t, w.Name, w.Generate(10_000), cfg, []ffScheme{ffForward})
}

// loopTrace builds a trace with stable per-PC content: `iters` iterations of
// a fixed body ending in a taken back-branch. Unlike the synthetic workload
// generator (which draws operands per instance), every iteration carries
// byte-identical instructions, so the core settles into a periodic steady
// state. The two L1-resident loads keep ALU demand below bank capacity.
func loopTrace(iters int) []trace.Inst {
	body := []trace.Inst{
		{PC: 0x1000, Class: trace.ClassALU, Dst: 3, Src1: 1, Src2: 2},
		{PC: 0x1004, Class: trace.ClassALU, Dst: 4, Src1: 3, Src2: 1},
		{PC: 0x1008, Class: trace.ClassLoad, Addr: 0x8000, Dst: 5, Src1: 2},
		{PC: 0x100c, Class: trace.ClassALU, Dst: 6, Src1: 1, Src2: 2},
		{PC: 0x1010, Class: trace.ClassLoad, Addr: 0x8040, Dst: 7, Src1: 1},
		{PC: 0x1014, Class: trace.ClassALU, Dst: 8, Src1: 6, Src2: 3},
		{PC: 0x1018, Class: trace.ClassBranch, Taken: true, Target: 0x1000, Src1: 8},
	}
	tr := make([]trace.Inst, 0, len(body)*iters)
	for i := 0; i < iters; i++ {
		tr = append(tr, body...)
	}
	tr[len(tr)-1].Taken = false // fall through at the end
	return tr
}

// TestFastForwardWatchdogIdentical checks that a deadman trip under
// fast-forward fires at the same cycle with the same reason as the plain
// loop: the clamp makes the firing iteration run live.
func TestFastForwardWatchdogIdentical(t *testing.T) {
	// A load depending on itself never completes... not expressible; use a
	// program whose tail stalls: one instruction with an enormous fetch hold
	// via BTB pressure is fragile, so instead drive the deadman directly
	// with a tiny StallCycles and a long DRAM-bound dependency chain.
	tr := make([]trace.Inst, 600)
	for i := range tr {
		// Pointer-chase loads: serial DRAM misses, huge retire gaps.
		tr[i] = trace.Inst{PC: uint64(0x1000 + i*4), Class: trace.ClassLoad,
			Addr: uint64(i) * 64 * 8192, Dst: 1, Src1: 1}
	}
	runOne := func(disableFF bool) (Stats, error) {
		cfg := DefaultConfig()
		cfg.DisableFastForward = disableFF
		cfg.StallCycles = 40 // below a DRAM round trip: guaranteed trip
		c := New(cfg, baselineUnit(), tr)
		return c.RunChecked()
	}
	ffSt, ffErr := runOne(false)
	plainSt, plainErr := runOne(true)
	if (ffErr == nil) != (plainErr == nil) {
		t.Fatalf("watchdog divergence: ff err=%v plain err=%v", ffErr, plainErr)
	}
	if ffErr == nil {
		t.Fatalf("expected a deadman trip with StallCycles=40")
	}
	if ffSt.Cycles != plainSt.Cycles {
		t.Fatalf("deadman fired at different cycles: ff=%d plain=%d", ffSt.Cycles, plainSt.Cycles)
	}
	if ffErr.Error() != plainErr.Error() {
		t.Fatalf("stall errors differ:\n  ff:    %v\n  plain: %v", ffErr, plainErr)
	}
}

// TestResHeapOrdering exercises the resolution heap directly with near and
// far events interleaved: (done, seq) pop order, nothing popped before it is
// due, and nextDue tracking the earliest pending event.
func TestResHeapOrdering(t *testing.T) {
	var q resHeap
	var seq uint64
	mk := func(done int64) resolution {
		seq++
		return resolution{done: done, seq: seq}
	}
	ins := []int64{5, 3, 5, 2148, 3, 7, 6153, 2098}
	for _, d := range ins {
		q.insert(mk(d))
	}
	if got := q.len(); got != len(ins) {
		t.Fatalf("len = %d, want %d", got, len(ins))
	}
	if d, ok := q.nextDue(); !ok || d != 3 {
		t.Fatalf("nextDue = %d,%v, want 3,true", d, ok)
	}
	var popped []resolution
	for cyc := int64(0); cyc <= 6200; cyc++ {
		for {
			r, ok := q.popDue(cyc)
			if !ok {
				break
			}
			if r.done != cyc {
				t.Fatalf("event due at %d popped at cycle %d", r.done, cyc)
			}
			popped = append(popped, r)
		}
		if d, ok := q.nextDue(); ok && d <= cyc {
			t.Fatalf("cycle %d: nextDue %d left undrained", cyc, d)
		}
	}
	if q.len() != 0 {
		t.Fatalf("queue not empty after full drain: %d left", q.len())
	}
	if _, ok := q.nextDue(); ok {
		t.Fatal("nextDue reports an event on an empty queue")
	}
	if len(popped) != len(ins) {
		t.Fatalf("popped %d, want %d", len(popped), len(ins))
	}
	for i := 1; i < len(popped); i++ {
		a, b := popped[i-1], popped[i]
		if a.done > b.done || (a.done == b.done && a.seq > b.seq) {
			t.Fatalf("pop order violated at %d: (%d,%d) before (%d,%d)",
				i, a.done, a.seq, b.done, b.seq)
		}
	}

	// Many same-cycle ties, inserted as the core does (seq ascending, done
	// in the future) while earlier events drain: each cycle's events must
	// pop in seq order.
	rng := rand.New(rand.NewPCG(3, 4))
	var last resolution
	for cyc := int64(0); cyc < 5_000; cyc++ {
		for {
			r, ok := q.popDue(cyc)
			if !ok {
				break
			}
			if r.done != cyc || (last.done == r.done && last.seq > r.seq) {
				t.Fatalf("cycle %d: popped (%d,%d) after (%d,%d)", cyc, r.done, r.seq, last.done, last.seq)
			}
			last = r
		}
		for n := rng.IntN(5); n > 0; n-- {
			q.insert(mk(cyc + 1 + rng.Int64N(8)))
		}
	}
}

// TestSlotRingMatchesReference checks the load/store buffer ring against a
// naive multiset of free cycles, where a take re-busies the minimum until
// max(min, at)+1: with non-decreasing `at` the two agree on minFree after
// every take.
func TestSlotRingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{1, 2, 3, 56, 72} {
		ring := newSlotRing(n)
		ref := make([]int64, n)
		at := int64(0)
		for i := 0; i < 20_000; i++ {
			// Mostly same-cycle or next-cycle takes (bursts that fill the
			// buffer), with occasional idle gaps.
			switch k := rng.IntN(10); {
			case k < 5:
			case k < 9:
				at++
			default:
				at += rng.Int64N(2 * int64(n))
			}
			ring.take1(at)
			m := 0
			for j := range ref {
				if ref[j] < ref[m] {
					m = j
				}
			}
			ref[m] = max(ref[m], at) + 1
			want := slices.Min(ref)
			if got := ring.minFree(); got != want {
				t.Fatalf("n=%d take %d at=%d: minFree = %d, reference %d", n, i, at, got, want)
			}
		}
	}
}
