package core

import (
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

// ffCheck runs tr under each scheme twice, fast-forwarded (with retire
// bursts) and cycle by cycle, and requires every Stats field, the debug
// stall counters and the full CPI stack to be bit-identical.
func ffCheck(t *testing.T, name string, tr []trace.Inst, schemes []ffScheme) {
	t.Helper()
	for _, sc := range schemes {
		runOne := func(disableFF bool) (Stats, [3]int64, [obs.NumCPIBuckets]int64) {
			cfg := DefaultConfig()
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
	}
}

// TestFastForwardDifferential pins the event-driven stepping's exactness
// contract on the first six quick-suite workloads and a stable-content loop,
// each under four schemes.
func TestFastForwardDifferential(t *testing.T) {
	for _, w := range workloads.QuickSuite()[:6] {
		ffCheck(t, w.Name, w.Generate(12_000), ffFourSchemes)
	}
	ffCheck(t, "loop", loopTrace(2_000), ffFourSchemes)
}

// TestFastForwardSuiteDifferential sweeps the full quick suite and every
// StressSuite rung under forward-coalesce: the fast-forwarded run must be
// bit-identical to the cycle-by-cycle run on each.
func TestFastForwardSuiteDifferential(t *testing.T) {
	for _, w := range append(workloads.QuickSuite(), workloads.StressSuite()...) {
		ffCheck(t, w.Name, w.Generate(8_000), []ffScheme{ffForward})
	}
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

// TestCalQueueOrdering exercises the calendar queue directly: (done, seq)
// pop order, overflow migration, and nextDue across window advances.
func TestCalQueueOrdering(t *testing.T) {
	q := newCalQueue()
	var seq uint64
	mk := func(done int64) resolution {
		seq++
		return resolution{done: done, seq: seq}
	}
	// In-window, same-cycle, and far-overflow events interleaved.
	ins := []int64{5, 3, 5, calWindow + 100, 3, 7, 3*calWindow + 9, calWindow + 50}
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
	// Drain cycle by cycle far enough to cross both overflow horizons.
	for cyc := int64(0); cyc <= 3*calWindow+10; cyc++ {
		q.drain(cyc, func(r *resolution) { popped = append(popped, *r) })
	}
	if q.len() != 0 {
		t.Fatalf("queue not empty after full drain: %d left", q.len())
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
}

// TestCalQueueJumpOntoOverflow reproduces the fast-forward/overflow corner:
// with only an overflow entry pending, a clock jump straight to its due
// cycle must still drain it (idleUntil stops one cycle short; the queue
// itself must migrate correctly when drained at due-1 then due).
func TestCalQueueJumpOntoOverflow(t *testing.T) {
	q := newCalQueue()
	due := 2*calWindow + 7
	q.insert(resolution{done: due, seq: 1})
	if d, ok := q.nextDue(); !ok || d != due {
		t.Fatalf("nextDue = %d,%v, want %d,true", d, ok, due)
	}
	// Jump exactly as the fast-forward does: drain at due-1 (migration
	// cycle), then at due (delivery cycle).
	var got []int64
	q.drain(due-1, func(r *resolution) { got = append(got, r.done) })
	if len(got) != 0 {
		t.Fatalf("entry delivered early at cycle %d", due-1)
	}
	q.drain(due, func(r *resolution) { got = append(got, r.done) })
	if len(got) != 1 || got[0] != due {
		t.Fatalf("entry not delivered at its due cycle: got %v", got)
	}
	if q.len() != 0 {
		t.Fatalf("queue should be empty")
	}
}
