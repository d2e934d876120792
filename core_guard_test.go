package localbp

import (
	"testing"

	"localbp/internal/trace"
)

// TestCoreLoopAllocGuard pins the hot-path allocation contract after the
// zero-alloc overhaul: a simulation's allocations are a fixed per-run setup
// (predictor tables, ROB/queue arrays, the pre-sized branch-record pool),
// never per-instruction, per-branch or per-cycle work. Two guards enforce
// it:
//
//  1. scaling — doubling the trace length must not grow the allocation
//     count (the pre-overhaul loop boxed every branch resolution through
//     the heap interface, which this catches immediately);
//  2. budget — the absolute per-run count stays within the known setup
//     cost, so steady-state allocations cannot hide behind a shrinking
//     setup elsewhere.
func TestCoreLoopAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run allocation measurement")
	}
	w, ok := Workload("cloud-compression")
	if !ok {
		t.Fatal("workload missing")
	}
	allocs := func(tr []trace.Inst) float64 {
		return testing.AllocsPerRun(1, func() {
			if _, err := FromSource(trace.NewSliceSource(tr), ForwardWalk()); err != nil {
				t.Fatal(err)
			}
		})
	}
	aShort := allocs(w.Generate(30_000))
	aLong := allocs(w.Generate(60_000))
	// A handful of slack covers incidental runtime-internal allocations;
	// any per-branch or per-cycle allocation would add thousands.
	if aLong > aShort+64 {
		t.Fatalf("core-loop allocations scale with trace length: %.0f at 30k insts, %.0f at 60k",
			aShort, aLong)
	}
	// Known setup cost is ~2.7k allocations (predictor tables, caches,
	// arenas). 4096 catches any return of per-branch allocation (which
	// sat at ~20k for 120k insts) while tolerating moderate setup growth.
	if aShort > 4096 {
		t.Fatalf("per-run setup allocations %.0f exceed the 4096 budget", aShort)
	}
}
