package localbp

import (
	"math"
	"testing"

	"localbp/internal/trace"
)

// TestObsAllocGuard pins the observability layer's allocation contract:
// its cost is a fixed per-run setup (registry maps, tracer ring, histogram
// buckets), never per-cycle or per-event work. The guard measures the
// allocation delta between an obs-enabled and an obs-disabled simulation at
// two trace lengths; if any hot-path code allocated per cycle or per event,
// the delta would grow with the trace. The tracer ring capacity (512) is
// far below either run's event count, so the retained-event copy is the
// same size at both lengths.
func TestObsAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run allocation measurement")
	}
	w, ok := Workload("cloud-compression")
	if !ok {
		t.Fatal("workload missing")
	}
	obsOpts := []Option{WithCPIStack(), WithCounters(), WithEventTrace(512)}
	allocs := func(tr []trace.Inst, opts ...Option) float64 {
		return testing.AllocsPerRun(1, func() {
			if _, err := FromSource(trace.NewSliceSource(tr), ForwardWalk(), opts...); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := w.Generate(30_000)
	long := w.Generate(60_000)
	dShort := allocs(short, obsOpts...) - allocs(short)
	dLong := allocs(long, obsOpts...) - allocs(long)
	// The two deltas must be the same fixed setup cost; a handful of slack
	// covers incidental map-bucket splits from differing counter values.
	if diff := math.Abs(dLong - dShort); diff > 8 {
		t.Fatalf("obs allocation overhead scales with trace length: +%.0f allocs at 30k insts, +%.0f at 60k (delta %.0f)",
			dShort, dLong, diff)
	}
	if dShort < 0 {
		t.Fatalf("obs-enabled run allocated less than disabled (%.0f): measurement broken", dShort)
	}
}
