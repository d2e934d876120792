package obs

import (
	"fmt"
	"strings"
)

// CPIBucket identifies one slice of the CPI stack. Every core cycle is
// attributed to exactly one bucket; the auditor enforces that the bucket
// counts sum to the total cycle count (audit.InvCPIAccounting).
type CPIBucket uint8

// The CPI-stack taxonomy, in display order. Classification is a priority
// decision tree evaluated once per cycle (see core.classifyCycle and
// DESIGN.md §11):
//
//  1. retired-work: at least one instruction retired this cycle.
//  2. front-end-resteer: the ROB is empty and the front end is still
//     refilling after a resteer (mispredict flush, early resteer, or BTB
//     miss) — the classic misprediction penalty.
//  3. memory-bound: the ROB head is an in-flight load or store.
//  4. repair-busy: the repair scheme holds the BHT/checkpoint ports busy.
//  5. rob-full: allocation is blocked because the ROB is at capacity.
//  6. lsq-full: every load-buffer or every store-buffer slot is busy. A
//     slot is busy for one cycle per take (the buffers model port
//     pressure, not occupancy until retire), so this fires only when a
//     buffer has Width or fewer entries — never at Table 2's 72/56.
//  7. alloc-stall: residual — nothing retired and no more specific cause
//     matched (e.g. a non-memory op still executing at the ROB head, or an
//     empty ROB with no pending resteer).
const (
	CPIRetired CPIBucket = iota
	CPIFrontendResteer
	CPIMemoryBound
	CPIRepairBusy
	CPIROBFull
	CPILSQFull
	CPIAllocStall
	NumCPIBuckets
)

var cpiNames = [NumCPIBuckets]string{
	CPIRetired:         "retired-work",
	CPIFrontendResteer: "front-end-resteer",
	CPIMemoryBound:     "memory-bound",
	CPIRepairBusy:      "repair-busy",
	CPIROBFull:         "rob-full",
	CPILSQFull:         "lsq-full",
	CPIAllocStall:      "alloc-stall",
}

// String returns the bucket's stable display name.
func (b CPIBucket) String() string {
	if b < NumCPIBuckets {
		return cpiNames[b]
	}
	return fmt.Sprintf("cpi-bucket-%d", uint8(b))
}

// CPIStack accumulates per-bucket cycle counts for one run.
type CPIStack struct {
	counts [NumCPIBuckets]int64
}

// NewCPIStack returns a zeroed stack.
func NewCPIStack() *CPIStack { return &CPIStack{} }

// Add attributes one cycle to bucket b.
func (s *CPIStack) Add(b CPIBucket) { s.counts[b]++ }

// AddN attributes n cycles to bucket b in one step. The core's idle-cycle
// fast-forward uses it to account a whole skipped window at once; the
// attribution is exact because the fast-forward clamps the window so the
// classification cannot change inside it.
func (s *CPIStack) AddN(b CPIBucket, n int64) { s.counts[b] += n }

// Count returns the cycles attributed to bucket b.
func (s *CPIStack) Count(b CPIBucket) int64 { return s.counts[b] }

// Total returns the sum over all buckets; the auditor checks it against the
// core's cycle count.
func (s *CPIStack) Total() int64 {
	var t int64
	for _, c := range s.counts {
		t += c
	}
	return t
}

// Fraction returns bucket b's share of the total (0 with no cycles).
func (s *CPIStack) Fraction(b CPIBucket) float64 {
	t := s.Total()
	if t == 0 {
		return 0
	}
	return float64(s.counts[b]) / float64(t)
}

// Buckets calls fn for each bucket in display order.
func (s *CPIStack) Buckets(fn func(b CPIBucket, cycles int64)) {
	for b := CPIBucket(0); b < NumCPIBuckets; b++ {
		fn(b, s.counts[b])
	}
}

// String renders the stack as an aligned table with percentages.
func (s *CPIStack) String() string {
	var b strings.Builder
	t := s.Total()
	for i := CPIBucket(0); i < NumCPIBuckets; i++ {
		fmt.Fprintf(&b, "  %-18s %12d  %5.1f%%\n", cpiNames[i], s.counts[i], 100*s.Fraction(i))
	}
	fmt.Fprintf(&b, "  %-18s %12d\n", "total", t)
	return b.String()
}

// CPIBucketNames returns the display names in bucket order.
func CPIBucketNames() []string {
	out := make([]string, NumCPIBuckets)
	for i := range out {
		out[i] = cpiNames[i]
	}
	return out
}
