package obs

import (
	"testing"
	"time"
)

// TestAccumulatorThreshold: commits fire only when the pending delta crosses
// the threshold, and carry the net delta, not the event count.
func TestAccumulatorThreshold(t *testing.T) {
	var commits []uint64
	a := NewAccumulator(100, 0, func(d uint64) { commits = append(commits, d) })

	for range 9 {
		a.Add(10) // 90 pending: below threshold
	}
	if len(commits) != 0 {
		t.Fatalf("committed below threshold: %v", commits)
	}
	a.Add(15) // 105 >= 100
	if len(commits) != 1 || commits[0] != 105 {
		t.Fatalf("threshold commit: %v, want [105]", commits)
	}
	if a.Pending() != 0 {
		t.Fatalf("pending %d after commit, want 0", a.Pending())
	}

	a.Add(7)
	a.Flush()
	if len(commits) != 2 || commits[1] != 7 {
		t.Fatalf("flush commit: %v, want tail 7", commits)
	}
	// Flushing with nothing pending must not emit a zero-delta commit.
	a.Flush()
	if len(commits) != 2 {
		t.Fatalf("empty flush committed: %v", commits)
	}
}

// TestAccumulatorZeroThreshold: threshold 0 degenerates to per-event commits.
func TestAccumulatorZeroThreshold(t *testing.T) {
	var commits []uint64
	a := NewAccumulator(0, 0, func(d uint64) { commits = append(commits, d) })
	a.Add(1)
	a.Add(2)
	if len(commits) != 2 || commits[0] != 1 || commits[1] != 2 {
		t.Fatalf("per-event commits: %v", commits)
	}
}

// TestAccumulatorInterval: the time trigger commits a sub-threshold batch
// once the interval elapses.
func TestAccumulatorInterval(t *testing.T) {
	var commits []uint64
	a := NewAccumulator(1<<60, time.Millisecond, func(d uint64) { commits = append(commits, d) })
	a.Add(5)
	if len(commits) != 0 {
		t.Fatal("committed before the interval elapsed")
	}
	time.Sleep(5 * time.Millisecond)
	a.Add(3)
	if len(commits) != 1 || commits[0] != 8 {
		t.Fatalf("interval commit: %v, want [8]", commits)
	}
}
