package core

import "localbp/internal/bpu"

// resolution is a pending branch-execution event.
type resolution struct {
	done int64
	seq  uint64
	rob  int64 // absolute ROB index
	rec  *bpu.BranchRec
}

// before is the resolution order: (done, seq) ascending, so branches due in
// the same cycle resolve oldest first.
func before(a, b *resolution) bool {
	return a.done < b.done || (a.done == b.done && a.seq < b.seq)
}

// resHeap is the pending-resolution queue: a binary min-heap in before
// order. It is typed (container/heap would box every element through `any`)
// and the core preallocates it to the branch-record pool bound, so
// steady-state inserts and pops never allocate.
type resHeap []resolution

func (h resHeap) len() int { return len(h) }

// insert schedules r.
func (h *resHeap) insert(r resolution) {
	q := append(*h, r)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !before(&r, &q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = r
	*h = q
}

// popDue removes and returns the earliest resolution if it is due at or
// before cycle; ok is false otherwise.
func (h *resHeap) popDue(cycle int64) (r resolution, ok bool) {
	q := *h
	if len(q) == 0 || q[0].done > cycle {
		return resolution{}, false
	}
	r = q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	*h = q
	if n == 0 {
		return r, true
	}
	i := 0
	for {
		k := 2*i + 1
		if k >= n {
			break
		}
		if k+1 < n && before(&q[k+1], &q[k]) {
			k++
		}
		if !before(&q[k], &last) {
			break
		}
		q[i] = q[k]
		i = k
	}
	q[i] = last
	return r, true
}

// nextDue returns the earliest pending resolve cycle; ok is false when the
// queue is empty.
func (h resHeap) nextDue() (int64, bool) {
	if len(h) == 0 {
		return 0, false
	}
	return h[0].done, true
}

// each calls fn for every pending resolution in unspecified order (the
// auditor's read-only cross-check).
func (h resHeap) each(fn func(*resolution)) {
	for i := range h {
		fn(&h[i])
	}
}
