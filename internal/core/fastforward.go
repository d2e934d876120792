package core

// Idle-cycle fast-forward.
//
// Long stretches of the simulation are provably idle: the ROB head waits on
// a DRAM miss, fetch is held by a resteer penalty, or the only pending event
// is a branch resolution many cycles out. The plain loop burns one full
// iteration per idle cycle doing nothing but bumping counters. idleUntil
// computes the first cycle X at which anything observable can happen;
// skipIdle then applies the per-cycle bookkeeping of the skipped window in
// O(1) and jumps the clock to X.
//
// The contract is exactness, not approximation: a fast-forwarded run is
// bit-identical — cycles, every Stats counter, the CPI stack, watchdog
// errors — to the cycle-by-cycle run (TestFastForwardDifferential and the
// top-level golden test enforce this). That holds because an idle iteration
// touches exactly four things, each replayed by skipIdle:
//
//   - stepFetch increments FetchStallCycles while cycle < fetchHoldTo;
//   - stepAlloc increments exactly one of the dbg stall counters, picked by
//     the same (fq-empty, rob-full, not-ready) priority;
//   - the CPI stack attributes the cycle to one bucket;
//   - the cycle counter advances.
//
// idleUntil clamps X so that every condition those depend on is constant
// across [cycle, X): the next resolution due, the ROB head's completion, the
// alloc-queue head's ready cycle, the fetch hold, every CPI classification
// flip point, and the watchdog limit (so the deadman/budget iteration runs
// live and produces an identical StallError).

// idleUntil returns the earliest cycle at which the pipeline can do real
// work (or an accounting condition can change), never exceeding limit. A
// return equal to c.cycle means the current cycle is not idle.
func (c *Core) idleUntil(limit int64) int64 {
	cycle := c.cycle
	if limit <= cycle {
		return cycle
	}
	x := limit

	// Fetch: an active front end with instructions to deliver produces new
	// work every cycle. (A held front end becomes active at fetchHoldTo;
	// with nothing to fetch — program exhausted, divergence out of
	// wrong-path budget, or queue full — stepFetch stays a no-op.)
	if c.fqCount < c.fqSize {
		var hasWork bool
		if c.diverged {
			hasWork = c.cfg.WrongPath && c.wrongLeft > 0
		} else {
			hasWork = c.pos < c.total
		}
		if hasWork {
			if cycle >= c.fetchHoldTo {
				return cycle
			}
			if c.fetchHoldTo < x {
				x = c.fetchHoldTo
			}
		}
	}

	// Alloc: a ready alloc-queue head with ROB space allocates immediately.
	if c.fqCount > 0 && c.robLen() < c.robSize {
		if r := c.fqPeek().ready; r <= cycle {
			return cycle
		} else if r < x {
			x = r
		}
	}

	// Retire: a completed head retires; a wrong-path head trips a violation
	// (let the live path report it).
	if c.robLen() > 0 {
		e := c.robAt(c.robHead)
		if e.wrongPath || e.done <= cycle {
			return cycle
		}
		if e.done < x {
			x = e.done
		}
	}

	// Resolutions: the earliest pending branch execution.
	if d, ok := c.resolutions.nextDue(); ok {
		if d <= cycle {
			return cycle
		}
		if d < x {
			x = d
		}
	}

	// CPI classification flip points: clamp to each so the whole window
	// lands in a single bucket (classifyCycle's conditions are otherwise
	// constant — occupancies cannot change on an idle cycle).
	if c.cpi != nil {
		if c.robLen() > 0 {
			if c.busyFn != nil {
				if b := c.busyFn(); b > cycle && b < x {
					x = b
				}
			}
			// LSQ-full (either buffer all busy) holds until both free up.
			if m := max(c.ldBuf.minFree(), c.stBuf.minFree()); m > cycle && m < x {
				x = m
			}
		} else if c.cpiFrontHold > cycle && c.cpiFrontHold < x {
			x = c.cpiFrontHold
		}
	}
	return x
}

// skipIdle advances the clock by n cycles, applying exactly the bookkeeping
// n idle iterations would have performed.
func (c *Core) skipIdle(n int64) {
	if held := c.fetchHoldTo - c.cycle; held > 0 {
		if held > n {
			held = n
		}
		c.stats.FetchStallCycles += held
	}
	switch {
	case c.fqCount == 0:
		c.dbgFQEmpty += n
	case c.robLen() >= c.robSize:
		c.dbgROBFull += n
	default:
		c.dbgNotReady += n
	}
	if c.cpi != nil {
		c.cpi.AddN(c.classifyCycle(false), n)
	}
	c.cycle += n
}
