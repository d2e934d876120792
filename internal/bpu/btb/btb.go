// Package btb implements the branch target buffer of Table 2 (2K entries):
// the front-end structure that lets a predicted-taken branch redirect fetch
// immediately. A taken prediction that misses the BTB cannot redirect until
// the branch decodes, costing a front-end bubble; the entry is filled when
// the branch resolves.
package btb

import (
	"errors"
	"fmt"
)

// Config sizes a BTB.
type Config struct {
	Entries int
	Ways    int
}

// DefaultConfig is the Table 2 BTB: 2K entries, 4-way.
func DefaultConfig() Config { return Config{Entries: 2048, Ways: 4} }

// maxWays bounds associativity: the per-entry LRU rank is a uint8.
const maxWays = 256

// Validate returns a field-level error for every violated constraint (all
// violations, joined), or nil. Entries == 0 means no BTB.
func (c Config) Validate() error {
	var errs []error
	bad := func(field string, got any, want string) {
		errs = append(errs, fmt.Errorf("btb.Config.%s: got %v, want %s", field, got, want))
	}
	if c.Entries < 0 {
		bad("Entries", c.Entries, ">= 0 (0 = no BTB)")
	}
	if c.Entries > 0 {
		if c.Ways < 1 || c.Ways > maxWays {
			bad("Ways", c.Ways, fmt.Sprintf("in [1, %d]", maxWays))
		} else if c.Entries%c.Ways != 0 {
			bad("Entries", c.Entries, fmt.Sprintf("a multiple of Ways (%d)", c.Ways))
		} else if sets := c.Entries / c.Ways; sets&(sets-1) != 0 {
			bad("Entries", c.Entries, fmt.Sprintf("Ways (%d) x a power-of-two set count, got %d sets", c.Ways, sets))
		}
	}
	return errors.Join(errs...)
}

type entry struct {
	tag    uint32
	target uint64
	valid  bool
	lru    uint8
}

// BTB is a set-associative branch target buffer.
type BTB struct {
	cfg     Config
	sets    int
	setMask uint64
	e       []entry

	statLookups uint64
	statMisses  uint64
}

// New builds a BTB from cfg. It panics with the Validate errors on a bad
// geometry; a zero-entry config (no BTB) has nothing to build.
func New(cfg Config) *BTB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Entries == 0 {
		panic("btb.Config.Entries: got 0, want > 0 to build a BTB (0 = no BTB)")
	}
	sets := cfg.Entries / cfg.Ways
	b := &BTB{cfg: cfg, sets: sets, setMask: uint64(sets - 1), e: make([]entry, cfg.Entries)}
	for s := 0; s < sets; s++ {
		for w := 0; w < cfg.Ways; w++ {
			b.e[s*cfg.Ways+w].lru = uint8(w)
		}
	}
	return b
}

func (b *BTB) index(pc uint64) (base int, tag uint32) {
	// Fold PC bits so regularly-strided branch addresses spread across
	// sets, as hardware index hashes do.
	v := (pc >> 2) ^ (pc >> 9) ^ (pc >> 17)
	return int(v&b.setMask) * b.cfg.Ways, uint32((pc >> 2) >> uint(log2(b.sets)))
}

func log2(n int) uint {
	k := uint(0)
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}

// Lookup probes the BTB for pc's target. ok is false on a miss (the
// front end cannot redirect this cycle).
func (b *BTB) Lookup(pc uint64) (target uint64, ok bool) {
	b.statLookups++
	base, tag := b.index(pc)
	for w := 0; w < b.cfg.Ways; w++ {
		e := &b.e[base+w]
		if e.valid && e.tag == tag {
			b.touch(base, w)
			return e.target, true
		}
	}
	b.statMisses++
	return 0, false
}

func (b *BTB) touch(base, way int) {
	old := b.e[base+way].lru
	for w := 0; w < b.cfg.Ways; w++ {
		if e := &b.e[base+w]; e.lru < old {
			e.lru++
		}
	}
	b.e[base+way].lru = 0
}

// Insert fills pc → target, evicting LRU.
func (b *BTB) Insert(pc, target uint64) {
	base, tag := b.index(pc)
	victim := 0
	for w := 0; w < b.cfg.Ways; w++ {
		e := &b.e[base+w]
		if e.valid && e.tag == tag {
			e.target = target
			b.touch(base, w)
			return
		}
		if !e.valid {
			victim = w
			break
		}
		if e.lru > b.e[base+victim].lru {
			victim = w
		}
	}
	b.e[base+victim] = entry{tag: tag, target: target, valid: true, lru: b.e[base+victim].lru}
	b.touch(base, victim)
}

// Stats returns (lookups, misses).
func (b *BTB) Stats() (uint64, uint64) { return b.statLookups, b.statMisses }

// StorageBits approximates the structure cost (tag + partial target).
func (b *BTB) StorageBits() int { return b.cfg.Entries * (20 + 32 + 1 + 2) }
