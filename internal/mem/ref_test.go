package mem

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refLine is one resident line of the reference model.
type refLine struct {
	tag  uint64
	pref bool
}

// refCache is a naive LRU cache: each set is a move-to-front list of its
// resident lines, most recently touched first.
type refCache struct {
	sets     [][]refLine
	ways     int
	lineBits uint
	inserts  uint64
}

func newRefCache(cfg Config) *refCache {
	r := &refCache{
		sets: make([][]refLine, cfg.SizeBytes/cfg.LineBytes/cfg.Ways),
		ways: cfg.Ways,
	}
	for 1<<r.lineBits < cfg.LineBytes {
		r.lineBits++
	}
	return r
}

func (r *refCache) locate(addr uint64) (set int, tag uint64) {
	line := addr >> r.lineBits
	n := uint64(len(r.sets))
	return int(line % n), line / n
}

func (r *refCache) access(addr uint64) (hit, wasPref bool) {
	s, tag := r.locate(addr)
	set := r.sets[s]
	for i, l := range set {
		if l.tag == tag {
			copy(set[1:i+1], set[:i])
			set[0] = refLine{tag: tag}
			return true, l.pref
		}
	}
	return false, false
}

func (r *refCache) fill(addr uint64, pref bool) {
	s, tag := r.locate(addr)
	set := r.sets[s]
	for _, l := range set {
		if l.tag == tag {
			return
		}
	}
	if len(set) < r.ways {
		set = append(set, refLine{})
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = refLine{tag: tag, pref: pref}
	r.sets[s] = set
	r.inserts++
}

// contents lists set s of c from most to least recently touched, in the
// reference model's terms.
func (c *cache) contents(s int) []refLine {
	base := s * c.cfg.Ways
	var ws []int
	for w := 0; w < c.cfg.Ways; w++ {
		if c.stamp[base+w] != 0 {
			ws = append(ws, w)
		}
	}
	sort.Slice(ws, func(i, j int) bool { return c.stamp[base+ws[i]] > c.stamp[base+ws[j]] })
	out := make([]refLine, len(ws))
	for i, w := range ws {
		out[i] = refLine{tag: c.tags[base+w], pref: c.stamp[base+w]&1 != 0}
	}
	return out
}

// TestCacheMatchesReferenceLRU drives the cache and a move-to-front LRU
// model with the same operations and requires the same hit, wasPref,
// insert count and per-set contents in recency order after every one.
// The geometries are tiny so that nearly every fill evicts.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	geoms := []Config{
		{SizeBytes: 4 * 8 * 64, LineBytes: 64, Ways: 8},
		{SizeBytes: 2 * 16 * 64, LineBytes: 64, Ways: 16},
		{SizeBytes: 8 * 1 * 32, LineBytes: 32, Ways: 1},
	}
	// Each pattern returns the address of op i.
	patterns := []struct {
		name   string
		addrOf func(rng *rand.Rand, i int, cfg Config) uint64
	}{
		{"random", func(rng *rand.Rand, _ int, cfg Config) uint64 {
			return uint64(rng.Intn(4 * cfg.SizeBytes))
		}},
		{"strided", func(rng *rand.Rand, i int, cfg Config) uint64 {
			return uint64(i*3*cfg.LineBytes + rng.Intn(cfg.LineBytes))
		}},
		{"same-set", func(rng *rand.Rand, _ int, cfg Config) uint64 {
			// Lines that all map to set 0: a working set of twice the
			// associativity, so hits and evictions interleave.
			return uint64(rng.Intn(2*cfg.Ways) * cfg.SizeBytes / cfg.Ways)
		}},
	}
	for _, cfg := range geoms {
		for _, p := range patterns {
			for _, nearRenorm := range []bool{false, true} {
				label := fmt.Sprintf("%dx%d/%s/renorm=%v", cfg.SizeBytes/cfg.LineBytes/cfg.Ways, cfg.Ways, p.name, nearRenorm)
				t.Run(label, func(t *testing.T) {
					checkAgainstRef(t, cfg, p.addrOf, nearRenorm)
				})
			}
		}
	}
}

func checkAgainstRef(t *testing.T, cfg Config, addrOf func(*rand.Rand, int, Config) uint64, nearRenorm bool) {
	const ops = 4000
	c := newCache(cfg)
	ref := newRefCache(cfg)
	if nearRenorm {
		c.clock = renormAt - ops/4
	}
	rng := rand.New(rand.NewSource(1))
	renorms := 0
	for i := 0; i < ops; i++ {
		addr := addrOf(rng, i, cfg)
		op := rng.Intn(4)
		before := c.clock
		switch op {
		case 0: // prefetch fill
			c.fillPref(addr)
			ref.fill(addr, true)
		default: // demand access, filling on a miss
			hit, pref := c.access(addr)
			rhit, rpref := ref.access(addr)
			if hit != rhit || pref != rpref {
				t.Fatalf("op %d access %#x: got hit=%v wasPref=%v, reference hit=%v wasPref=%v", i, addr, hit, pref, rhit, rpref)
			}
			if !hit {
				c.fill(addr)
				ref.fill(addr, false)
			}
		}
		if c.clock < before {
			renorms++
		}
		if c.inserts != ref.inserts {
			t.Fatalf("op %d: %d inserts, reference %d", i, c.inserts, ref.inserts)
		}
		for s := range ref.sets {
			got, want := c.contents(s), ref.sets[s]
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("op %d (%#x) set %d: got %v, reference %v", i, addr, s, got, want)
			}
		}
	}
	if nearRenorm && renorms != 1 {
		t.Fatalf("clock started below renormAt but renorm ran %d times", renorms)
	}
}
