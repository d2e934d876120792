package mem

import (
	"fmt"
	"math/rand"
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
	h := c.hdr[s]
	out := make([]refLine, h.n)
	for i := range out {
		w := int(h.order >> (4 * uint(int(h.n)-1-i)) & 0xf)
		out[i] = refLine{tag: c.tags[s*c.cfg.Ways+w], pref: h.pref>>w&1 != 0}
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
	// The /renorm=false suffix keeps the subtests' established names: a
	// renorm=true arm once started a per-cache LRU clock just below its
	// renormalization point. Set headers keep recency as a way order, with
	// no clock, so only the renorm=false arm remains.
	for _, cfg := range geoms {
		for _, p := range patterns {
			label := fmt.Sprintf("%dx%d/%s/renorm=false", cfg.SizeBytes/cfg.LineBytes/cfg.Ways, cfg.Ways, p.name)
			t.Run(label, func(t *testing.T) {
				checkAgainstRef(t, cfg, p.addrOf)
			})
		}
	}
}

func checkAgainstRef(t *testing.T, cfg Config, addrOf func(*rand.Rand, int, Config) uint64) {
	const ops = 4000
	c := newCache(cfg)
	ref := newRefCache(cfg)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < ops; i++ {
		addr := addrOf(rng, i, cfg)
		switch rng.Intn(4) {
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
}

// refHier is the reference hierarchy: three refCaches in the original fill
// order. Every stride prefetch fills its own level and the level below,
// every demand fill probes its set, and the stream detector re-issues its
// fills on every trigger.
type refHier struct {
	cfg        HierarchyConfig
	lv         [3]*refCache
	lastMiss   [3]uint64
	lastStride [3]int64
	recent     [8]uint64
	recentPos  int
	accesses   uint64
	misses     [3]uint64
	prefHits   uint64
}

func newRefHier(cfg HierarchyConfig) *refHier {
	return &refHier{cfg: cfg, lv: [3]*refCache{newRefCache(cfg.L1), newRefCache(cfg.L2), newRefCache(cfg.LLC)}}
}

func (r *refHier) levels() [3]Config { return [3]Config{r.cfg.L1, r.cfg.L2, r.cfg.LLC} }

// access returns the latency, the level that hit (4 = DRAM) and whether the
// hit line was an untouched prefetch.
func (r *refHier) access(addr uint64) (lat int64, level int, wasPref bool) {
	r.accesses++
	r.stream(addr)
	for i, cfg := range r.levels() {
		lat += cfg.Latency
		if hit, pref := r.lv[i].access(addr); hit {
			if pref {
				r.prefHits++
			}
			return lat, i + 1, pref
		}
		r.misses[i]++
		r.lv[i].fill(addr, false)
		r.prefetch(i, addr)
	}
	return lat + r.cfg.DRAMLatency, 4, false
}

func (r *refHier) prefetch(i int, addr uint64) {
	if !r.levels()[i].Prefetch {
		return
	}
	lb := r.lv[i].lineBits
	line := addr >> lb
	stride := int64(line) - int64(r.lastMiss[i])
	step := int64(1)
	if stride == r.lastStride[i] && stride != 0 && abs64(stride) < 64 {
		step = stride
	}
	r.lastStride[i], r.lastMiss[i] = stride, line
	for d := int64(1); d <= 4; d++ {
		a := uint64(int64(line)+d*step) << lb
		r.lv[i].fill(a, true)
		if i < 2 {
			r.lv[i+1].fill(a, true)
		}
	}
}

func (r *refHier) stream(addr uint64) {
	if !r.cfg.L1.Prefetch {
		return
	}
	lb := r.lv[0].lineBits
	line := addr >> lb
	hit := false
	for _, rl := range r.recent {
		hit = hit || rl == line-1
	}
	r.recent[r.recentPos] = line
	r.recentPos = (r.recentPos + 1) % len(r.recent)
	if !hit {
		return
	}
	for d := uint64(1); d <= 3; d++ {
		for _, c := range r.lv {
			c.fill((line+d)<<lb, true)
		}
	}
}

// hierCheck drives a Hierarchy and a refHier with the same accesses.
type hierCheck struct {
	t   testing.TB
	h   *Hierarchy
	ref *refHier
	n   int
}

func newHierCheck(t testing.TB, cfg HierarchyConfig) *hierCheck {
	return &hierCheck{t: t, h: New(cfg), ref: newRefHier(cfg)}
}

// access requires the same latency, level and prefetch-hit flag from both.
// The hierarchy's level is read from its latency: the test geometries'
// latencies are positive, so each level has a distinct total.
func (c *hierCheck) access(addr uint64) {
	c.n++
	hits := c.h.PrefetchHits()
	lat := c.h.AccessAt(addr, -1)
	wasPref := c.h.PrefetchHits() != hits
	level, rest := 1, lat
	for _, cfg := range c.ref.levels() {
		if rest -= cfg.Latency; rest <= 0 {
			break
		}
		level++
	}
	rlat, rlevel, rpref := c.ref.access(addr)
	if lat != rlat || level != rlevel || wasPref != rpref {
		c.t.Fatalf("access %d (%#x): got latency %d level %d wasPref %v, reference %d %d %v",
			c.n, addr, lat, level, wasPref, rlat, rlevel, rpref)
	}
}

// final requires the same counters, per-level insert counts and every
// set's contents in recency order.
func (c *hierCheck) final() {
	acc, m1, m2, m3 := c.h.Stats()
	r := c.ref
	if acc != r.accesses || m1 != r.misses[0] || m2 != r.misses[1] || m3 != r.misses[2] || c.h.PrefetchHits() != r.prefHits {
		c.t.Fatalf("stats %d/%d/%d/%d prefetch hits %d, reference %d/%v prefetch hits %d",
			acc, m1, m2, m3, c.h.PrefetchHits(), r.accesses, r.misses, r.prefHits)
	}
	for i, lv := range [3]*cache{c.h.l1, c.h.l2, c.h.llc} {
		if lv.inserts != r.lv[i].inserts {
			c.t.Fatalf("level %d: %d inserts, reference %d", i+1, lv.inserts, r.lv[i].inserts)
		}
		for s, want := range r.lv[i].sets {
			got := lv.contents(s)
			if len(got) != len(want) {
				c.t.Fatalf("level %d set %d: got %v, reference %v", i+1, s, got, want)
			}
			for k := range got {
				if got[k] != want[k] {
					c.t.Fatalf("level %d set %d: got %v, reference %v", i+1, s, got, want)
				}
			}
		}
	}
}

// smallHierarchy is a geometry whose L2 and LLC have fewer sets than the
// stride-fill dedupe needs, so New must leave it off.
func smallHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1:          Config{SizeBytes: 4 << 10, LineBytes: 64, Ways: 4, Latency: 5, Prefetch: true},
		L2:          Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 4, Latency: 15, Prefetch: true},
		LLC:         Config{SizeBytes: 64 << 10, LineBytes: 64, Ways: 8, Latency: 40, Prefetch: true},
		DRAMLatency: 170,
	}
}

// TestHierarchyMatchesReference checks the whole hierarchy — fill order,
// stride-fill dedupe, probe-free demand fills and the stream memo — against
// refHier on the Table 2 geometry (dedupe on) and a small one (dedupe off).
func TestHierarchyMatchesReference(t *testing.T) {
	const ops = 60_000
	patterns := []struct {
		name string
		run  func(c *hierCheck, rng *rand.Rand, cfg HierarchyConfig)
	}{
		{"random", func(c *hierCheck, rng *rand.Rand, cfg HierarchyConfig) {
			for i := 0; i < ops; i++ {
				span := 4 * cfg.LLC.SizeBytes
				if i&1 == 0 {
					span = 2 * cfg.L2.SizeBytes // a hot region that hits
				}
				c.access(uint64(rng.Intn(span)))
			}
		}},
		{"strides", func(c *hierCheck, rng *rand.Rand, cfg HierarchyConfig) {
			// Walks of +-1..63 lines over a region of four L2s, so that walks
			// meet lines resident and old; some start near line 0 and walk
			// down through it.
			for n := 0; n < ops; {
				stride := int64(rng.Intn(63) + 1)
				if rng.Intn(2) == 0 {
					stride = -stride
				}
				line := int64(rng.Intn(4 * cfg.L2.SizeBytes / cfg.L2.LineBytes))
				if stride < 0 && rng.Intn(2) == 0 {
					line = int64(rng.Intn(200))
				}
				for k := rng.Intn(400) + 50; k > 0 && n < ops; k-- {
					c.access(uint64(line)<<6 | uint64(rng.Intn(64)))
					line += stride
					n++
				}
			}
		}},
		{"streams", func(c *hierCheck, rng *rand.Rand, cfg HierarchyConfig) {
			var heads [4]uint64
			for k := range heads {
				heads[k] = uint64(rng.Intn(1 << 30))
			}
			for i := 0; i < ops; i++ {
				k := rng.Intn(len(heads))
				heads[k] += 8
				c.access(heads[k])
			}
		}},
	}
	for _, g := range []struct {
		name   string
		cfg    HierarchyConfig
		dedupe bool
	}{{"table2", DefaultHierarchy(), true}, {"small", smallHierarchy(), false}} {
		for _, p := range patterns {
			t.Run(g.name+"/"+p.name, func(t *testing.T) {
				c := newHierCheck(t, g.cfg)
				if c.h.l2.dedupe != g.dedupe || c.h.llc.dedupe != g.dedupe {
					t.Fatalf("dedupe L2=%v LLC=%v, want %v", c.h.l2.dedupe, c.h.llc.dedupe, g.dedupe)
				}
				p.run(c, rand.New(rand.NewSource(1)), g.cfg)
				c.final()
			})
		}
	}
}

// FuzzHierarchy drives the refHier oracle from fuzzed bytes: each op is
// three bytes, a kind and two operands (a jump, a strided walk, a sequential
// run or a single nearby access).
func FuzzHierarchy(f *testing.F) {
	f.Add([]byte{0, 0, 10, 1, 0xf9, 30, 2, 40, 0, 1, 0x3f, 31})
	f.Add([]byte{1, 0, 0, 1, 0xc1, 31, 3, 1, 2, 1, 0x81, 31, 0, 0xff, 0xff})
	f.Add([]byte{0, 7, 0, 2, 63, 0, 1, 5, 20, 1, 5, 20, 1, 9, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := smallHierarchy()
		if data[0]&1 != 0 {
			// The smallest geometry with the dedupe on.
			cfg.L2 = Config{SizeBytes: 256 * 2 * 64, LineBytes: 64, Ways: 2, Latency: 15, Prefetch: true}
			cfg.LLC = Config{SizeBytes: 256 * 4 * 64, LineBytes: 64, Ways: 4, Latency: 40, Prefetch: true}
		}
		c := newHierCheck(t, cfg)
		line := int64(0)
		for i := 1; i+2 < len(data) && c.n < 1024; i += 3 {
			a, b := data[i+1], data[i+2]
			switch data[i] % 4 {
			case 0: // jump, possibly below line 0
				line = int64(a)<<8 | int64(b) - 1<<12
				c.access(uint64(line) << 6)
			case 1: // strided walk
				stride := int64(int8(a))
				for k := int(b % 32); k >= 0; k-- {
					line += stride
					c.access(uint64(line)<<6 | uint64(b&63))
				}
			case 2: // sequential 8-byte run
				addr := uint64(line) << 6
				for k := int(a % 64); k >= 0; k-- {
					addr += 8
					c.access(addr)
				}
				line = int64(addr >> 6)
			case 3: // one access near the current line
				c.access(uint64(line+int64(int8(a)))<<6 | uint64(b&63))
			}
		}
		c.final()
	})
}
