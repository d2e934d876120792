// Package mem models the Table 2 memory hierarchy: private L1 (32KB, 8-way,
// 5 cycles) and L2 (256KB, 8-way, 15 cycles), a shared inclusive LLC (8MB,
// 16-way, 40 cycles) and DDR4-class main memory, with next-line/stride
// prefetchers enabled at every cache level.
//
// The model is a latency model: an access returns the cycle count to data
// return. Bandwidth contention is approximated by a per-level small busy
// penalty rather than full MSHR queueing — sufficient for the relative IPC
// effects the paper studies (branch repair), and documented in DESIGN.md.
package mem

import (
	"errors"
	"sync"

	"localbp/internal/obs"
)

// Config sizes one cache level.
type Config struct {
	SizeBytes int
	LineBytes int
	Ways      int
	Latency   int64
	Prefetch  bool
}

// Hierarchy is a three-level cache + DRAM latency model.
type Hierarchy struct {
	cfg         HierarchyConfig
	l1, l2, llc *cache
	dramLatency int64

	statAccesses uint64
	statL1Miss   uint64
	statL2Miss   uint64
	statLLCMiss  uint64
	statPrefHits uint64

	// Observability (nil when disabled; the nil checks are the entire
	// disabled-path cost).
	latHist *obs.Histogram
	tracer  *obs.Tracer
}

// HierarchyConfig bundles per-level configuration.
type HierarchyConfig struct {
	L1, L2, LLC Config
	DRAMLatency int64
}

// DefaultHierarchy returns the Table 2 configuration.
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1:          Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, Latency: 5, Prefetch: true},
		L2:          Config{SizeBytes: 256 << 10, LineBytes: 64, Ways: 8, Latency: 15, Prefetch: true},
		LLC:         Config{SizeBytes: 8 << 20, LineBytes: 64, Ways: 16, Latency: 40, Prefetch: true},
		DRAMLatency: 170, // ~53ns on a 3.2GHz core, DDR4-2133 class
	}
}

// hierFree recycles hierarchies between runs (see Recycle). The metadata
// arrays of a warm hierarchy dominate a simulation's per-run allocation
// volume (~2 MB for the Table 2 LLC), and reusing them keeps the arrays
// resident in the host cache across back-to-back runs — the difference is
// directly visible in the core-loop benchmark. Deliberately a bounded
// free-list rather than a sync.Pool: pool contents drop at every GC, which
// would make a run's allocation count depend on GC timing and turn the
// fixed-budget alloc-guard tests into coin flips.
var hierFree struct {
	mu sync.Mutex
	hs []*Hierarchy
}

// hierFreeMax bounds the free-list (a worker pool recycles at most one
// hierarchy per worker between runs; 4 covers the common fan-out without
// pinning unbounded memory).
const hierFreeMax = 4

// New builds a hierarchy from cfg, reusing a recycled hierarchy when one
// with the same configuration is available.
func New(cfg HierarchyConfig) *Hierarchy {
	hierFree.mu.Lock()
	for i, h := range hierFree.hs {
		if h.cfg == cfg {
			n := len(hierFree.hs) - 1
			hierFree.hs[i] = hierFree.hs[n]
			hierFree.hs[n] = nil
			hierFree.hs = hierFree.hs[:n]
			hierFree.mu.Unlock()
			h.reset()
			return h
		}
	}
	hierFree.mu.Unlock()
	return &Hierarchy{
		cfg:         cfg,
		l1:          newCache(cfg.L1),
		l2:          newCache(cfg.L2),
		llc:         newCache(cfg.LLC),
		dramLatency: cfg.DRAMLatency,
	}
}

// Recycle resets the hierarchy and returns it to the free-list for a future
// New with the same configuration (dropped when the list is full). The
// caller must not use h afterwards. Safe for concurrent use (each Recycle
// hands over a distinct hierarchy).
func (h *Hierarchy) Recycle() {
	hierFree.mu.Lock()
	if len(hierFree.hs) < hierFreeMax {
		hierFree.hs = append(hierFree.hs, h)
	}
	hierFree.mu.Unlock()
}

// reset restores the just-built state without touching the dominant tag
// arrays: way validity lives in the stamps (stamp == 0 means empty), so
// clearing them — a third of the metadata — makes the stale tags
// unreachable.
func (h *Hierarchy) reset() {
	h.l1.reset()
	h.l2.reset()
	h.llc.reset()
	h.statAccesses = 0
	h.statL1Miss = 0
	h.statL2Miss = 0
	h.statLLCMiss = 0
	h.statPrefHits = 0
	h.latHist = nil
	h.tracer = nil
}

// Access returns the load-to-use latency for addr. Stores are modeled with
// the same path (write-allocate).
func (h *Hierarchy) Access(addr uint64) int64 { return h.AccessAt(addr, -1) }

// AccessAt is Access with the issuing core cycle, used to timestamp trace
// events (prefetch hits). A negative cycle means "unknown".
func (h *Hierarchy) AccessAt(addr uint64, cycle int64) int64 {
	h.statAccesses++
	h.l1.streamDetect(addr, h)
	lat, level, wasPref := h.lookup(addr)
	if wasPref {
		h.statPrefHits++
		if h.tracer != nil {
			h.tracer.Emit(obs.EvPrefetchHit, cycle, addr, int64(level))
		}
	}
	if h.latHist != nil {
		h.latHist.Observe(lat)
	}
	return lat
}

// lookup walks the hierarchy for addr, returning the latency, the level that
// hit (1=L1, 2=L2, 3=LLC, 4=DRAM) and whether the hit line was brought in by
// a prefetcher and had not been demand-touched yet.
func (h *Hierarchy) lookup(addr uint64) (lat int64, level int, wasPref bool) {
	if hit, pref := h.l1.access(addr); hit {
		return h.l1.cfg.Latency, 1, pref
	}
	h.statL1Miss++
	h.l1.fill(addr)
	h.l1.prefetch(addr, h)
	if hit, pref := h.l2.access(addr); hit {
		return h.l1.cfg.Latency + h.l2.cfg.Latency, 2, pref
	}
	h.statL2Miss++
	h.l2.fill(addr)
	h.l2.prefetch(addr, h)
	if hit, pref := h.llc.access(addr); hit {
		return h.l1.cfg.Latency + h.l2.cfg.Latency + h.llc.cfg.Latency, 3, pref
	}
	h.statLLCMiss++
	h.llc.fill(addr)
	h.llc.prefetch(addr, h)
	return h.l1.cfg.Latency + h.l2.cfg.Latency + h.llc.cfg.Latency + h.dramLatency, 4, false
}

// AttachObs registers the hierarchy's counters as a pull source named "mem"
// and enables the access-latency histogram and prefetch-hit trace events.
func (h *Hierarchy) AttachObs(reg *obs.Registry, tr *obs.Tracer) {
	if reg != nil {
		reg.AddSource("mem", func(emit func(string, uint64)) {
			emit("accesses", h.statAccesses)
			emit("l1-misses", h.statL1Miss)
			emit("l2-misses", h.statL2Miss)
			emit("llc-misses", h.statLLCMiss)
			emit("prefetch-hits", h.statPrefHits)
		})
		h.latHist = reg.Histogram("mem.latency", obs.MemLatencyBuckets)
	}
	h.tracer = tr
}

// PrefetchHits returns demand accesses that hit a not-yet-touched
// prefetched line.
func (h *Hierarchy) PrefetchHits() uint64 { return h.statPrefHits }

// fillThrough inserts a prefetched line at the given level and below.
func (h *Hierarchy) fillThrough(level *cache, addr uint64) {
	switch level {
	case h.l1:
		h.l1.fillPref(addr)
		h.l2.fillPref(addr)
	case h.l2:
		h.l2.fillPref(addr)
		h.llc.fillPref(addr)
	case h.llc:
		h.llc.fillPref(addr)
	}
}

// Stats returns (accesses, l1Misses, l2Misses, llcMisses).
func (h *Hierarchy) Stats() (acc, l1m, l2m, llcm uint64) {
	return h.statAccesses, h.statL1Miss, h.statL2Miss, h.statLLCMiss
}

// MPKIBase returns L1 misses per access as a quick health metric for tests.
func (h *Hierarchy) MPKIBase() float64 {
	if h.statAccesses == 0 {
		return 0
	}
	return float64(h.statL1Miss) / float64(h.statAccesses)
}

// The per-way state is split into parallel arrays (tags / stamp); a probe
// or fill scans one set through subslices of both.
//
// LRU is kept as a per-way last-touch timestamp drawn from a per-cache
// clock instead of a per-set rank permutation: a touch is one store rather
// than a walk over all ways, and because stamps are unique within a set the
// recency ORDER — the only thing victim selection reads — is exactly the
// order the rank permutation encoded. Eviction decisions are bit-identical.
type cache struct {
	cfg      Config
	sets     int
	setMask  uint64
	lineBits uint
	tagShift uint // log2(sets), precomputed: index() runs on every probe
	tags     []uint64
	// stamp packs (last-touch time << 1 | pref bit) per way; stamp == 0
	// marks an empty way (a filled way's clock part is always >= 1), so the
	// zero value of both arrays IS the empty cache and newCache writes no
	// metadata at all — untouched sets never pull their pages into the host
	// cache. The clock part is unique within a set, so ordering stamps orders
	// recency exactly as a bare timestamp would regardless of the low bit.
	// The pref bit marks a line brought in by a prefetcher that no demand
	// access has touched yet; the first demand hit clears it (the touch
	// rewrites the whole word) and counts a prefetch hit.
	//
	// Stamps are 32-bit to halve the scan footprint; before the clock could
	// reach the width limit, renorm compresses every set's stamps to dense
	// ranks — an observable no-op, since victim selection and pref
	// classification only read within-set stamp order and the low bit.
	stamp []uint32
	clock uint32 // touch counter; always above every live stamp's clock part

	// stride prefetcher state: last miss line and stride per cache.
	lastMiss   uint64
	lastStride int64

	// stream detector: recently accessed lines; an access whose
	// predecessor line is present marks an active stream.
	recentLines [8]uint64
	recentPos   int

	// inserts counts lines actually written by fillInto. Presence is
	// monotone between inserts (nothing else evicts), which is what lets
	// streamDetect skip provably redundant re-prefetches.
	inserts uint64

	// streamDetect memo (used on the L1 only): the last line whose stream
	// prefetches were issued and the hierarchy-wide insert count right
	// after. While both match, the same prefetches would all no-op.
	lastStreamLine    uint64
	lastStreamInserts uint64
}

func newCache(cfg Config) *cache {
	if errs := cfg.validate("mem.Config"); errs != nil {
		panic(errors.Join(errs...))
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / cfg.Ways
	lb := uint(0)
	for 1<<lb < cfg.LineBytes {
		lb++
	}
	c := &cache{
		cfg:      cfg,
		sets:     sets,
		setMask:  uint64(sets - 1),
		lineBits: lb,
		tagShift: log2i(sets),
		tags:     make([]uint64, lines),
		stamp:    make([]uint32, lines),
		// No real line number reaches 1<<63 (lines are addr>>lineBits), so
		// the memo can never match before its first genuine assignment.
		lastStreamLine: uint64(1) << 63,
	}
	return c
}

// renormAt triggers stamp renormalization well before clock<<1 could
// overflow 32 bits.
const renormAt = uint32(1) << 30

// renorm compresses every set's stamps to dense ranks (1..ways), preserving
// within-set recency order and the pref bits exactly. Only that order and the
// low bit are ever read (victim selection, pref classification), so renorm is
// observably a no-op; it runs once per ~2^30 touches.
func (c *cache) renorm() {
	ways := c.cfg.Ways
	var ord [maxWays]int
	for s := 0; s < c.sets; s++ {
		base := s * ways
		n := 0
		for w := 0; w < ways; w++ {
			if c.stamp[base+w] == 0 {
				continue
			}
			i := n
			for i > 0 && c.stamp[base+ord[i-1]] > c.stamp[base+w] {
				ord[i] = ord[i-1]
				i--
			}
			ord[i] = w
			n++
		}
		for r := 0; r < n; r++ {
			w := ord[r]
			c.stamp[base+w] = uint32(r+1)<<1 | c.stamp[base+w]&1
		}
	}
	c.clock = uint32(ways) + 1
}

// reset clears the per-run cache state (see Hierarchy.reset for what may
// legitimately stay stale).
func (c *cache) reset() {
	for i := range c.stamp {
		c.stamp[i] = 0
	}
	c.clock = 0
	c.lastMiss = 0
	c.lastStride = 0
	c.recentLines = [8]uint64{}
	c.recentPos = 0
	c.inserts = 0
	c.lastStreamLine = uint64(1) << 63
	c.lastStreamInserts = 0
}

func log2i(n int) uint {
	k := uint(0)
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}

// set returns addr's tag and its set's base index, tags and stamps.
func (c *cache) set(addr uint64) (tag uint64, base int, tags []uint64, stamp []uint32) {
	line := addr >> c.lineBits
	ways := c.cfg.Ways
	base = int(line&c.setMask) * ways
	return line >> c.tagShift, base, c.tags[base : base+ways], c.stamp[base : base+ways]
}

// access probes the cache, updating LRU on hit. The second result reports
// whether the hit line was an untouched prefetch.
func (c *cache) access(addr uint64) (hit, wasPref bool) {
	tag, base, tags, stamp := c.set(addr)
	stamp = stamp[:len(tags)] // equal lengths: drops the per-way bounds check
	for w, t := range tags {
		if t == tag && stamp[w] != 0 {
			wasPref = stamp[w]&1 != 0
			c.touch(base, w) // rewrites the stamp word, clearing the pref bit
			return true, wasPref
		}
	}
	return false, false
}

func (c *cache) touch(base, way int) {
	if c.clock >= renormAt {
		c.renorm()
	}
	c.clock++
	c.stamp[base+way] = c.clock << 1
}

// fill inserts addr's line on demand, evicting LRU.
func (c *cache) fill(addr uint64) { c.fillInto(addr, false) }

// fillPref inserts addr's line on behalf of a prefetcher.
func (c *cache) fillPref(addr uint64) { c.fillInto(addr, true) }

// fillInto inserts addr's line unless it is present. The victim is the way
// with the smallest key stamp<<8 | way, a minimum the compiler lowers to a
// conditional move, so the scan has no data-dependent branch. This is
// exactly LRU with first-empty-way preference: empty ways (stamp 0) form a
// suffix of the set, since ways fill in order and nothing empties one, so
// the first empty way has the smallest key; in a full set the clock parts
// are unique, so the smallest key is the least recently touched way.
func (c *cache) fillInto(addr uint64, pref bool) {
	tag, base, tags, stamp := c.set(addr)
	stamp = stamp[:len(tags)] // equal lengths: drops the per-way bounds check
	best := ^uint64(0)
	for w, t := range tags {
		st := stamp[w]
		if t == tag && st != 0 {
			return
		}
		best = min(best, uint64(st)<<8|uint64(w))
	}
	victim := base + int(best&0xff)
	c.tags[victim] = tag
	c.inserts++
	// Promote the fresh line to MRU, carrying the pref bit in the low bit.
	if c.clock >= renormAt {
		c.renorm()
	}
	c.clock++
	st := c.clock << 1
	if pref {
		st |= 1
	}
	c.stamp[victim] = st
}

// prefetch issues stride-directed prefetches after a miss at this level.
// Degree 4 covers the window until the next miss-triggered activation, so a
// steady stream settles at one demand miss per four lines at most.
func (c *cache) prefetch(addr uint64, h *Hierarchy) {
	if !c.cfg.Prefetch {
		return
	}
	const degree = 4
	line := addr >> c.lineBits
	stride := int64(line) - int64(c.lastMiss)
	step := int64(1)
	if stride == c.lastStride && stride != 0 && abs64(stride) < 64 {
		step = stride
	}
	c.lastStride = stride
	c.lastMiss = line
	for d := int64(1); d <= degree; d++ {
		h.fillThrough(c, uint64(int64(line)+d*step)<<c.lineBits)
	}
}

// streamDetect runs on every access: when the previous line was touched
// recently (an ascending stream), it pulls the next lines into the whole
// hierarchy, keeping steady streams off the DRAM path the way an aggressive
// hardware streamer does. Random traffic rarely matches and causes no
// pollution.
func (c *cache) streamDetect(addr uint64, h *Hierarchy) {
	if !c.cfg.Prefetch {
		return
	}
	line := addr >> c.lineBits
	hit := false
	prev := line - 1
	for _, rl := range c.recentLines {
		if rl == prev {
			hit = true
			break
		}
	}
	c.recentLines[c.recentPos] = line
	c.recentPos = (c.recentPos + 1) & (len(c.recentLines) - 1)
	if !hit {
		return
	}
	// Sequential walks touch the same 64-byte line several times. After the
	// first trigger, lines line+1..line+3 are present at every level, and
	// they stay present as long as no insert has evicted anything — so with
	// the insert count unchanged, every fillPref below would early-return
	// and skipping them is exact.
	total := h.l1.inserts + h.l2.inserts + h.llc.inserts
	if line == c.lastStreamLine && total == c.lastStreamInserts {
		return
	}
	for d := uint64(1); d <= 3; d++ {
		a := (line + d) << c.lineBits
		h.l1.fillPref(a)
		h.l2.fillPref(a)
		h.llc.fillPref(a)
	}
	c.lastStreamLine = line
	c.lastStreamInserts = h.l1.inserts + h.l2.inserts + h.llc.inserts
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
