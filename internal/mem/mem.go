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
	"math/bits"
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
// volume (~1.3 MB for Table 2, nearly all of it the LLC), and reusing them
// keeps the arrays resident in the host cache across back-to-back runs — the
// difference is directly visible in the core-loop benchmark. Deliberately a
// bounded free-list rather than a sync.Pool: pool contents drop at every GC,
// which would make a run's allocation count depend on GC timing and turn the
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
	h := &Hierarchy{
		cfg:         cfg,
		l1:          newCache(cfg.L1),
		l2:          newCache(cfg.L2),
		llc:         newCache(cfg.LLC),
		dramLatency: cfg.DRAMLatency,
	}
	// Skipping a level's repeated stride fills is exact for this geometry
	// only (see lookup).
	exact := cfg.L1.LineBytes == cfg.L2.LineBytes && cfg.L2.LineBytes == cfg.LLC.LineBytes &&
		len(h.l2.hdr) >= 256 && len(h.llc.hdr) >= 256
	h.l2.dedupe, h.llc.dedupe = exact, exact
	return h
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
// arrays: way validity lives in the set headers, so clearing them makes the
// stale tags unreachable.
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
//
// A level's stride prefetch runs right after the level above's on the same
// miss. When both use the same step, the level above has just filled lines
// L+step..L+4*step (L the demand line) into this level, and the only inserts
// into this level since then are the rest of those lines and L itself. With
// |step| <= 63 the lines L+k*step, 0 <= k <= 4, lie at most 252 lines apart,
// so with at least 256 sets (and equal line sizes) no two share a set and
// none can have been evicted: this level's own fills of them would all find
// them resident and change nothing, and prefetch skips them.
func (h *Hierarchy) lookup(addr uint64) (lat int64, level int, wasPref bool) {
	if hit, pref := h.l1.access(addr); hit {
		return h.l1.cfg.Latency, 1, pref
	}
	h.statL1Miss++
	h.l1.fill(addr)
	up := h.l1.prefetch(addr, h.l2, 0)
	if hit, pref := h.l2.access(addr); hit {
		return h.l1.cfg.Latency + h.l2.cfg.Latency, 2, pref
	}
	h.statL2Miss++
	h.l2.fill(addr)
	up = h.l2.prefetch(addr, h.llc, up)
	if hit, pref := h.llc.access(addr); hit {
		return h.l1.cfg.Latency + h.l2.cfg.Latency + h.llc.cfg.Latency, 3, pref
	}
	h.statLLCMiss++
	h.llc.fill(addr)
	h.llc.prefetch(addr, nil, up)
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

// Each set has a header (setHdr) and its ways' full tags in tags[set*ways:].
// A probe matches the tag's fingerprint against all the set's fingerprint
// bytes at once and compares full tags only for the candidates; a touch
// moves one nibble of the recency list. Neither walks the ways.
type cache struct {
	cfg      Config
	setMask  uint64
	lineBits uint
	tagShift uint // log2(sets), precomputed: set() runs on every probe
	hdr      []setHdr
	tags     []uint64

	// dedupe: prefetch may skip fills that repeat the level above's (set
	// by New on L2 and the LLC when the geometry makes that exact).
	dedupe bool

	// stride prefetcher state: last miss line and stride per cache.
	lastMiss   uint64
	lastStride int64

	// stream detector: recently accessed lines; an access whose
	// predecessor line is present marks an active stream.
	recentLines [8]uint64
	recentPos   int

	// inserts counts lines actually written by insert. Presence is
	// monotone between inserts (nothing else evicts), which is what lets
	// streamDetect skip provably redundant re-prefetches.
	inserts uint64

	// streamDetect memo (used on the L1 only): the last line whose stream
	// prefetches were issued and the hierarchy-wide insert count right
	// after. While both match, the same prefetches would all no-op.
	lastStreamLine    uint64
	lastStreamInserts uint64
}

// setHdr is one set's metadata. Its zero value is the empty set, so
// newCache writes no metadata and reset only clears the headers: stale tags
// are unreachable.
type setHdr struct {
	order uint64    // way numbers, one per nibble, LRU at nibble 0 to MRU at n-1
	fp    [2]uint64 // way w's fingerprint in byte w&7 of fp[w>>3]; 0 = empty way
	pref  uint16    // bit w: a prefetched line no demand access has touched yet
	n     uint8     // valid ways: ways fill in order and none empties, so 0..n-1
}

// zeroLanes sets the high bit of each all-zero lane of x and clears every
// other bit; lo holds every lane's bits below its high bit (0x7f.. for
// bytes, 0x77.. for nibbles). No borrow crosses lanes, so it is exact.
func zeroLanes(x, lo uint64) uint64 { return ^((x&lo + lo) | x | lo) }

// fingerprint is a tag's byte in setHdr.fp; the high bit keeps it nonzero.
func fingerprint(tag uint64) uint64 { return uint64(byte(tag) | 0x80) }

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
	return &cache{
		cfg:      cfg,
		setMask:  uint64(sets - 1),
		lineBits: lb,
		tagShift: log2i(sets),
		hdr:      make([]setHdr, sets),
		tags:     make([]uint64, lines),
		// No real line number reaches 1<<63 (lines are addr>>lineBits), so
		// the memo can never match before its first genuine assignment.
		lastStreamLine: uint64(1) << 63,
	}
}

// reset clears the per-run cache state (see setHdr for why the tags may
// stay stale).
func (c *cache) reset() {
	clear(c.hdr)
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

// set returns addr's tag, its set's header and the set's tags.
func (c *cache) set(addr uint64) (tag uint64, s *setHdr, tags []uint64) {
	line := addr >> c.lineBits
	i := line & c.setMask
	ways := c.cfg.Ways
	base := int(i) * ways
	return line >> c.tagShift, &c.hdr[i], c.tags[base : base+ways]
}

// find returns the way of s holding tag, or -1.
func (s *setHdr) find(tags []uint64, tag uint64) int {
	k := fingerprint(tag) * 0x0101010101010101
	for i, fp := range s.fp {
		for m := zeroLanes(fp^k, 0x7f7f7f7f7f7f7f7f); m != 0; m &= m - 1 {
			w := i<<3 | bits.TrailingZeros64(m)>>3
			if tags[w] == tag {
				return w
			}
		}
	}
	return -1
}

// touch makes way w the MRU way and clears its pref bit. w's nibble is
// the lowest one equal to w: the nibbles above n-1 are zero, but they lie
// above every valid position.
func (s *setHdr) touch(w int) {
	x := s.order ^ uint64(w)*0x1111111111111111
	p := uint(bits.TrailingZeros64(zeroLanes(x, 0x7777777777777777))) &^ 3
	s.order = s.order&(1<<p-1) | s.order>>(p+4)<<p | uint64(w)<<(4*uint(s.n-1))
	s.pref &^= 1 << w
}

// access probes the cache, updating LRU on hit. The second result reports
// whether the hit line was an untouched prefetch.
func (c *cache) access(addr uint64) (hit, wasPref bool) {
	tag, s, tags := c.set(addr)
	w := s.find(tags, tag)
	if w < 0 {
		return false, false
	}
	wasPref = s.pref>>w&1 != 0
	s.touch(w)
	return true, wasPref
}

// fill inserts addr's line on demand. The caller has just missed on it, so
// the set needs no probe.
func (c *cache) fill(addr uint64) {
	tag, s, tags := c.set(addr)
	c.insert(s, tags, tag, 0)
}

// fillPref inserts addr's line on behalf of a prefetcher unless it is
// present; a present line keeps its recency and pref bit.
func (c *cache) fillPref(addr uint64) {
	tag, s, tags := c.set(addr)
	if s.find(tags, tag) < 0 {
		c.insert(s, tags, tag, 1)
	}
}

// insert writes tag into the first empty way of s or, in a full set, over
// the LRU way, and makes it the MRU way; pref is its pref bit.
func (c *cache) insert(s *setHdr, tags []uint64, tag uint64, pref uint16) {
	var w int
	if int(s.n) < len(tags) {
		w = int(s.n)
		s.n++
	} else {
		w = int(s.order & 0xf)
		s.order >>= 4
	}
	s.order |= uint64(w) << (4 * uint(s.n-1))
	tags[w] = tag
	sh := 8 * uint(w&7)
	s.fp[w>>3] = s.fp[w>>3]&^(0xff<<sh) | fingerprint(tag)<<sh
	s.pref = s.pref&^(1<<w) | pref<<w
	c.inserts++
}

// prefetch issues stride-directed prefetches after a miss at this level and
// returns the step it used (0 when the prefetcher is off). Each of the four
// lines goes into this level and into below (nil for the LLC). up is the
// step the level above has just used; when it equals this level's step and
// dedupe is set, the level above has just put exactly these lines into this
// level and they are still resident, so only the fills below are issued.
// Degree 4 covers the window until the next miss-triggered activation, so a
// steady stream settles at one demand miss per four lines at most.
func (c *cache) prefetch(addr uint64, below *cache, up int64) int64 {
	if !c.cfg.Prefetch {
		return 0
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
	self := !c.dedupe || step != up
	for d := int64(1); d <= degree; d++ {
		a := uint64(int64(line)+d*step) << c.lineBits
		if self {
			c.fillPref(a)
		}
		if below != nil {
			below.fillPref(a)
		}
	}
	return step
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
