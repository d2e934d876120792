package mem

import (
	"strings"
	"testing"
	"testing/quick"
)

func noPrefetch() HierarchyConfig {
	cfg := DefaultHierarchy()
	cfg.L1.Prefetch = false
	cfg.L2.Prefetch = false
	cfg.LLC.Prefetch = false
	return cfg
}

func TestColdMissGoesToDRAM(t *testing.T) {
	h := New(noPrefetch())
	cfg := DefaultHierarchy()
	want := cfg.L1.Latency + cfg.L2.Latency + cfg.LLC.Latency + cfg.DRAMLatency
	if got := h.Access(0x1234000); got != want {
		t.Fatalf("cold access latency %d, want %d", got, want)
	}
}

func TestHitAfterFill(t *testing.T) {
	h := New(noPrefetch())
	h.Access(0x1234000)
	if got := h.Access(0x1234008); got != DefaultHierarchy().L1.Latency {
		t.Fatalf("same-line access latency %d, want L1 hit", got)
	}
}

func TestInclusiveFill(t *testing.T) {
	h := New(noPrefetch())
	addr := uint64(0x40000)
	h.Access(addr)
	// Evict from L1 by filling its set (64 sets × 64B lines: +4KB strides
	// map to the same set; 8 ways + 1 conflict).
	for i := 1; i <= 8; i++ {
		h.Access(addr + uint64(i)*4096)
	}
	cfg := DefaultHierarchy()
	got := h.Access(addr)
	if got != cfg.L1.Latency+cfg.L2.Latency {
		t.Fatalf("L1-evicted line latency %d, want L2 hit %d", got, cfg.L1.Latency+cfg.L2.Latency)
	}
}

func TestLRUKeepsHotLine(t *testing.T) {
	h := New(noPrefetch())
	hot := uint64(0x40000)
	h.Access(hot)
	for i := 1; i <= 7; i++ {
		h.Access(hot + uint64(i)*4096) // fill the set
	}
	h.Access(hot) // re-touch: now MRU
	h.Access(hot + 8*4096)
	h.Access(hot + 9*4096) // two evictions: hot must survive
	if got := h.Access(hot); got != DefaultHierarchy().L1.Latency {
		t.Fatalf("hot line evicted despite LRU touch (latency %d)", got)
	}
}

func TestStreamPrefetchCoverage(t *testing.T) {
	h := New(DefaultHierarchy())
	for i := 0; i < 20000; i++ {
		h.Access(uint64(0x100000 + i*8))
	}
	acc, l1m, _, _ := h.Stats()
	if rate := float64(l1m) / float64(acc); rate > 0.02 {
		t.Fatalf("streaming L1 miss rate %.3f; prefetcher broken", rate)
	}
}

func TestInterleavedStreams(t *testing.T) {
	h := New(DefaultHierarchy())
	bases := [4]uint64{0x10000000, 0x20000340, 0x30000680, 0x400009c0}
	for i := 0; i < 40000; i++ {
		k := i % 4
		bases[k] += 8
		h.Access(bases[k])
	}
	acc, l1m, _, _ := h.Stats()
	if rate := float64(l1m) / float64(acc); rate > 0.05 {
		t.Fatalf("4-stream L1 miss rate %.3f", rate)
	}
}

func TestRandomAccessesMissRealistically(t *testing.T) {
	h := New(DefaultHierarchy())
	x := uint64(12345)
	for i := 0; i < 50000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		h.Access((x >> 20) & (64<<20 - 1)) // uniform over 64MB
	}
	acc, l1m, _, llcm := h.Stats()
	if rate := float64(l1m) / float64(acc); rate < 0.5 {
		t.Fatalf("random-over-64MB L1 miss rate %.3f suspiciously low", rate)
	}
	if llcm == 0 {
		t.Fatal("64MB random working set never missed the 8MB LLC")
	}
}

func TestStatsMonotonic(t *testing.T) {
	h := New(DefaultHierarchy())
	h.Access(0x1000)
	a1, m1, _, _ := h.Stats()
	h.Access(0x2000000)
	a2, m2, _, _ := h.Stats()
	if a2 != a1+1 || m2 < m1 {
		t.Fatalf("stats not monotonic: %d->%d, %d->%d", a1, a2, m1, m2)
	}
}

func TestLatencyBoundsProperty(t *testing.T) {
	cfg := DefaultHierarchy()
	minLat := cfg.L1.Latency
	maxLat := cfg.L1.Latency + cfg.L2.Latency + cfg.LLC.Latency + cfg.DRAMLatency
	h := New(cfg)
	f := func(addr uint64) bool {
		lat := h.Access(addr)
		return lat >= minLat && lat <= maxLat
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMPKIBase(t *testing.T) {
	h := New(noPrefetch())
	if h.MPKIBase() != 0 {
		t.Fatal("MPKIBase nonzero before any access")
	}
	h.Access(0x1000)
	if h.MPKIBase() != 1 {
		t.Fatalf("one cold access should be a 100%% miss rate, got %v", h.MPKIBase())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two set count accepted")
		}
	}()
	newCache(Config{SizeBytes: 3 * 64 * 8, LineBytes: 64, Ways: 8, Latency: 1})
}

func TestHierarchyConfigValidate(t *testing.T) {
	if err := DefaultHierarchy().Validate(); err != nil {
		t.Fatalf("DefaultHierarchy invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*HierarchyConfig)
		field  string
	}{
		{"zero ways", func(h *HierarchyConfig) { h.L1.Ways = 0 }, "mem.HierarchyConfig.L1.Ways: got 0"},
		{"too many ways", func(h *HierarchyConfig) { h.LLC.Ways = 128 }, "mem.HierarchyConfig.LLC.Ways: got 128"},
		{"zero line", func(h *HierarchyConfig) { h.L2.LineBytes = 0 }, "mem.HierarchyConfig.L2.LineBytes: got 0"},
		{"odd line", func(h *HierarchyConfig) { h.L1.LineBytes = 48 }, "mem.HierarchyConfig.L1.LineBytes: got 48"},
		{"three sets", func(h *HierarchyConfig) { h.L1.SizeBytes = 3 * 64 * 8 }, "mem.HierarchyConfig.L1.SizeBytes: got 1536"},
		{"partial set", func(h *HierarchyConfig) { h.L2.SizeBytes += 64 }, "mem.HierarchyConfig.L2.SizeBytes"},
		{"zero size", func(h *HierarchyConfig) { h.LLC.SizeBytes = 0 }, "mem.HierarchyConfig.LLC.SizeBytes: got 0"},
		{"negative latency", func(h *HierarchyConfig) { h.L2.Latency = -1 }, "mem.HierarchyConfig.L2.Latency: got -1"},
		{"negative dram", func(h *HierarchyConfig) { h.DRAMLatency = -5 }, "mem.HierarchyConfig.DRAMLatency: got -5"},
	}
	for _, tc := range cases {
		cfg := DefaultHierarchy()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error does not name %s: %v", tc.name, tc.field, err)
		}
	}

	var zero HierarchyConfig
	err := zero.Validate()
	for _, field := range []string{"L1.LineBytes", "L1.Ways", "L2.Ways", "LLC.Ways"} {
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("zero config error does not name %s: %v", field, err)
		}
	}
}
