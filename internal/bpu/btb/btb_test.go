package btb

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestMissThenHit(t *testing.T) {
	b := New(DefaultConfig())
	if _, ok := b.Lookup(0x4000); ok {
		t.Fatal("cold lookup hit")
	}
	b.Insert(0x4000, 0x5000)
	tgt, ok := b.Lookup(0x4000)
	if !ok || tgt != 0x5000 {
		t.Fatalf("lookup after insert: %#x ok=%v", tgt, ok)
	}
}

func TestUpdateExisting(t *testing.T) {
	b := New(DefaultConfig())
	b.Insert(0x4000, 0x5000)
	b.Insert(0x4000, 0x6000)
	if tgt, _ := b.Lookup(0x4000); tgt != 0x6000 {
		t.Fatalf("target not updated: %#x", tgt)
	}
}

func TestLRUEviction(t *testing.T) {
	b := New(Config{Entries: 8, Ways: 4}) // 2 sets
	// Collect five PCs that map to the same set, fill the 4 ways and one
	// more: the first inserted (LRU) must go.
	sameSet := []uint64{}
	want, _ := b.index(0x1000)
	for pc := uint64(0x1000); len(sameSet) < 5; pc += 4 {
		if got, _ := b.index(pc); got == want {
			sameSet = append(sameSet, pc)
		}
	}
	for i, pc := range sameSet {
		b.Insert(pc, uint64(i))
	}
	if _, ok := b.Lookup(sameSet[0]); ok {
		t.Fatal("LRU entry survived a full-set insert")
	}
	if _, ok := b.Lookup(sameSet[4]); !ok {
		t.Fatal("most recent insert missing")
	}
}

func TestCapacityCoversSuitePCs(t *testing.T) {
	// The Table 2 BTB (2K entries) must hold several hundred branch sites
	// without steady-state misses.
	b := New(DefaultConfig())
	for site := 0; site < 400; site++ {
		b.Insert(0x400000+uint64(site)*0x400, 1)
	}
	misses := 0
	for site := 0; site < 400; site++ {
		if _, ok := b.Lookup(0x400000 + uint64(site)*0x400); !ok {
			misses++
		}
	}
	if misses > 0 {
		t.Fatalf("%d/400 suite-style sites missing from a 2K BTB", misses)
	}
}

func TestStatsCount(t *testing.T) {
	b := New(DefaultConfig())
	b.Lookup(0x1)
	b.Insert(0x1, 2)
	b.Lookup(0x1)
	lookups, misses := b.Stats()
	if lookups != 2 || misses != 1 {
		t.Fatalf("stats %d/%d, want 2/1", lookups, misses)
	}
}

func TestInsertLookupProperty(t *testing.T) {
	b := New(DefaultConfig())
	f := func(pc, tgt uint64) bool {
		b.Insert(pc, tgt)
		got, ok := b.Lookup(pc)
		return ok && got == tgt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, cfg := range []Config{{Entries: 0, Ways: 4}, {Entries: 12, Ways: 4}} {
		func() {
			defer func() { recover() }()
			New(cfg)
			t.Fatalf("config %+v accepted", cfg)
		}()
	}
}

func TestStorage(t *testing.T) {
	if kb := float64(New(DefaultConfig()).StorageBits()) / 8192; kb < 8 || kb > 20 {
		t.Fatalf("2K-entry BTB storage %.1fKB implausible", kb)
	}
}

func TestConfigValidate(t *testing.T) {
	for _, c := range []Config{DefaultConfig(), {}, {Entries: 0, Ways: 0}, {Entries: 8, Ways: 8}, {Entries: 256, Ways: 256}, {Entries: 16, Ways: 1}} {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", c, err)
		}
	}
	for _, tc := range []struct {
		cfg   Config
		field string
	}{
		{Config{Entries: 3000, Ways: 4}, "Entries"}, // 750 sets
		{Config{Entries: 2048, Ways: 0}, "Ways"},
		{Config{Entries: -1, Ways: 4}, "Entries"},
		{Config{Entries: 1024, Ways: 512}, "Ways"}, // LRU rank is a uint8
		{Config{Entries: 2048, Ways: 3}, "Entries"},
	} {
		err := tc.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), "btb.Config."+tc.field) {
			t.Errorf("%+v: want a btb.Config.%s error, got %v", tc.cfg, tc.field, err)
			continue
		}
		func() {
			defer func() {
				if r := recover(); r == nil || fmt.Sprint(r) != err.Error() {
					t.Errorf("%+v: New panicked with %v, want %v", tc.cfg, r, err)
				}
			}()
			New(tc.cfg)
		}()
	}
}
