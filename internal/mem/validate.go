package mem

import (
	"errors"
	"fmt"
)

// maxWays bounds associativity: a set header keeps one 4-bit way number per
// way in its 64-bit recency list, one bit per way in its 16-bit pref mask
// and one byte per way in its 16 fingerprint bytes.
const maxWays = 16

// Validate checks every level's geometry and the DRAM latency and returns a
// field-level error for every violated constraint (all violations, joined),
// or nil.
func (h HierarchyConfig) Validate() error {
	var errs []error
	for _, l := range [...]struct {
		name string
		cfg  Config
	}{{"L1", h.L1}, {"L2", h.L2}, {"LLC", h.LLC}} {
		errs = append(errs, l.cfg.validate("mem.HierarchyConfig."+l.name)...)
	}
	if h.DRAMLatency < 0 {
		errs = append(errs, fmt.Errorf("mem.HierarchyConfig.DRAMLatency: got %d, want >= 0", h.DRAMLatency))
	}
	return errors.Join(errs...)
}

// validate returns one error per malformed field of a level, each named
// prefix.Field.
func (c Config) validate(prefix string) []error {
	var errs []error
	bad := func(field string, got any, want string) {
		errs = append(errs, fmt.Errorf("%s.%s: got %v, want %s", prefix, field, got, want))
	}
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		bad("LineBytes", c.LineBytes, "a power of two")
	}
	if c.Ways < 1 || c.Ways > maxWays {
		bad("Ways", c.Ways, fmt.Sprintf("in [1, %d]", maxWays))
	}
	if len(errs) == 0 {
		set := c.LineBytes * c.Ways
		if sets := c.SizeBytes / set; c.SizeBytes <= 0 || c.SizeBytes%set != 0 || sets&(sets-1) != 0 {
			bad("SizeBytes", c.SizeBytes, fmt.Sprintf("LineBytes*Ways (%d) times a power of two", set))
		}
	}
	if c.Latency < 0 {
		bad("Latency", c.Latency, ">= 0")
	}
	return errs
}
