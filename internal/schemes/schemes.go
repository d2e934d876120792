// Package schemes is the single registry of named predictor/repair
// configurations. The localbp facade, cmd/lbpsim and cmd/lbpsweep all
// resolve scheme names through it, so the name → construction mapping
// (and the paper's canonical parameter choices) lives in exactly one
// place instead of per-command switch statements.
//
// Each Def owns its canonical parameters (ports, coalescing, PC budget);
// Resolve layers caller options on top of those defaults, so
// `-scheme backward` always means BWD-32-4-4 unless explicitly overridden.
package schemes

import (
	"fmt"
	"sort"
	"strings"

	"localbp/internal/bpu/loop"
	"localbp/internal/bpu/yehpatt"
	"localbp/internal/repair"
)

// Params carries every knob a registered scheme constructor can consume.
// Defaults returns the paper's canonical values; a Def's prep hook then
// applies its scheme-specific ones (e.g. snapshot's 8/8 ports) before
// caller options are applied.
type Params struct {
	Loop       loop.Config  // local predictor configuration
	OBQEntries int          // outstanding-branch-queue capacity
	Ports      repair.Ports // checkpoint-read / BHT-write ports
	Coalesce   bool         // OBQ same-PC run coalescing
	SharedPT   bool         // multi-stage: share one pattern table
	PCs        int          // limited-PC: repaired PCs per misprediction
	WritePorts int          // limited-PC: BHT write ports
	Invalidate bool         // limited-PC: invalidate instead of restore
}

// Defaults returns the baseline parameter set: Loop-128, a 32-entry OBQ and
// the paper's realistic 4-read/2-write port budget.
func Defaults() Params {
	return Params{
		Loop:       loop.Loop128(),
		OBQEntries: 32,
		Ports:      repair.Ports{CkptRead: 4, BHTWrite: 2},
		SharedPT:   true,
		PCs:        4,
		WritePorts: 4,
	}
}

// Opt mutates a Params; the facade and CLIs build these from user flags.
type Opt = func(*Params)

// Def is one registered scheme: its canonical name, CLI aliases, a short
// description, and how to build it. A nil Make is the TAGE-only baseline
// (no local predictor, no repair scheme).
type Def struct {
	Name    string
	Aliases []string
	Desc    string
	// Oracle marks the never-mispredicting local predictor of Figure 4.
	Oracle bool
	// prep applies the scheme's canonical parameters over Defaults().
	prep func(*Params)
	// Make constructs the repair scheme; nil for the TAGE-only baseline.
	Make func(Params) repair.Scheme
}

// registry lists every scheme, in presentation order (baseline → oracle
// bounds → naive → realistic repairs → variants).
var registry = []Def{
	{
		Name: "baseline", Aliases: []string{"tage"},
		Desc: "TAGE-only baseline, no local predictor",
	},
	{
		Name: "perfect",
		Desc: "oracle repair: unbounded checkpoints, zero-cycle restore",
		Make: func(p Params) repair.Scheme { return repair.NewPerfect(p.Loop) },
	},
	{
		Name:   "oracle",
		Desc:   "never-mispredicting local predictor (Figure 4 upper bound)",
		Oracle: true,
		Make:   func(p Params) repair.Scheme { return repair.NewPerfect(p.Loop) },
	},
	{
		Name: "none", Aliases: []string{"no-repair"},
		Desc: "speculative BHT never repaired (§2.7)",
		Make: func(p Params) repair.Scheme { return repair.NewNone(p.Loop) },
	},
	{
		Name: "retire", Aliases: []string{"retire-update"},
		Desc: "BHT updated only at retirement (§6.2)",
		Make: func(p Params) repair.Scheme { return repair.NewRetireUpdate(p.Loop) },
	},
	{
		Name: "snapshot",
		Desc: "full-BHT snapshot queue (SNAP-32-8-8)",
		prep: func(p *Params) { p.Ports = repair.Ports{CkptRead: 8, BHTWrite: 8} },
		Make: func(p Params) repair.Scheme {
			return repair.NewSnapshot(p.Loop, p.OBQEntries, p.Ports)
		},
	},
	{
		Name: "backward", Aliases: []string{"backward-walk"},
		Desc: "prior-art backward-walk history file (BWD-32-4-4)",
		prep: func(p *Params) { p.Ports = repair.Ports{CkptRead: 4, BHTWrite: 4} },
		Make: func(p Params) repair.Scheme {
			return repair.NewBackwardWalk(p.Loop, p.OBQEntries, p.Ports)
		},
	},
	{
		Name: "forward",
		Desc: "forward-walk OBQ without coalescing (FWD-32-4-2)",
		Make: func(p Params) repair.Scheme {
			return repair.NewForwardWalk(p.Loop, p.OBQEntries, p.Ports, p.Coalesce)
		},
	},
	{
		Name: "forward-coalesce", Aliases: []string{"forward-walk"},
		Desc: "forward-walk OBQ with same-PC coalescing (§3.1, paper headline)",
		prep: func(p *Params) { p.Coalesce = true },
		Make: func(p Params) repair.Scheme {
			return repair.NewForwardWalk(p.Loop, p.OBQEntries, p.Ports, p.Coalesce)
		},
	},
	{
		Name: "multistage",
		Desc: "two-stage split BHT, shared pattern table (§3.2)",
		Make: func(p Params) repair.Scheme {
			return repair.NewMultiStage(p.Loop, p.OBQEntries, p.SharedPT)
		},
	},
	{
		Name: "multistage-split",
		Desc: "two-stage split BHT with split pattern tables",
		prep: func(p *Params) { p.SharedPT = false },
		Make: func(p Params) repair.Scheme {
			return repair.NewMultiStage(p.Loop, p.OBQEntries, p.SharedPT)
		},
	},
	{
		Name: "limited", Aliases: []string{"limited-pc"},
		Desc: "limited-PC repair: PCs repaired per misprediction set by -pcs (§3.3)",
		Make: func(p Params) repair.Scheme {
			return repair.NewLimitedPC(p.Loop, p.PCs, p.WritePorts, p.Invalidate)
		},
	},
	{
		Name: "limited2",
		Desc: "limited-PC repair, 2 PCs, 2 write ports (§3.3)",
		prep: func(p *Params) { p.PCs, p.WritePorts = 2, 2 },
		Make: func(p Params) repair.Scheme {
			return repair.NewLimitedPC(p.Loop, p.PCs, p.WritePorts, p.Invalidate)
		},
	},
	{
		Name: "limited4",
		Desc: "limited-PC repair, 4 PCs, 4 write ports (§3.3)",
		Make: func(p Params) repair.Scheme {
			return repair.NewLimitedPC(p.Loop, p.PCs, p.WritePorts, p.Invalidate)
		},
	},
	{
		Name: "limited8",
		Desc: "limited-PC repair, 8 PCs, 4 write ports (§3.3)",
		prep: func(p *Params) { p.PCs = 8 },
		Make: func(p Params) repair.Scheme {
			return repair.NewLimitedPC(p.Loop, p.PCs, p.WritePorts, p.Invalidate)
		},
	},
	{
		Name: "yehpatt-forward", Aliases: []string{"yehpatt"},
		Desc: "generic Yeh-Patt two-level local predictor under forward-walk repair",
		prep: func(p *Params) { p.Coalesce = true },
		Make: func(p Params) repair.Scheme {
			return repair.NewForwardWalkFor(yehpatt.New(yehpatt.Default128()),
				p.OBQEntries, p.Ports, p.Coalesce)
		},
	},
}

// ByName finds a Def by canonical name or alias.
func ByName(name string) (*Def, bool) {
	for i := range registry {
		d := &registry[i]
		if d.Name == name {
			return d, true
		}
		for _, a := range d.Aliases {
			if a == name {
				return d, true
			}
		}
	}
	return nil, false
}

// Resolve looks up a scheme and computes its effective parameters:
// Defaults, then the Def's canonical prep, then caller options in order.
func Resolve(name string, opts ...Opt) (*Def, Params, error) {
	d, ok := ByName(name)
	if !ok {
		return nil, Params{}, fmt.Errorf(
			"unknown scheme %q (valid: %s)", name, strings.Join(Names(), ", "))
	}
	p := Defaults()
	if d.prep != nil {
		d.prep(&p)
	}
	for _, o := range opts {
		if o != nil {
			o(&p)
		}
	}
	return d, p, nil
}

// Build resolves a name and constructs the scheme (nil for the TAGE-only
// baseline) with its effective parameters.
func Build(name string, opts ...Opt) (repair.Scheme, *Def, error) {
	d, p, err := Resolve(name, opts...)
	if err != nil {
		return nil, nil, err
	}
	if d.Make == nil {
		return nil, d, nil
	}
	return d.Make(p), d, nil
}

// Names returns every canonical scheme name, sorted.
func Names() []string {
	out := make([]string, len(registry))
	for i := range registry {
		out[i] = registry[i].Name
	}
	sort.Strings(out)
	return out
}

// All returns the registry in presentation order.
func All() []*Def {
	out := make([]*Def, len(registry))
	for i := range registry {
		out[i] = &registry[i]
	}
	return out
}

// Usage renders a name → description table for CLI help text.
func Usage() string {
	var b strings.Builder
	for i := range registry {
		d := &registry[i]
		name := d.Name
		if len(d.Aliases) > 0 {
			name += " (" + strings.Join(d.Aliases, ", ") + ")"
		}
		fmt.Fprintf(&b, "  %-34s %s\n", name, d.Desc)
	}
	return b.String()
}
