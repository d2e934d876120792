// Package localbp reproduces "Towards the adoption of Local Branch
// Predictors in Modern Out-of-Order Superscalar Processors" (Soundararajan
// et al., MICRO-52, 2019): a cycle-level out-of-order core with a TAGE
// baseline predictor, the CBPw-Loop two-level local predictor, and every
// BHT repair scheme the paper studies — perfect, none, update-at-retire,
// snapshot queue, backward/forward walk history files, multi-stage split
// BHT, and limited-PC repair.
//
// This package is the public facade. Schemes are values built by named
// constructors (optionally tuned with Scheme options), and a simulation is
// one Simulate call, tuned with functional options:
//
//	w, _ := localbp.Workload("cloud-compression")
//	res, err := localbp.Simulate(w, 500_000, localbp.ForwardWalk(),
//		localbp.WithAudit(), localbp.WithCPIStack())
//	if err != nil { ... }
//	fmt.Printf("IPC %.2f, MPKI %.2f\n%s", res.IPC, res.MPKI, res.CPI)
//
// Observability (the CPI stack, the counter registry, the event tracer) is
// opt-in per run: a Simulate call without WithCPIStack/WithCounters/
// WithEventTrace/WithObserver runs the bare pipeline.
//
// The full component API lives in the internal packages and is exercised by
// the cmd/ tools, the examples/ programs and the experiment harness; see
// DESIGN.md for the architecture and EXPERIMENTS.md for the paper-vs-
// measured results.
package localbp

import (
	"context"
	"errors"
	"fmt"

	"localbp/internal/audit"
	"localbp/internal/bpu"
	"localbp/internal/bpu/loop"
	"localbp/internal/bpu/tage"
	"localbp/internal/core"
	"localbp/internal/obs"
	"localbp/internal/repair"
	"localbp/internal/schemes"
	"localbp/internal/trace"
	"localbp/internal/workloads"
)

// Scheme names a local-predictor integration (predictor + repair),
// resolved through the shared scheme registry. Values are built by the
// named constructors (BaselineTAGE, ForwardWalk, ...) or SchemeByName.
type Scheme interface {
	// Label returns the scheme's display name.
	Label() string
	// spec keeps the interface closed over this package's registry entries.
	spec() schemeSpec
}

type schemeSpec struct {
	label string
	name  string // registry name
	opts  []SchemeOpt
}

func (s schemeSpec) Label() string    { return s.label }
func (s schemeSpec) spec() schemeSpec { return s }

func mkScheme(label, name string, opts []SchemeOpt) Scheme {
	return schemeSpec{label: label, name: name, opts: opts}
}

// SchemeOpt tunes a scheme's construction parameters (loop size, OBQ
// capacity, port budget, ...). Apply via the scheme constructors.
type SchemeOpt = schemes.Opt

// WithLoopEntries selects the CBPw-Loop predictor size: 64, 128 (default)
// or 256 entries. Other values fall back to 128.
func WithLoopEntries(n int) SchemeOpt {
	return func(p *schemes.Params) {
		switch n {
		case 64:
			p.Loop = loop.Loop64()
		case 256:
			p.Loop = loop.Loop256()
		default:
			p.Loop = loop.Loop128()
		}
	}
}

// WithOBQEntries sets the outstanding-branch-queue capacity.
func WithOBQEntries(n int) SchemeOpt {
	return func(p *schemes.Params) { p.OBQEntries = n }
}

// WithPorts sets the checkpoint-read and BHT-write port budget.
func WithPorts(ckptRead, bhtWrite int) SchemeOpt {
	return func(p *schemes.Params) {
		p.Ports = repair.Ports{CkptRead: ckptRead, BHTWrite: bhtWrite}
	}
}

// WithCoalescing toggles OBQ same-PC run coalescing (forward walk).
func WithCoalescing(on bool) SchemeOpt {
	return func(p *schemes.Params) { p.Coalesce = on }
}

// WithSharedPT toggles the shared pattern table (multi-stage).
func WithSharedPT(on bool) SchemeOpt {
	return func(p *schemes.Params) { p.SharedPT = on }
}

// WithWritePorts sets the BHT write-port count (limited-PC repair).
func WithWritePorts(n int) SchemeOpt {
	return func(p *schemes.Params) { p.WritePorts = n }
}

// WithInvalidate makes limited-PC repair invalidate entries instead of
// restoring them.
func WithInvalidate(on bool) SchemeOpt {
	return func(p *schemes.Params) { p.Invalidate = on }
}

// BaselineTAGE simulates the TAGE-only baseline (no local predictor).
func BaselineTAGE() Scheme { return mkScheme("tage", "baseline", nil) }

// PerfectRepair is the oracle upper bound: unbounded checkpoints, zero-cycle
// repair.
func PerfectRepair(opts ...SchemeOpt) Scheme { return mkScheme("perfect", "perfect", opts) }

// NoRepair leaves the speculative BHT state unrepaired (paper §2.7).
func NoRepair(opts ...SchemeOpt) Scheme { return mkScheme("no-repair", "none", opts) }

// RetireUpdate defers BHT updates to retirement (paper §6.2).
func RetireUpdate(opts ...SchemeOpt) Scheme { return mkScheme("retire-update", "retire", opts) }

// SnapshotQueue checkpoints the full BHT per branch (SNAP-32-8-8).
func SnapshotQueue(opts ...SchemeOpt) Scheme { return mkScheme("snapshot", "snapshot", opts) }

// BackwardWalk is the prior-art history-file repair (BWD-32-4-4).
func BackwardWalk(opts ...SchemeOpt) Scheme { return mkScheme("backward-walk", "backward", opts) }

// ForwardWalk is the paper's headline realistic repair (FWD-32-4-2 with OBQ
// coalescing, §3.1).
func ForwardWalk(opts ...SchemeOpt) Scheme {
	return mkScheme("forward-walk", "forward-coalesce", opts)
}

// MultiStage is the split-BHT two-stage design with a shared PT (§3.2).
func MultiStage(opts ...SchemeOpt) Scheme { return mkScheme("multistage", "multistage", opts) }

// GenericLocal swaps CBPw-Loop for a generic two-level (Yeh-Patt) local
// predictor under forward-walk repair, demonstrating the paper's claim that
// the repair techniques extend to any local predictor design.
func GenericLocal(opts ...SchemeOpt) Scheme {
	return mkScheme("yehpatt-forward", "yehpatt-forward", opts)
}

// LimitedPC repairs m PCs per misprediction (§3.3).
func LimitedPC(m int, opts ...SchemeOpt) Scheme {
	all := append([]SchemeOpt{func(p *schemes.Params) { p.PCs = m }}, opts...)
	return mkScheme(fmt.Sprintf("limited-%dpc", m), "limited", all)
}

// SchemeByName resolves any registry scheme name or alias (see SchemeNames);
// the label is the canonical registry name.
func SchemeByName(name string, opts ...SchemeOpt) (Scheme, error) {
	d, _, err := schemes.Resolve(name, opts...)
	if err != nil {
		return nil, fmt.Errorf("localbp: %w", err)
	}
	return mkScheme(d.Name, d.Name, opts), nil
}

// SchemeNames returns every canonical scheme name, sorted.
func SchemeNames() []string { return schemes.Names() }

// Observability re-exports: callers interpret CPI stacks and trace events
// through these aliases without importing internal packages.
type (
	// CPIStack is a per-run cycle-accounting breakdown; every simulated
	// cycle is attributed to exactly one bucket. Its String method renders
	// an aligned table.
	CPIStack = obs.CPIStack
	// CPIBucket indexes one CPIStack category.
	CPIBucket = obs.CPIBucket
	// Event is one structured trace event (mispredict, repair, ...).
	Event = obs.Event
	// EventKind discriminates Event values.
	EventKind = obs.EventKind
)

// CPI-stack buckets (see CPIStack.Fraction).
const (
	CPIRetired         = obs.CPIRetired
	CPIFrontendResteer = obs.CPIFrontendResteer
	CPIMemoryBound     = obs.CPIMemoryBound
	CPIRepairBusy      = obs.CPIRepairBusy
	CPIROBFull         = obs.CPIROBFull
	CPILSQFull         = obs.CPILSQFull
	CPIAllocStall      = obs.CPIAllocStall
	// NumCPIBuckets is the bucket count; valid buckets are < NumCPIBuckets.
	NumCPIBuckets = obs.NumCPIBuckets
)

// Event kinds emitted by the tracer.
const (
	EvMispredict   = obs.EvMispredict
	EvEarlyResteer = obs.EvEarlyResteer
	EvRepair       = obs.EvRepair
	EvOBQCoalesce  = obs.EvOBQCoalesce
	EvPrefetchHit  = obs.EvPrefetchHit
)

// Source is the canonical streaming trace contract (see trace.Source):
// FromSource consumes one, OpenTrace builds one from an on-disk LBP1/LBP2/
// ChampSim file, and trace.NewSliceSource wraps an in-memory stream.
type Source = trace.Source

// OpenTrace opens an on-disk trace (LBP1, LBP2 or .champsim/.cst external
// format, sniffed automatically; LBP2 is memory-mapped when the platform
// supports it) as a streaming Source. Release it with CloseTrace.
func OpenTrace(path string) (Source, error) { return trace.OpenSource(path) }

// CloseTrace releases a source's open file or mapping; sources without
// resources are a no-op.
func CloseTrace(src Source) error { return trace.CloseSource(src) }

// Option tunes one Simulate/FromSource run.
type Option func(*simConfig)

type simConfig struct {
	ctx       context.Context
	auditOn   bool
	golden    bool
	seed      int64
	seedSet   bool
	warmup    uint64
	cpistack  bool
	counters  bool
	traceCap  int
	observer  func(Event)
	progress  func(uint64)
	maxCycles int64
	traceFile string
}

// WithContext runs the simulation under ctx: cancellation or a deadline
// aborts the run within one cancellation-check stride with a structured
// error (errors.Is matches context.Canceled / context.DeadlineExceeded and
// the core.ErrCanceled sentinel). The wall-clock deadline composes with the
// cycle-domain watchdog (WithMaxCycles): whichever bound trips first wins.
// The context checks are read-only — a run that completes is bit-identical
// to one without a context.
func WithContext(ctx context.Context) Option {
	return func(c *simConfig) { c.ctx = ctx }
}

// WithAudit enables the integrity auditor: read-only invariant checks over
// the core loop and the repair scheme; the first violation aborts the run
// with a structured *audit.IntegrityError.
func WithAudit() Option { return func(c *simConfig) { c.auditOn = true } }

// WithGolden cross-checks every retirement against the timing-free in-order
// golden model of the same trace.
func WithGolden() Option { return func(c *simConfig) { c.golden = true } }

// WithSeed overrides the workload's trace-generation seed. It applies to
// Simulate of a generated workload only; FromSource rejects it.
func WithSeed(s int64) Option {
	return func(c *simConfig) { c.seed, c.seedSet = s, true }
}

// WithWarmup excludes the first n retired instructions from the reported
// statistics (predictor and cache warmup).
func WithWarmup(n uint64) Option { return func(c *simConfig) { c.warmup = n } }

// WithMaxCycles bounds the run's simulated cycles (0 = automatic budget).
func WithMaxCycles(n int64) Option { return func(c *simConfig) { c.maxCycles = n } }

// WithCPIStack enables per-cycle CPI-stack accounting; Result.CPI holds the
// breakdown. The attribution is audited: buckets must sum to total cycles.
func WithCPIStack() Option { return func(c *simConfig) { c.cpistack = true } }

// WithCounters enables the counter registry; Result.Counters holds a
// name → value snapshot across core, memory, OBQ and repair subsystems.
func WithCounters() Option { return func(c *simConfig) { c.counters = true } }

// WithEventTrace enables the structured event tracer with a ring buffer of
// the given capacity (≤ 0 selects 4096); Result.Events holds the retained
// events, oldest first.
func WithEventTrace(capacity int) Option {
	return func(c *simConfig) {
		if capacity <= 0 {
			capacity = 4096
		}
		c.traceCap = capacity
	}
}

// WithObserver streams every trace event to fn as it is emitted (implies
// event tracing). fn runs on the simulation goroutine; keep it cheap.
func WithObserver(fn func(Event)) Option {
	return func(c *simConfig) { c.observer = fn }
}

// WithProgress reports the cumulative retired-instruction count to fn
// periodically (at the cycle loop's cancellation-poll stride) and once at
// completion. The hook is read-only — results are bit-identical with or
// without it — and fn runs on the simulation goroutine, so it must be cheap;
// long-running services batch downstream work (see internal/obs.Accumulator).
func WithProgress(fn func(retired uint64)) Option {
	return func(c *simConfig) { c.progress = fn }
}

// WithTraceFile replays an on-disk trace (LBP1/LBP2/ChampSim) instead of
// generating the workload's stream: Simulate streams the file at fixed
// memory, capped at n instructions when n > 0 (n <= 0 replays the whole
// file). The workload's name is kept for labeling; its seed and profile are
// unused. WithSeed and WithGolden do not compose with a streamed file (the
// golden oracle needs the whole trace resident). FromSource rejects it: pass
// the file as the source instead (OpenTrace).
func WithTraceFile(path string) Option {
	return func(c *simConfig) { c.traceFile = path }
}

// Result summarizes one simulation.
type Result struct {
	Scheme      string
	IPC         float64
	MPKI        float64
	Cycles      int64
	Insts       uint64
	Branches    uint64
	Mispredicts uint64
	// Overrides counts local-predictor overrides of TAGE; OverridesOK the
	// ones confirmed correct on the retired path.
	Overrides, OverridesOK uint64

	// CPI is the cycle-accounting breakdown; non-nil only with WithCPIStack.
	CPI *CPIStack
	// Counters is the registry snapshot; non-nil only with WithCounters.
	Counters map[string]uint64
	// Events holds the tracer's retained events (oldest first); non-nil
	// only with WithEventTrace or WithObserver.
	Events []Event
}

// WorkloadInfo identifies a suite workload.
type WorkloadInfo = workloads.Workload

// Workload looks up a suite workload by name (see Workloads).
func Workload(name string) (WorkloadInfo, bool) { return workloads.ByName(name) }

// Workloads returns the full 202-entry evaluation suite (Table 1).
func Workloads() []WorkloadInfo { return workloads.Suite() }

// QuickWorkloads returns the reduced, category-balanced subset.
func QuickWorkloads() []WorkloadInfo { return workloads.QuickSuite() }

// Simulate runs one workload for n instructions on the Table 2 core under
// the given scheme. With WithTraceFile the stream is replayed from disk at
// fixed memory instead of generated (and n <= 0 means the whole file).
func Simulate(w WorkloadInfo, n int, s Scheme, opts ...Option) (Result, error) {
	var sc simConfig
	for _, o := range opts {
		if o != nil {
			o(&sc)
		}
	}
	if sc.traceFile != "" {
		w.TraceFile = sc.traceFile
	}
	if w.TraceFile != "" {
		if sc.seedSet {
			return Result{}, errors.New("localbp: WithSeed does not apply to a file-replayed trace")
		}
		src, err := w.Open(n)
		if err != nil {
			return Result{}, fmt.Errorf("localbp: %w", err)
		}
		defer trace.CloseSource(src)
		return simulate(src, s, sc)
	}
	if n <= 0 {
		return Result{}, fmt.Errorf("localbp: instruction count %d, want > 0", n)
	}
	if sc.seedSet {
		w.Seed = sc.seed
	}
	return simulate(trace.NewSliceSource(w.Generate(n)), s, sc)
}

// FromSource runs a prepared streaming source under the given scheme: the
// canonical trace entry point. An in-memory source (trace.NewSliceSource)
// takes the resident-program path bit-identically; a file or mmap source
// (OpenTrace) replays at fixed memory. The caller retains ownership of src —
// sources are stateful and single-consumer, so open a fresh one per run and
// release file-backed sources with CloseTrace. WithSeed and WithTraceFile
// select Simulate's stream, so FromSource rejects both.
func FromSource(src Source, s Scheme, opts ...Option) (Result, error) {
	if src == nil {
		return Result{}, errors.New("localbp: nil source")
	}
	var sc simConfig
	for _, o := range opts {
		if o != nil {
			o(&sc)
		}
	}
	if sc.seedSet {
		return Result{}, errors.New("localbp: WithSeed does not apply to a prepared source")
	}
	if sc.traceFile != "" {
		return Result{}, errors.New("localbp: WithTraceFile does not apply to a prepared source; open the file with OpenTrace")
	}
	return simulate(src, s, sc)
}

func simulate(src Source, s Scheme, sc simConfig) (Result, error) {
	if s == nil {
		return Result{}, errors.New("localbp: nil scheme")
	}
	sp := s.spec()
	scheme, def, err := schemes.Build(sp.name, sp.opts...)
	if err != nil {
		return Result{}, fmt.Errorf("localbp: %w", err)
	}

	ccfg := core.DefaultConfig()
	ccfg.WarmupInsts = sc.warmup
	ccfg.MaxCycles = sc.maxCycles
	ccfg.Progress = sc.progress

	// Observability hooks: built fresh per run, so concurrent Simulate
	// calls never share registries or tracers.
	hooks := &obs.Hooks{}
	wantObs := false
	if sc.cpistack {
		hooks.CPI = obs.NewCPIStack()
		wantObs = true
	}
	if sc.counters {
		hooks.Reg = obs.NewRegistry()
		wantObs = true
	}
	if sc.traceCap > 0 || sc.observer != nil {
		capacity := sc.traceCap
		if capacity <= 0 {
			capacity = 4096
		}
		hooks.Tracer = obs.NewTracer(capacity)
		hooks.Tracer.Observer = sc.observer
		wantObs = true
	}
	if wantObs {
		ccfg.Obs = hooks
		if scheme != nil {
			// Register the raw scheme before any decorator wraps it: the
			// audit/inject wrappers forward behaviour, not registration.
			repair.AttachObs(scheme, hooks.Reg, hooks.Tracer)
		}
	}

	if sc.auditOn {
		aud := audit.New()
		ccfg.Audit = aud
		if scheme != nil {
			scheme = audit.WrapScheme(scheme, aud)
		}
	}
	if sc.golden {
		tr, ok := trace.SourceSlice(src)
		if !ok {
			return Result{}, errors.New(
				"localbp: WithGolden needs the whole trace in memory; drop it or use an in-memory source")
		}
		ccfg.Golden = audit.NewGolden(tr)
	}

	unit := bpu.NewUnit(tage.KB8(), scheme)
	unit.Oracle = def.Oracle
	c, err := core.NewStream(ccfg, unit, src)
	if err != nil {
		return Result{}, err
	}
	ctx := sc.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	st, err := c.RunContext(ctx)
	if err != nil {
		c.Recycle()
		return Result{}, err
	}
	ov, ovok := unit.OverrideStats()
	res := Result{
		Scheme:      sp.label,
		IPC:         st.IPC(),
		MPKI:        st.MPKI(),
		Cycles:      st.Cycles,
		Insts:       st.Insts,
		Branches:    st.Branches,
		Mispredicts: st.Mispredicts,
		Overrides:   ov,
		OverridesOK: ovok,
		CPI:         hooks.CPI,
	}
	if hooks.Reg != nil {
		res.Counters = hooks.Reg.Snapshot()
	}
	if hooks.Tracer != nil {
		res.Events = hooks.Tracer.Events()
	}
	// All stats (including the registry's "mem" pull source) are snapshotted;
	// the hierarchy's metadata arrays can go back to the pool.
	c.Recycle()
	return res, nil
}
