package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"localbp"
	"localbp/internal/harness"
	"localbp/internal/trace"
	"localbp/internal/workloads"
)

// Shape of the quick-sweep workload. The pinned digest depends on
// sweepInsts and the ladder.
const (
	sweepInsts = 20_000 // instructions per quick-suite workload
	warmInsts  = 2_000  // instructions per workload in the set-up's warm-up ladder
	minLadders = 3
)

// ladder is the Table-3 scheme ladder one sweep runs. Its rungs cost
// different host time per instruction, so the op times form one cluster
// per rung.
var ladder = []string{"baseline", "none", "backward", "forward", "forward-coalesce", "multistage", "perfect"}

// layerScheme is the scheme the per-layer replays use on quick-sweep: the
// paper's headline rung.
const layerScheme = "forward-coalesce"

// sweepWorkload runs the quick suite over the scheme ladder through the
// harness, one spec's suite run per op.
type sweepWorkload struct{ id string }

func (s *sweepWorkload) name() string { return s.id }

func (s *sweepWorkload) describe() string {
	return fmt.Sprintf("workload %s: %d quick-suite workloads x %d insts over the ladder %s, "+
		"harness.NewRunner(...).RunContext with Workers=%d; one op is one spec's suite run; "+
		"the quick suite is fixed, so the seed does not change the inputs",
		s.id, len(workloads.QuickSuite()), sweepInsts, strings.Join(ladder, ","), runtime.NumCPU())
}

// sweepOp is one spec's suite run.
type sweepOp struct {
	ladder, rung int
	ns           int64 // wall time
	cpuNs        int64 // CPU time, all threads
	ipc, mpki    []float64
	cycles       float64 // simulated cycles summed over the suite
	errs         []string
}

// buildLadder resolves every rung to a harness spec.
func buildLadder() ([]harness.Spec, error) {
	specs := make([]harness.Spec, len(ladder))
	for i, name := range ladder {
		sp, err := harness.SpecFor(name)
		if err != nil {
			return nil, err
		}
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("spec %s: %w", name, err)
		}
		specs[i] = sp
	}
	return specs, nil
}

// runSpec runs one spec over the quick suite on r.
func runSpec(ctx context.Context, r *harness.Runner, spec harness.Spec, insts int) sweepOp {
	t0, c0 := time.Now(), cpuTime()
	outs := r.RunContext(ctx, spec)
	op := sweepOp{ns: time.Since(t0).Nanoseconds(), cpuNs: (cpuTime() - c0).Nanoseconds()}
	for _, o := range outs {
		if o.Err != nil {
			op.errs = append(op.errs, o.Err.Error())
		}
		op.ipc = append(op.ipc, o.Result.IPC)
		op.mpki = append(op.mpki, o.Result.MPKI)
		if o.Result.IPC > 0 {
			op.cycles += float64(insts) / o.Result.IPC
		}
	}
	return op
}

func newRunner(insts, workers int) *harness.Runner {
	return harness.NewRunner(harness.Options{Insts: insts, Quick: true, Workers: workers})
}

func (s *sweepWorkload) run(o options, rep *report) error {
	ctx := context.Background()
	nproc := runtime.NumCPU()
	suite := workloads.QuickSuite()
	opInsts := float64(len(suite) * sweepInsts)

	// Set-up: spec builds and validation, then a warm-up ladder at
	// warmInsts that runs every spec once before timing; repeated, and
	// setup_s is the median.
	var specs []harness.Spec
	var setupS []float64
	for r := 0; r < setupReps; r++ {
		sp := rep.spans.begin("setup", noParent, opSetup)
		t0 := time.Now()
		var err error
		if specs, err = buildLadder(); err != nil {
			return err
		}
		warm := newRunner(warmInsts, nproc)
		for _, spec := range specs {
			s := rep.spans.begin("harness.Runner.RunContext", sp, opSetup)
			op := runSpec(ctx, warm, spec, warmInsts)
			rep.spans.end(s)
			if len(op.errs) > 0 {
				return fmt.Errorf("warm-up %s: %s", spec.Label, op.errs[0])
			}
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		rep.spans.end(sp)
	}

	var sweeps []float64
	// loop runs whole ladders, each on a fresh Runner, for at least d.
	loop := func(d time.Duration, tr *tracer, firstOp int) []sweepOp {
		var ops []sweepOp
		start := time.Now()
		for l := 0; l < minLadders || time.Since(start) < d; l++ {
			r := newRunner(sweepInsts, nproc)
			sp := tr.begin("sweep", noParent, firstOp+len(ops))
			t0 := time.Now()
			for i, spec := range specs {
				id := firstOp + len(ops)
				s := tr.begin("spec:"+spec.Label, sp, id)
				c := tr.begin("harness.Runner.RunContext", s, id)
				var op sweepOp
				inOp(func() { op = runSpec(ctx, r, spec, sweepInsts) })
				tr.end(c)
				tr.end(s)
				op.ladder, op.rung = l, i
				ops = append(ops, op)
			}
			sweeps = append(sweeps, time.Since(t0).Seconds())
			tr.end(sp)
		}
		return ops
	}

	d := time.Duration(o.seconds) * time.Second
	var ops, untraced []sweepOp
	var ms0, ms1 runtime.MemStats
	var prof *cpuProfile
	var err error
	if o.trace {
		untraced = loop(d/2, nil, 0)
		prof, err = startCPUProfile(filepath.Join(o.out, fmt.Sprintf("cpu-%s-seed%d.pprof", s.id, o.seed)))
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms0)
		ops = loop(d/2, rep.spans, len(untraced))
		runtime.ReadMemStats(&ms1)
		if err := prof.stop(); err != nil {
			return err
		}
	} else {
		ops = loop(d, nil, 0)
	}
	rss, rssErr := peakRSSMiB()

	all := append(append([]sweepOp(nil), untraced...), ops...)
	rep.attempted = len(all)
	rep.failed = s.verify(all, rep)

	nsPerInst := func(ops []sweepOp) []float64 {
		var out []float64
		for _, op := range ops {
			out = append(out, float64(op.cpuNs)/opInsts)
		}
		return out
	}
	if !o.trace {
		rep.series = nsPerInst(ops)
		// The rungs differ in cost per instruction, so the median of the
		// ops would mostly be the middle rung's. Each p50 sample is
		// therefore a whole ladder's CPU time per instruction, covering
		// every rung; the tail stays per op.
		var ladders []float64
		for l := 0; (l+1)*len(ladder) <= len(ops); l++ {
			var ns int64
			for _, op := range ops[l*len(ladder) : (l+1)*len(ladder)] {
				ns += op.cpuNs
			}
			ladders = append(ladders, float64(ns)/(float64(len(ladder))*opInsts))
		}
		ms, err := timingMetrics(ladders, fmt.Sprintf("%d ladders of %d spec runs each", len(ladders), len(ladder)), rep.series)
		if err != nil {
			return err
		}
		for _, m := range ms {
			rep.add(m)
		}
		sd := summarize(sweeps)
		rep.add(metric{Name: "sweep_s", Unit: "s", Value: sd.P50, Dist: &sd,
			Note: fmt.Sprintf("one %d-spec ladder over the quick suite, trace generation included", len(ladder))})
		addSetupAndRSS(setupS, rss, rssErr, rep)
		return nil
	}

	// Traced run: per-layer replays over the quick suite's traces.
	dir := filepath.Join(o.out, fmt.Sprintf("layers-%s-%d", s.id, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var genNs int64
	var scratch []trace.Inst
	for _, w := range suite {
		sp := rep.spans.begin("workloads.GenerateInto", noParent, opReplay)
		t0 := time.Now()
		scratch = w.GenerateInto(scratch[:0], sweepInsts)
		genNs += time.Since(t0).Nanoseconds()
		rep.spans.end(sp)
	}

	var hv harnessValues
	cache := harness.NewTraceCache()
	traces := make([][]trace.Inst, len(suite))
	gen := rep.spans.begin("harness.suite_gen", noParent, opReplay)
	t0 := time.Now()
	for i, w := range suite {
		sp := rep.spans.begin("harness.TraceCache.Get", gen, opReplay)
		traces[i], err = cache.Get(w, sweepInsts)
		rep.spans.end(sp)
		if err != nil {
			return err
		}
	}
	hv.genS = time.Since(t0).Seconds()
	rep.spans.end(gen)

	var specNs []float64
	for _, op := range ops {
		specNs = append(specNs, float64(op.ns)/1e9)
	}
	hv.specS = medianOf(specNs)
	if hv.efficiency, err = s.workerEfficiency(ctx, specs, rep.spans); err != nil {
		return err
	}

	sch, err := localbp.SchemeByName(layerScheme)
	if err != nil {
		return err
	}
	refs := make([]localbp.Result, len(traces))
	for i, tr := range traces {
		sp := rep.spans.begin("localbp.FromSource.counted", noParent, opReplay)
		refs[i], err = localbp.FromSource(trace.NewSliceSource(tr), sch, localbp.WithCounters(), localbp.WithCPIStack())
		rep.spans.end(sp)
		if err != nil {
			return fmt.Errorf("counted run of %s: %w", suite[i].Name, err)
		}
	}
	ls := &layerSet{
		n:      len(traces),
		get:    func(i int) []trace.Inst { return traces[i] },
		paths:  make([]string, len(traces)),
		dir:    dir,
		scheme: layerScheme,
	}
	lt, lok, err := replayLayers(ls, rep.spans, rep)
	if err != nil {
		return err
	}
	if !lok {
		rep.failed = rep.attempted
	}
	a, err := attribute(prof.path)
	if err != nil {
		return err
	}
	rep.tables = append(rep.tables, a.table(), rep.spans.selfTimes())

	var nsPerCyc []float64
	for _, op := range ops {
		nsPerCyc = append(nsPerCyc, float64(op.cpuNs)/op.cycles)
	}
	in := layerInputs{
		genNs:     genNs,
		genInsts:  int64(len(suite) * sweepInsts),
		untraced:  nsPerInst(untraced),
		traced:    nsPerInst(ops),
		nsPerCyc:  nsPerCyc,
		ms0:       ms0,
		ms1:       ms1,
		opCount:   len(ops),
		opInsts:   int64(len(ops)) * int64(opInsts),
		lt:        lt,
		counts:    sumCounts(refs),
		harness:   hv,
		profShare: a.shares(),
	}
	for _, m := range layerMetrics(in) {
		rep.add(m)
	}
	return nil
}

// workerEfficiency times the forward-coalesce spec on one worker and on
// nproc workers, each on a runner whose traces a baseline run generated
// first.
func (s *sweepWorkload) workerEfficiency(ctx context.Context, specs []harness.Spec, tr *tracer) (float64, error) {
	n := runtime.NumCPU()
	var times [2]float64
	for k, workers := range []int{1, n} {
		r := newRunner(sweepInsts, workers)
		sp := tr.begin(fmt.Sprintf("harness.efficiency.%dw", workers), noParent, opReplay)
		warm := runSpec(ctx, r, specs[0], sweepInsts)
		timed := runSpec(ctx, r, specs[indexOf(ladder, layerScheme)], sweepInsts)
		tr.end(sp)
		if len(warm.errs)+len(timed.errs) > 0 {
			return 0, fmt.Errorf("worker-efficiency run failed: %v", append(warm.errs, timed.errs...))
		}
		times[k] = float64(timed.ns)
	}
	return times[0] / (float64(n) * times[1]), nil
}

// verify checks that no spec run failed, that every ladder reproduced the
// first ladder's per-spec IPC and MPKI vectors exactly, and that the first
// ladder's vectors match the pinned digest. It returns the failed ops.
func (s *sweepWorkload) verify(ops []sweepOp, rep *report) int {
	first := map[int]sweepOp{}
	for _, op := range ops {
		if op.ladder == 0 {
			first[op.rung] = op
		}
	}
	h := sha256.New()
	for i := range ladder {
		op := first[i]
		fmt.Fprintf(h, "%s|", ladder[i])
		for j := range op.ipc {
			fmt.Fprintf(h, "%x %x ", math.Float64bits(op.ipc[j]), math.Float64bits(op.mpki[j]))
		}
		h.Write([]byte{'\n'})
	}
	digest := hex.EncodeToString(h.Sum(nil))[:16]
	want := pinnedDigests[s.id]
	allOK := rep.check(digest == want, "digest of the per-spec IPC/MPKI vectors is %s, pinned %s", digest, want)
	rep.tables = append(rep.tables, fmt.Sprintf("per-spec IPC/MPKI digest: %s (pinned, seed-independent)\n", digest))
	bad := 0
	for _, op := range ops {
		ok := allOK
		if len(op.errs) > 0 {
			rep.fail("spec %s (ladder %d): %d workloads failed: %s", ladder[op.rung], op.ladder, len(op.errs), op.errs[0])
			ok = false
		} else if f := first[op.rung]; !equalVec(op.ipc, f.ipc) || !equalVec(op.mpki, f.mpki) {
			rep.fail("spec %s (ladder %d): IPC/MPKI differ from ladder 0", ladder[op.rung], op.ladder)
			ok = false
		}
		if !ok {
			bad++
		}
	}
	return bad
}

func equalVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func indexOf(list []string, s string) int {
	for i, v := range list {
		if v == s {
			return i
		}
	}
	return -1
}
