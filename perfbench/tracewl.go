package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"localbp"
	"localbp/internal/harness"
	"localbp/internal/trace"
	"localbp/internal/workloads"
)

// Shape of the single-trace workloads. The pinned digests depend on
// windowInsts and pinnedWindows: changing either means re-pinning.
const (
	windowInsts   = 100_000 // instructions per trace window (one op)
	pinnedWindows = 16      // windows generated in set-up, checked against the pinned digest
	setupReps     = 5       // set-up repetitions per run; setup_s is their median
	minOps        = 2 * pinnedWindows
)

// traceWorkload simulates distinct trace windows of one suite workload,
// one window per op, held in memory or replayed from LBP2 files.
type traceWorkload struct {
	id        string
	suiteName string
	scheme    string
	stream    bool
}

func (t *traceWorkload) name() string { return t.id }

func (t *traceWorkload) describe() string {
	src := "held in memory (FromSource over a SliceSource)"
	if t.stream {
		src = "written to LBP2 files and replayed through OpenTrace + FromSource"
	}
	return fmt.Sprintf("workload %s: %s x %s, one distinct %d-inst window per op (seed-derived), traces %s",
		t.id, t.suiteName, t.scheme, windowInsts, src)
}

// window is one distinct trace window.
type window struct {
	w    workloads.Workload
	tr   []trace.Inst // resident trace; nil outside the op that simulates it
	sum  trace.Stats
	path string // LBP2 file (stream-replay)
}

// opResult is one timed op.
type opResult struct {
	win   int
	cpuNs int64 // process CPU time of the simulation
	genNs int64 // process CPU time generating (and, for stream-replay, writing) its window; 0 for pinned windows
	res   localbp.Result
	err   error
	bad   string // why the op failed a check made in the loop
}

func (op opResult) nsPerInst() float64 { return float64(op.cpuNs) / float64(op.res.Insts) }

// windowSeed derives window i's generation seed from the benchmark seed.
func windowSeed(seed int64, i int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return int64(x >> 1)
}

// gen makes window i: it generates the trace into buf and, for
// stream-replay, writes it to path. The trace is returned in tr either way;
// callers drop it once they no longer need it.
func (t *traceWorkload) gen(base workloads.Workload, seed int64, i int, buf []trace.Inst, path string, tr *tracer, parent, op int) (window, error) {
	w := base
	w.Seed = windowSeed(seed, i)
	w.Name = fmt.Sprintf("%s@%d", base.Name, i)
	sp := tr.begin("workloads.GenerateInto", parent, op)
	tri := w.GenerateInto(buf[:0], windowInsts)
	tr.end(sp)
	win := window{w: w, tr: tri, sum: trace.Summarize(tri)}
	if t.stream {
		win.path = path
		sp := tr.begin("trace.WriteTraceLBP2", parent, op)
		err := writeLBP2(path, tri)
		tr.end(sp)
		if err != nil {
			return win, err
		}
	}
	return win, nil
}

func (t *traceWorkload) run(o options, rep *report) error {
	base, ok := workloads.ByName(t.suiteName)
	if !ok {
		return fmt.Errorf("suite workload %q not found", t.suiteName)
	}
	dir := filepath.Join(o.out, fmt.Sprintf("windows-%s-%d", t.id, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Set-up: scheme resolution and the pinned windows' generation (and
	// LBP2 writes), repeated; setup_s is the median. A pinned window keeps
	// only its summary (and file) so that no trace stays resident for the
	// run: peak_rss_mib measures the simulator, not the benchmark's inputs.
	pinned := make([]window, pinnedWindows)
	var sch localbp.Scheme
	var setupS []float64
	var scratch []trace.Inst
	for r := 0; r < setupReps; r++ {
		sp := rep.spans.begin("setup", noParent, opSetup)
		t0 := time.Now()
		var err error
		if sch, err = localbp.SchemeByName(t.scheme); err != nil {
			return err
		}
		for i := range pinned {
			path := filepath.Join(dir, fmt.Sprintf("pinned%02d.lbp2", i))
			if pinned[i], err = t.gen(base, o.seed, i, scratch, path, rep.spans, sp, opSetup); err != nil {
				return err
			}
			scratch, pinned[i].tr = pinned[i].tr, nil
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		rep.spans.end(sp)
		runtime.GC() // set-up's garbage is not the ops' memory
	}

	lp := &opLoop{t: t, base: base, seed: o.seed, sch: sch, pinned: pinned,
		path: filepath.Join(dir, "current.lbp2")}
	d := time.Duration(o.seconds) * time.Second
	var ops, untraced []opResult
	var ms0, ms1 runtime.MemStats
	var prof *cpuProfile
	var err error
	if o.trace {
		// The first half runs untraced; the second half records spans and
		// a CPU profile. Their ratio is the tracing overhead.
		if untraced, err = lp.run(d/2, nil); err != nil {
			return err
		}
		prof, err = startCPUProfile(filepath.Join(o.out, fmt.Sprintf("cpu-%s-seed%d.pprof", t.id, o.seed)))
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms0)
		ops, err = lp.run(d/2, rep.spans)
		runtime.ReadMemStats(&ms1)
		if perr := prof.stop(); err == nil {
			err = perr
		}
	} else {
		ops, err = lp.run(d, nil)
	}
	if err != nil {
		return err
	}
	// The peak is read before the checks and replays below: they are not
	// the workload's ops.
	rss, rssErr := peakRSSMiB()

	all := append(append([]opResult(nil), untraced...), ops...)
	refs, bad := t.verify(o, pinned, sch, all, rep)
	rep.attempted = len(all)
	rep.failed = bad

	if !o.trace {
		return t.endToEnd(ops, setupS, rss, rssErr, rep)
	}

	// Traced run: per-layer replays over the pinned windows.
	ls := &layerSet{
		n:      len(pinned),
		dir:    dir,
		scheme: t.scheme,
		paths:  make([]string, len(pinned)),
		get: func(i int) []trace.Inst {
			var tri []trace.Inst
			tri, scratch = t.resident(&pinned[i], scratch)
			return tri
		},
	}
	for i := range pinned {
		ls.paths[i] = pinned[i].path
	}
	lt, lok, err := replayLayers(ls, rep.spans, rep)
	if err != nil {
		return err
	}
	hv, err := t.harnessProbe(pinned, rep.spans)
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

	genD, genN := rep.spans.total("workloads.GenerateInto")
	in := layerInputs{
		genNs:     genD.Nanoseconds(),
		genInsts:  int64(genN) * windowInsts,
		untraced:  nsPerInstOf(untraced),
		traced:    nsPerInstOf(ops),
		nsPerCyc:  nsPerCycleOf(ops),
		ms0:       ms0,
		ms1:       ms1,
		opCount:   len(ops),
		opInsts:   instsOf(ops),
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

// resident returns window w's trace in memory, regenerating it into buf
// when the workload keeps only the file.
func (t *traceWorkload) resident(w *window, buf []trace.Inst) (tr, newBuf []trace.Inst) {
	if w.tr != nil {
		return w.tr, buf
	}
	tr = w.w.GenerateInto(buf[:0], windowInsts)
	return tr, tr
}

// opLoop is the closed loop of ops. Op k simulates window k: the pinned
// windows first, regenerated just before their op, then new windows
// generated one at a time just before their op; both outside the op's
// timing. Consecutive calls to run continue the
// window sequence, so every op of a run sees a distinct window.
type opLoop struct {
	t       *traceWorkload
	base    workloads.Workload
	seed    int64
	sch     localbp.Scheme
	pinned  []window
	path    string // LBP2 file of the current generated window
	next    int    // next window index
	scratch []trace.Inst
}

// run runs ops for at least d (and at least minOps ops).
func (lp *opLoop) run(d time.Duration, tr *tracer) ([]opResult, error) {
	t := lp.t
	var ops []opResult
	start := time.Now()
	for len(ops) < minOps || time.Since(start) < d {
		k := lp.next
		lp.next++
		var op opResult
		op.win = k
		var win window
		if k < len(lp.pinned) {
			win = lp.pinned[k]
			if !t.stream {
				win.tr, lp.scratch = t.resident(&win, lp.scratch)
			}
		} else {
			var err error
			op.genNs = timed(func() { win, err = t.gen(lp.base, lp.seed, k, lp.scratch, lp.path, tr, noParent, k) })
			if err != nil {
				return ops, err
			}
			lp.scratch = win.tr
			if t.stream {
				win.tr = nil // the op replays the file
			}
		}
		sp := tr.begin("op", noParent, k)
		op.cpuNs = timed(func() {
			inOp(func() { op.res, op.err = t.op(&win, lp.sch, tr, sp, k) })
		})
		tr.end(sp)
		if op.err == nil {
			op.bad = lp.check(&win, op.res)
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// check makes the per-op checks that need no reference run: the retired
// instruction and branch counts match the window, and a streamed op equals
// the in-memory simulation of the same window.
func (lp *opLoop) check(win *window, res localbp.Result) string {
	if res.Insts != windowInsts || res.Branches != uint64(win.sum.Branches) {
		return fmt.Sprintf("retired %d insts and %d branches, the window has %d and %d",
			res.Insts, res.Branches, windowInsts, win.sum.Branches)
	}
	if !lp.t.stream {
		return ""
	}
	tri, buf := lp.t.resident(win, lp.scratch)
	lp.scratch = buf
	mem, err := localbp.FromSource(trace.NewSliceSource(tri), lp.sch)
	if err != nil {
		return fmt.Sprintf("in-memory run: %v", err)
	}
	if !sameCore(res, mem) {
		return fmt.Sprintf("streamed cycles=%d mispredicts=%d, in-memory cycles=%d mispredicts=%d",
			res.Cycles, res.Mispredicts, mem.Cycles, mem.Mispredicts)
	}
	return ""
}

// op simulates one window under the workload's scheme.
func (t *traceWorkload) op(w *window, sch localbp.Scheme, tr *tracer, parent, id int, opts ...localbp.Option) (localbp.Result, error) {
	if t.stream {
		return runFile(w.path, sch, tr, parent, id, opts...)
	}
	sp := tr.begin("localbp.FromSource", parent, id)
	defer tr.end(sp)
	return localbp.FromSource(trace.NewSliceSource(w.tr), sch, opts...)
}

// verify runs one counted reference per pinned window (in memory; for
// stream-replay also from the file, which must match), audits window 0 with
// the integrity auditor and the golden model, checks the ops on pinned
// windows against their references, and at the default seed compares the
// digest of the references with the pinned one. It returns the references
// and the number of failed ops.
func (t *traceWorkload) verify(o options, pinned []window, sch localbp.Scheme, ops []opResult, rep *report) ([]localbp.Result, int) {
	counted := []localbp.Option{localbp.WithCounters(), localbp.WithCPIStack()}
	refs := make([]localbp.Result, len(pinned))
	winOK := make([]bool, len(pinned))
	var buf []trace.Inst
	for i := range pinned {
		var tri []trace.Inst
		tri, buf = t.resident(&pinned[i], buf)
		ref, err := localbp.FromSource(trace.NewSliceSource(tri), sch, counted...)
		if err != nil {
			rep.fail("window %d: reference run: %v", i, err)
			continue
		}
		ok := rep.check(ref.Insts == windowInsts && ref.Branches == uint64(pinned[i].sum.Branches),
			"window %d: reference retired %d insts and %d branches, the trace has %d and %d",
			i, ref.Insts, ref.Branches, windowInsts, pinned[i].sum.Branches)
		if t.stream {
			sref, err := t.op(&pinned[i], sch, nil, noParent, opReplay, counted...)
			ok = rep.check(err == nil && digestResults([]localbp.Result{sref}) == digestResults([]localbp.Result{ref}),
				"window %d: the streamed run differs from the in-memory run (err=%v)", i, err) && ok
		}
		if i == 0 {
			aud, err := localbp.FromSource(trace.NewSliceSource(tri), sch, localbp.WithAudit(), localbp.WithGolden())
			ok = rep.check(err == nil && sameCore(aud, ref),
				"window 0: audited run with the golden model failed or differs (err=%v)", err) && ok
		}
		refs[i], winOK[i] = ref, ok
	}
	digest := digestResults(refs)
	allOK := true
	if o.seed == defaultSeed {
		want := pinnedDigests[t.id]
		allOK = rep.check(digest == want, "digest of the simulated statistics is %s, pinned %s", digest, want)
	}
	rep.tables = append(rep.tables, fmt.Sprintf("simulated-statistics digest: %s (seed %d, %d pinned windows, pinned at seed %d)\n",
		digest, o.seed, len(pinned), defaultSeed))
	bad := 0
	for _, op := range ops {
		switch {
		case op.err != nil:
			rep.fail("op on window %d: %v", op.win, op.err)
		case op.bad != "":
			rep.fail("op on window %d: %s", op.win, op.bad)
		case !allOK:
		case op.win >= len(pinned):
			continue
		case !winOK[op.win]:
		case !sameCore(op.res, refs[op.win]):
			rep.fail("op on window %d: cycles=%d mispredicts=%d, reference cycles=%d mispredicts=%d",
				op.win, op.res.Cycles, op.res.Mispredicts, refs[op.win].Cycles, refs[op.win].Mispredicts)
		default:
			continue
		}
		bad++
	}
	return refs, bad
}

// sweepWindows is how many consecutive windows make one sweep_s sample.
const sweepWindows = 16

// endToEnd reports the untraced run's metrics.
func (t *traceWorkload) endToEnd(ops []opResult, setupS []float64, rss float64, rssErr error, rep *report) error {
	rep.series = nsPerInstOf(ops)
	ms, err := timingMetrics(rep.series, fmt.Sprintf("%d ops, one distinct window each", len(ops)), rep.series)
	if err != nil {
		return err
	}
	for _, m := range ms {
		rep.add(m)
	}
	// A sweep generates (stream-replay: and writes) and simulates
	// sweepWindows windows, timed in process CPU time like the ops; the
	// pinned windows were generated in set-up, so sweeps start after them.
	var sweeps []float64
	for s := pinnedWindows; s+sweepWindows <= len(ops); s += sweepWindows {
		var ns int64
		for _, op := range ops[s : s+sweepWindows] {
			ns += op.genNs + op.cpuNs
		}
		sweeps = append(sweeps, float64(ns)/1e9)
	}
	sd := summarize(sweeps)
	rep.add(metric{Name: "sweep_s", Unit: "s", Value: sd.P50, Dist: &sd,
		Note: fmt.Sprintf("generate and simulate %d windows, median over sweeps", sweepWindows)})
	addSetupAndRSS(setupS, rss, rssErr, rep)
	return nil
}

// addSetupAndRSS reports setup_s and peak_rss_mib, the peak resident set
// size (VmHWM) read after the timed loop, or the error reading it.
func addSetupAndRSS(setupS []float64, rss float64, rssErr error, rep *report) {
	sd := summarize(setupS)
	rep.add(metric{Name: "setup_s", Unit: "s", Value: sd.P50, Dist: &sd,
		Note: fmt.Sprintf("median of %d set-ups", len(setupS))})
	if rssErr != nil {
		rep.fail("%v", rssErr)
		rep.failed = rep.attempted
		return
	}
	rep.add(metric{Name: "peak_rss_mib", Unit: "MiB", Value: rss, Note: "VmHWM through set-up and the timed ops"})
}

// harnessProbe exercises the harness layer over the workload's windows:
// TraceCache.Get for every window, then one pass of harness.RunTraceContext
// over them on one worker and on nproc workers.
func (t *traceWorkload) harnessProbe(wins []window, tr *tracer) (harnessValues, error) {
	var hv harnessValues
	spec, err := harness.SpecFor(t.scheme)
	if err != nil {
		return hv, err
	}
	cache := harness.NewTraceCache()
	sp := tr.begin("harness.suite_gen", noParent, opReplay)
	t0 := time.Now()
	traces := make([][]trace.Inst, len(wins))
	for i := range wins {
		s := tr.begin("harness.TraceCache.Get", sp, opReplay)
		traces[i], err = cache.Get(wins[i].w, windowInsts)
		tr.end(s)
		if err != nil {
			tr.end(sp)
			return hv, err
		}
	}
	hv.genS = time.Since(t0).Seconds()
	tr.end(sp)

	pass := func(workers int) (float64, error) {
		sp := tr.begin(fmt.Sprintf("harness.pass.%dw", workers), noParent, opReplay)
		defer tr.end(sp)
		t0 := time.Now()
		idx := make(chan int)
		errs := make([]error, len(traces))
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					s := tr.begin("harness.RunTraceContext", sp, opReplay)
					_, _, errs[i] = harness.RunTraceContext(context.Background(), traces[i], spec)
					tr.end(s)
				}
			}()
		}
		for i := range traces {
			idx <- i
		}
		close(idx)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		return time.Since(t0).Seconds(), nil
	}
	one, err := pass(1)
	if err != nil {
		return hv, err
	}
	n := runtime.NumCPU()
	hv.specS, err = pass(n)
	if err != nil {
		return hv, err
	}
	hv.efficiency = one / (float64(n) * hv.specS)
	return hv, nil
}

func nsPerInstOf(ops []opResult) []float64 {
	var out []float64
	for _, op := range ops {
		if op.err == nil && op.res.Insts > 0 {
			out = append(out, op.nsPerInst())
		}
	}
	return out
}

func nsPerCycleOf(ops []opResult) []float64 {
	var out []float64
	for _, op := range ops {
		if op.err == nil && op.res.Cycles > 0 {
			out = append(out, float64(op.cpuNs)/float64(op.res.Cycles))
		}
	}
	return out
}

func instsOf(ops []opResult) int64 {
	var n int64
	for _, op := range ops {
		n += int64(op.res.Insts)
	}
	return n
}

// digestResults hashes the simulated statistics of a list of runs: core
// counts, every counter and every CPI bucket.
func digestResults(rs []localbp.Result) string {
	h := sha256.New()
	for _, r := range rs {
		fmt.Fprintf(h, "%d %d %d %d %d %d|", r.Cycles, r.Insts, r.Branches, r.Mispredicts, r.Overrides, r.OverridesOK)
		keys := make([]string, 0, len(r.Counters))
		for k := range r.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%s=%d ", k, r.Counters[k])
		}
		if r.CPI != nil {
			for b := localbp.CPIBucket(0); b < localbp.NumCPIBuckets; b++ {
				fmt.Fprintf(h, "%s=%d ", b, r.CPI.Count(b))
			}
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
