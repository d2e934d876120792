// Command lbpbench measures end-to-end simulator throughput with
// testing.Benchmark and writes a machine-readable, timestamped baseline
// file. The baseline records ns/op, ns per simulated instruction, ns per
// simulated cycle, allocs/op and bytes/op for the obs-disabled core loop,
// the obs-enabled core loop and the LBP2 file-backed streaming replay
// (core-loop-stream), so later changes can be checked against a pinned
// performance trajectory (BENCH_baseline.json → BENCH_pr5.json →
// BENCH_pr10.json → …). It also records on-disk decode throughput
// (decode-lbp1, decode-lbp2, decode-lbp2-mmap): open + drain of the
// reference trace through the same chunked Source path -trace-file replay
// uses.
//
// Usage:
//
//	lbpbench [-out BENCH_pr10.json] [-insts N] [-workload NAME] [-scheme NAME]
//	lbpbench -compare -old BENCH_pr5.json -new BENCH_pr10.json [-max-regress 0.10]
//	lbpbench -smoke [-insts N]
//
// Compare mode gates the trajectory: it exits non-zero when any entry of
// -new regressed ns/op or allocs/op against -old by more than -max-regress
// (a toolchain mismatch between the files warns but does not fail). Smoke
// mode is the fast CI sanity pass: one in-memory run and one file-backed
// streamed run must succeed, agree exactly and stay within the allocation
// budget. -insts, -workload, -scheme and -seed spell the same across all
// commands.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"localbp"
	"localbp/internal/service"
	"localbp/internal/trace"
)

type entry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerInst   float64 `json:"ns_per_inst"`
	NsPerCycle  float64 `json:"ns_per_cycle"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type baseline struct {
	GeneratedAt string  `json:"generated_at,omitempty"`
	GoVersion   string  `json:"go_version"`
	GOOS        string  `json:"goos"`
	GOARCH      string  `json:"goarch"`
	Workload    string  `json:"workload"`
	Scheme      string  `json:"scheme"`
	Insts       int     `json:"insts"`
	Cycles      int64   `json:"cycles"`
	Entries     []entry `json:"entries"`
}

func main() {
	out := flag.String("out", "BENCH_baseline.json", "write the baseline JSON to this file")
	insts := flag.Int("insts", 120_000, "instructions simulated per benchmark op")
	workload := flag.String("workload", "cloud-compression", "workload to benchmark")
	schemeName := flag.String("scheme", "forward-coalesce", "repair scheme to benchmark")
	seed := flag.Int64("seed", 0, "override the workload's trace-generation seed (0 = workload default)")
	compare := flag.Bool("compare", false, "compare two baseline files instead of benchmarking")
	oldPath := flag.String("old", "BENCH_baseline.json", "compare: reference baseline")
	newPath := flag.String("new", "BENCH_pr5.json", "compare: candidate baseline")
	maxRegress := flag.Float64("max-regress", 0.10, "compare: max tolerated fractional regression")
	smoke := flag.Bool("smoke", false, "quick sanity mode: single-run core-loop + core-loop-stream with an allocs/op guard, no baseline file")
	flag.Parse()

	if *compare {
		if err := compareBaselines(*oldPath, *newPath, *maxRegress); err != nil {
			fatal(err)
		}
		return
	}

	w, ok := localbp.Workload(*workload)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seed != 0 {
		w.Seed = *seed
	}
	scheme, err := localbp.SchemeByName(*schemeName)
	if err != nil {
		fatal(err)
	}
	tr := w.Generate(*insts)

	if *smoke {
		if err := smokeRun(tr, scheme); err != nil {
			fatal(err)
		}
		return
	}

	// One reference run pins the cycle count the ns/cycle metric divides by
	// (the simulator is deterministic, so every op retires the same cycles).
	ref, err := localbp.FromSource(trace.NewSliceSource(tr), scheme)
	if err != nil {
		fatal(err)
	}

	bench := func(name string, opts ...localbp.Option) entry {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := localbp.FromSource(trace.NewSliceSource(tr), scheme, opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
		ns := float64(r.NsPerOp())
		e := entry{
			Name:        name,
			NsPerOp:     ns,
			NsPerInst:   ns / float64(len(tr)),
			NsPerCycle:  ns / float64(ref.Cycles),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		fmt.Printf("%-16s %12.0f ns/op  %6.1f ns/inst  %6.1f ns/cycle  %6d allocs/op  %9d B/op\n",
			name, e.NsPerOp, e.NsPerInst, e.NsPerCycle, e.AllocsPerOp, e.BytesPerOp)
		return e
	}

	entries := []entry{
		bench("core-loop"),
		bench("core-loop-obs",
			localbp.WithCPIStack(), localbp.WithCounters(), localbp.WithEventTrace(4096)),
	}
	stream, err := streamEntry(tr, scheme, ref.Cycles)
	if err != nil {
		fatal(err)
	}
	entries = append(entries, stream)
	decodes, err := decodeEntries(tr)
	if err != nil {
		fatal(err)
	}
	entries = append(entries, decodes...)

	b := baseline{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Workload:    w.Name,
		Scheme:      scheme.Label(),
		Insts:       len(tr),
		Cycles:      ref.Cycles,
		Entries:     entries,
	}

	// Atomic write: a crash mid-encode cannot corrupt a pinned baseline that
	// compare mode would later trust.
	if err := service.AtomicWriteFile(*out, func(f io.Writer) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(b)
	}); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lbpbench:", err)
	os.Exit(1)
}

// writeLBP2Temp writes the reference trace to a temporary LBP2 file and
// returns its path plus a cleanup func.
func writeLBP2Temp(tr []trace.Inst) (string, func(), error) {
	dir, err := os.MkdirTemp("", "lbpbench-stream")
	if err != nil {
		return "", nil, err
	}
	path := filepath.Join(dir, "t.lbp2")
	f, err := os.Create(path)
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	if err := trace.WriteTraceLBP2(f, tr); err != nil {
		f.Close()
		os.RemoveAll(dir)
		return "", nil, err
	}
	if err := f.Close(); err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	return path, func() { os.RemoveAll(dir) }, nil
}

// streamEntry measures the file-backed replay path end to end: each op opens
// the LBP2 file as a streaming Source and runs the full simulation through
// core.NewStream's fixed-memory sliding window — the exact pipeline
// -trace-file replay and the daemon's file-backed jobs use. Comparing it
// against core-loop prices the streaming layer itself, since both paths are
// bit-identical in results.
func streamEntry(tr []trace.Inst, scheme localbp.Scheme, cycles int64) (entry, error) {
	path, cleanup, err := writeLBP2Temp(tr)
	if err != nil {
		return entry{}, err
	}
	defer cleanup()
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src, err := localbp.OpenTrace(path)
			if err != nil {
				b.Fatal(err)
			}
			res, err := localbp.FromSource(src, scheme)
			localbp.CloseTrace(src)
			if err != nil {
				b.Fatal(err)
			}
			if res.Insts != uint64(len(tr)) {
				b.Fatalf("streamed run retired %d insts, want %d", res.Insts, len(tr))
			}
		}
	})
	ns := float64(r.NsPerOp())
	e := entry{
		Name:        "core-loop-stream",
		NsPerOp:     ns,
		NsPerInst:   ns / float64(len(tr)),
		NsPerCycle:  ns / float64(cycles),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	fmt.Printf("%-16s %12.0f ns/op  %6.1f ns/inst  %6.1f ns/cycle  %6d allocs/op  %9d B/op\n",
		e.Name, e.NsPerOp, e.NsPerInst, e.NsPerCycle, e.AllocsPerOp, e.BytesPerOp)
	return e, nil
}

// smokeAllocBudget mirrors TestCoreLoopAllocGuard's per-run allocation
// budget: the core loop allocates at setup, not per cycle or per
// instruction, so a fixed count covers any instruction volume.
const smokeAllocBudget = 4096

// smokeRun is the fast CI sanity pass: one in-memory run and one file-backed
// streamed run of the same trace must succeed, agree on retired-instruction
// and cycle counts (the two paths are bit-identical by contract), and stay
// within the allocation budget. No baseline file is written — this gates
// "the benchmark paths still work", not performance.
func smokeRun(tr []trace.Inst, scheme localbp.Scheme) error {
	ref, err := localbp.FromSource(trace.NewSliceSource(tr), scheme)
	if err != nil {
		return fmt.Errorf("smoke core-loop: %w", err)
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := localbp.FromSource(trace.NewSliceSource(tr), scheme); err != nil {
			panic(err)
		}
	})
	if allocs > smokeAllocBudget {
		return fmt.Errorf("smoke core-loop: %.0f allocs/op, budget %d", allocs, smokeAllocBudget)
	}

	path, cleanup, err := writeLBP2Temp(tr)
	if err != nil {
		return fmt.Errorf("smoke core-loop-stream: %w", err)
	}
	defer cleanup()
	src, err := localbp.OpenTrace(path)
	if err != nil {
		return fmt.Errorf("smoke core-loop-stream: %w", err)
	}
	res, err := localbp.FromSource(src, scheme)
	localbp.CloseTrace(src)
	if err != nil {
		return fmt.Errorf("smoke core-loop-stream: %w", err)
	}
	if res.Insts != ref.Insts || res.Cycles != ref.Cycles {
		return fmt.Errorf("smoke: streamed run diverges from in-memory run: %d insts/%d cycles vs %d/%d",
			res.Insts, res.Cycles, ref.Insts, ref.Cycles)
	}
	fmt.Printf("smoke ok: %d insts, %d cycles, in-memory and streamed runs agree, %.0f allocs/op (budget %d)\n",
		ref.Insts, ref.Cycles, allocs, smokeAllocBudget)
	return nil
}

// decodeEntries measures on-disk trace decode throughput: the reference trace
// is written once per format to a temp directory, then each benchmark op
// opens the file and drains it through a fixed-size chunk buffer — the exact
// I/O pattern of -trace-file replay. The mmap entry is skipped silently on
// platforms without mmap support (it is a new, ungated comparison entry).
func decodeEntries(tr []trace.Inst) ([]entry, error) {
	dir, err := os.MkdirTemp("", "lbpbench-decode")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	write := func(name string, enc func(io.Writer, []trace.Inst) error) (string, error) {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return "", err
		}
		if err := enc(f, tr); err != nil {
			f.Close()
			return "", err
		}
		return path, f.Close()
	}
	lbp1, err := write("t.lbp", trace.WriteTrace)
	if err != nil {
		return nil, err
	}
	lbp2, err := write("t.lbp2", trace.WriteTraceLBP2)
	if err != nil {
		return nil, err
	}

	benchDecode := func(name, path string, mode trace.OpenMode) (entry, error) {
		// Probe once so an unsupported backend (mmap on exotic platforms)
		// skips the entry instead of failing the whole baseline run.
		probe, err := trace.OpenSourceMode(path, mode)
		if err != nil {
			return entry{}, err
		}
		trace.CloseSource(probe)
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			var chunk [4096]trace.Inst
			for i := 0; i < b.N; i++ {
				src, err := trace.OpenSourceMode(path, mode)
				if err != nil {
					b.Fatal(err)
				}
				total := 0
				for {
					n, err := src.Next(chunk[:])
					total += n
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				if total != len(tr) {
					b.Fatalf("decoded %d insts, want %d", total, len(tr))
				}
				trace.CloseSource(src)
			}
		})
		ns := float64(r.NsPerOp())
		e := entry{
			Name:        name,
			NsPerOp:     ns,
			NsPerInst:   ns / float64(len(tr)),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		fmt.Printf("%-16s %12.0f ns/op  %6.1f ns/inst  %18s  %6d allocs/op  %9d B/op\n",
			name, e.NsPerOp, e.NsPerInst, "", e.AllocsPerOp, e.BytesPerOp)
		return e, nil
	}

	var out []entry
	for _, d := range []struct {
		name, path string
		mode       trace.OpenMode
	}{
		{"decode-lbp1", lbp1, trace.OpenFile},
		{"decode-lbp2", lbp2, trace.OpenFile},
		{"decode-lbp2-mmap", lbp2, trace.OpenMmap},
	} {
		e, err := benchDecode(d.name, d.path, d.mode)
		if err != nil {
			if d.mode == trace.OpenMmap {
				fmt.Printf("%-16s skipped: %v\n", d.name, err)
				continue
			}
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// loadBaseline reads one baseline JSON file.
func loadBaseline(path string) (baseline, error) {
	var b baseline
	raw, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	if len(b.Entries) == 0 {
		return b, fmt.Errorf("%s: no benchmark entries", path)
	}
	return b, nil
}

// compareBaselines prints an old-vs-new table and errors when any matching
// entry regressed ns/op or allocs/op by more than maxRegress. Entries
// present on only one side are reported but not gated.
func compareBaselines(oldPath, newPath string, maxRegress float64) error {
	oldB, err := loadBaseline(oldPath)
	if err != nil {
		return err
	}
	newB, err := loadBaseline(newPath)
	if err != nil {
		return err
	}
	if oldB.Workload != newB.Workload || oldB.Insts != newB.Insts || oldB.Scheme != newB.Scheme {
		fmt.Printf("note: configurations differ (%s/%s/%d vs %s/%s/%d); ratios may not be meaningful\n",
			oldB.Workload, oldB.Scheme, oldB.Insts, newB.Workload, newB.Scheme, newB.Insts)
	}
	// A toolchain or platform mismatch skews ratios (different compiler,
	// different machine class) but is routine across a long-lived trajectory,
	// so it warns rather than fails.
	if (oldB.GoVersion != "" && newB.GoVersion != "" && oldB.GoVersion != newB.GoVersion) ||
		(oldB.GOOS != "" && newB.GOOS != "" && oldB.GOOS != newB.GOOS) ||
		(oldB.GOARCH != "" && newB.GOARCH != "" && oldB.GOARCH != newB.GOARCH) {
		fmt.Printf("WARNING: toolchain mismatch: old %s %s/%s vs new %s %s/%s — speedups partly reflect the toolchain, not just the code\n",
			oldB.GoVersion, oldB.GOOS, oldB.GOARCH, newB.GoVersion, newB.GOOS, newB.GOARCH)
	}
	oldByName := map[string]entry{}
	for _, e := range oldB.Entries {
		oldByName[e.Name] = e
	}
	fmt.Printf("%-16s %14s %14s %9s %14s %14s %9s\n",
		"benchmark", "old ns/op", "new ns/op", "speedup", "old allocs", "new allocs", "ratio")
	var regressions []string
	for _, ne := range newB.Entries {
		oe, ok := oldByName[ne.Name]
		if !ok {
			fmt.Printf("%-16s (new entry, not gated)\n", ne.Name)
			continue
		}
		delete(oldByName, ne.Name)
		speedup := oe.NsPerOp / ne.NsPerOp
		allocRatio := float64(oe.AllocsPerOp) / float64(max(ne.AllocsPerOp, 1))
		fmt.Printf("%-16s %14.0f %14.0f %8.2fx %14d %14d %8.2fx\n",
			ne.Name, oe.NsPerOp, ne.NsPerOp, speedup, oe.AllocsPerOp, ne.AllocsPerOp, allocRatio)
		if ne.NsPerOp > oe.NsPerOp*(1+maxRegress) {
			regressions = append(regressions, fmt.Sprintf(
				"%s: ns/op regressed %.1f%% (%.0f -> %.0f, tolerance %.0f%%)",
				ne.Name, 100*(ne.NsPerOp/oe.NsPerOp-1), oe.NsPerOp, ne.NsPerOp, 100*maxRegress))
		}
		// Allocation counts are deterministic; gate with the same fractional
		// tolerance plus a small absolute slack for runtime-internal noise.
		if float64(ne.AllocsPerOp) > float64(oe.AllocsPerOp)*(1+maxRegress)+16 {
			regressions = append(regressions, fmt.Sprintf(
				"%s: allocs/op regressed %d -> %d (tolerance %.0f%%)",
				ne.Name, oe.AllocsPerOp, ne.AllocsPerOp, 100*maxRegress))
		}
	}
	for name := range oldByName {
		fmt.Printf("%-16s (dropped in %s)\n", name, newPath)
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "REGRESSION:", r)
		}
		return fmt.Errorf("%d benchmark regression(s) beyond %.0f%%", len(regressions), 100*maxRegress)
	}
	fmt.Printf("ok: no entry regressed beyond %.0f%%\n", 100*maxRegress)
	return nil
}
