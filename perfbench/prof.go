package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
)

// cpuProfile is a running runtime/pprof CPU profile.
type cpuProfile struct {
	path string
	f    *os.File
}

func startCPUProfile(path string) (*cpuProfile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return &cpuProfile{path: path, f: f}, nil
}

func (p *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	return nil
}

// profGroups maps each prof.*_share metric to the packages whose flat time
// it sums. GC is the runtime's collector functions (see isGC).
var profGroups = []struct {
	metric string
	pkgs   []string
}{
	{"prof.core_share", []string{"localbp/internal/core"}},
	{"prof.mem_share", []string{"localbp/internal/mem"}},
	{"prof.bpu_share", []string{"localbp/internal/bpu", "localbp/internal/bpu/tage",
		"localbp/internal/bpu/loop", "localbp/internal/bpu/btb", "localbp/internal/bpu/bimodal",
		"localbp/internal/bpu/yehpatt"}},
	{"prof.repair_share", []string{"localbp/internal/repair", "localbp/internal/obq"}},
	{"prof.trace_share", []string{"localbp/internal/trace", "localbp/internal/workloads"}},
}

// attribution is flat CPU time grouped by package.
type attribution struct {
	totalMs float64
	byPkg   map[string]float64 // package → flat ms; "runtime (gc)" split out
}

// opLabel marks profile samples taken inside an op, so the attribution
// leaves out the untimed work between ops (window generation, checks).
// Goroutines an op starts inherit it.
var opLabel = pprof.Labels("perfbench", "op")

// inOp runs an op's body under opLabel.
func inOp(f func()) { pprof.Do(context.Background(), opLabel, func(context.Context) { f() }) }

// attribute groups the flat time of the profile's op samples by package
// with `go tool pprof -top`, which ships with the toolchain.
func attribute(profile string) (attribution, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-flat", "-nodecount=100000",
		"-nodefraction=0", "-unit=ms", "-tagfocus=perfbench=op", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return attribution{}, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	a := attribution{byPkg: map[string]float64{}}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[0], "ms") {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			continue
		}
		fn := f[5]
		pkg := packageOf(fn)
		if pkg == "runtime" && isGC(fn) {
			pkg = "runtime (gc)"
		}
		a.byPkg[pkg] += ms
		a.totalMs += ms
	}
	if a.totalMs == 0 {
		return a, fmt.Errorf("go tool pprof: no samples in %s", profile)
	}
	return a, nil
}

// packageOf returns the import path of a pprof function name such as
// "localbp/internal/mem.(*cache).fillInto".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// isGC reports whether a runtime function belongs to the garbage collector
// (marking, scanning, sweeping, write barriers, assists).
func isGC(fn string) bool {
	name := strings.TrimPrefix(fn, "runtime.")
	for _, p := range []string{"gc", "(*gc", "scan", "greyobject", "markBits", "(*markBits",
		"sweep", "(*sweep", "bgsweep", "bgscavenge", "(*mspan).sweep", "wbBuf", "findObject",
		"(*gcWork)", "(*gcBits)", "markroot", "heapBitsSetType", "(*mspan).typePointersOf",
		"typePointers", "(*spanSet)", "(*mheap).nextSpanForSweep"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// shares returns each prof.* metric and prof.gc_share.
func (a attribution) shares() []metric {
	var out []metric
	for _, g := range profGroups {
		var ms float64
		for _, p := range g.pkgs {
			ms += a.byPkg[p]
		}
		out = append(out, metric{Name: g.metric, Unit: "share", Value: ms / a.totalMs})
	}
	out = append(out, metric{Name: "prof.gc_share", Unit: "share", Value: a.byPkg["runtime (gc)"] / a.totalMs})
	return out
}

// table renders the per-package attribution, largest first.
func (a attribution) table() string {
	pkgs := make([]string, 0, len(a.byPkg))
	for p := range a.byPkg {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return a.byPkg[pkgs[i]] > a.byPkg[pkgs[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "cpu profile, flat time by package (%.0f ms sampled):\n", a.totalMs)
	for _, p := range pkgs {
		fmt.Fprintf(&b, "  %-36s %10.0f ms %6.1f%%\n", p, a.byPkg[p], 100*a.byPkg[p]/a.totalMs)
	}
	return b.String()
}
