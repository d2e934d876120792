package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// fingerprint identifies the host, toolchain and source revision a result
// was measured on. Numbers measured on different hosts do not compare.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	GitDirty   bool   `json:"git_dirty"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func (f fingerprint) String() string {
	dirty := ""
	if f.GitDirty {
		dirty = "+dirty"
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s rev=%s%s",
		f.CPUModel, f.NProc, f.GOMAXPROCS, f.GoVersion, f.GitRev, dirty)
}

func takeFingerprint(o options) fingerprint {
	f := fingerprint{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
	}
	f.GitRev, f.GitDirty = gitRevision(o.root)
	return f
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown (" + runtime.GOARCH + ")"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown (" + runtime.GOARCH + ")"
}

// gitRevision returns the checkout's commit and whether tracked files
// differ from it. PERFBENCH_REV, when set (the A/B tool in ab/ sets it for the
// binaries it builds), names the revision instead. A checkout without git
// metadata reports "none".
func gitRevision(root string) (string, bool) {
	if rev := os.Getenv("PERFBENCH_REV"); rev != "" {
		return rev, false
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none", false
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none", false
	}
	rev := strings.TrimSpace(string(out))
	st, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output()
	return rev, err != nil || len(strings.TrimSpace(string(st))) > 0
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != "VmHWM" {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: parse %q: %w", v, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}
