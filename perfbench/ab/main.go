// Command ab is the benchmark's same-host A/B comparison. It builds the
// benchmark twice from the current benchmark sources: once against a base
// revision of the simulator, checked out into a local git worktree, and
// once against a new revision (by default the working tree). It then runs
// alternating-order base/new pairs of every workload on this host and
// prints, per workload and end-to-end metric, each side's median and
// quartiles, the share of pairs the new side won and a verdict against the
// bounds in BENCHMARK.json. It needs no network.
//
// From the repository root:
//
//	cd perfbench && go run ./ab -base HEAD~1 -pairs 10
//
// Every run lasts run_seconds from BENCHMARK.json; pair i runs seed
// firstSeed+i on both sides. Outputs and binaries go under .bench_build/ab
// at the repository root; the worktrees a comparison creates there are
// removed when it ends.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// firstSeed is the seed of the first pair.
const firstSeed = 1000

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// side is one build under comparison.
type side struct {
	label string // "base" or "new"
	rev   string // git revision, "" for the working tree
	src   string // simulator source tree
	bin   string
	runs  map[string][]map[string]float64 // workload → one metrics map per run
	fails int
}

// result is the final JSON line of one benchmark run.
type result struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ab:", err)
		os.Exit(1)
	}
}

func run() error {
	base := flag.String("base", "", "base revision (required), e.g. HEAD~1")
	newRev := flag.String("new", "", "new revision; empty compares the working tree")
	pairs := flag.Int("pairs", 10, "alternating-order base/new pairs per workload")
	flag.Parse()
	if *base == "" {
		return errors.New("-base is required")
	}
	if *pairs < 1 {
		return fmt.Errorf("-pairs %d, want >= 1", *pairs)
	}
	root, err := gitOut("", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	var spec benchSpec
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var wls []string
	for _, w := range spec.Workloads {
		wls = append(wls, w.Name)
	}

	out := filepath.Join(root, ".bench_build", "ab")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	env := buildEnv(filepath.Join(root, ".bench_build"))
	sides := []*side{{label: "base", rev: *base}, {label: "new", rev: *newRev}}
	for _, s := range sides {
		s.runs = map[string][]map[string]float64{}
		if s.rev == "" {
			s.src = root
		} else {
			full, err := gitOut(root, "rev-parse", "--verify", s.rev+"^{commit}")
			if err != nil {
				return err
			}
			s.rev = full
			s.src = filepath.Join(out, "src-"+full[:12])
			if _, err := os.Stat(s.src); err != nil {
				if _, err := gitOut(root, "worktree", "add", "--detach", s.src, full); err != nil {
					return err
				}
				defer func(dir string) {
					if _, err := gitOut(root, "worktree", "remove", "--force", dir); err != nil {
						fmt.Fprintln(os.Stderr, "ab:", err)
					}
				}(s.src)
			}
		}
		if err := build(root, out, s, env); err != nil {
			return err
		}
	}

	fmt.Printf("A/B on %s: base=%s new=%s, %d pairs x %d workloads, %d s per run\n",
		hostLine(), revName(sides[0]), revName(sides[1]), *pairs, len(wls), spec.RunSeconds)
	for i := 0; i < *pairs; i++ {
		order := sides
		if i%2 == 1 {
			order = []*side{sides[1], sides[0]}
		}
		for _, w := range wls {
			for _, s := range order {
				m, err := runOnce(s, w, firstSeed+int64(i), spec.RunSeconds, env)
				if err != nil {
					s.fails++
					fmt.Fprintf(os.Stderr, "ab: %s %s pair %d: %v\n", s.label, w, i, err)
					m = nil
				}
				s.runs[w] = append(s.runs[w], m)
			}
		}
		fmt.Printf("pair %d/%d done (%s first)\n", i+1, *pairs, order[0].label)
	}

	report := compare(spec, wls, sides[0], sides[1])
	fmt.Print(report)
	path := filepath.Join(out, "ab-"+time.Now().UTC().Format("20060102T150405Z")+".txt")
	if err := os.WriteFile(path, []byte(report), 0o644); err != nil {
		return err
	}
	fmt.Println("report:", path)
	if sides[0].fails+sides[1].fails > 0 {
		return fmt.Errorf("%d base and %d new runs failed", sides[0].fails, sides[1].fails)
	}
	return nil
}

// buildEnv keeps the Go build cache inside the checkout, like run.sh.
func buildEnv(build string) []string {
	return append(os.Environ(),
		"GOCACHE="+filepath.Join(build, "gocache"),
		"GOMODCACHE="+filepath.Join(build, "gomodcache"),
		"GOTMPDIR="+filepath.Join(build, "tmp"),
		"GOTOOLCHAIN=local", "GOFLAGS=",
		"XDG_CONFIG_HOME="+filepath.Join(build, "config"),
		"PPROF_TMPDIR="+filepath.Join(build, "tmp"))
}

// build compiles the current benchmark sources against s.src with a
// temporary module file that points the simulator module there.
func build(root, out string, s *side, env []string) error {
	bench := filepath.Join(root, "perfbench")
	mod, err := os.ReadFile(filepath.Join(bench, "go.mod"))
	if err != nil {
		return err
	}
	var lines []string
	for _, l := range strings.Split(string(mod), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(l), "replace ") {
			lines = append(lines, l)
		}
	}
	lines = append(lines, "replace localbp => "+s.src, "")
	modfile := filepath.Join(out, s.label+".mod")
	if err := os.WriteFile(modfile, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(root, ".bench_build", "tmp"), 0o755); err != nil {
		return err
	}
	s.bin = filepath.Join(out, "perfbench-"+s.label)
	cmd := exec.Command("go", "build", "-modfile", modfile, "-o", s.bin, ".")
	cmd.Dir = bench
	cmd.Env = env
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build %s (%s): %v\n%s", s.label, revName(s), err, b)
	}
	return nil
}

// runOnce runs one benchmark invocation and returns its metrics.
func runOnce(s *side, workload string, seed int64, seconds int, env []string) (map[string]float64, error) {
	cmd := exec.Command(s.bin, "-root", s.src, "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Env = append(env, "PERFBENCH_REV="+revName(s))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("no result line (exit: %v)", runErr)
	}
	if runErr != nil || !r.Correct {
		return nil, fmt.Errorf("run failed its checks (exit: %v)", runErr)
	}
	m := map[string]float64{}
	for k, v := range r.Metrics {
		m[k] = v.Value
	}
	return m, nil
}

// compare renders one row per workload × end-to-end metric.
func compare(spec benchSpec, wls []string, base, nw *side) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-18s %28s %28s %6s  %s\n", "workload", "metric",
		"base p25/p50/p75", "new p25/p50/p75", "won", "verdict")
	for _, w := range wls {
		for _, m := range spec.EndToEnd {
			var bv, nv []float64
			won, decided := 0, 0
			for i := range base.runs[w] {
				x, okx := base.runs[w][i][m.Name]
				y, oky := nw.runs[w][i][m.Name]
				if okx {
					bv = append(bv, x)
				}
				if oky {
					nv = append(nv, y)
				}
				if okx && oky && x != y {
					decided++
					if better(m.Better, y, x) {
						won++
					}
				}
			}
			if len(bv) == 0 || len(nv) == 0 {
				fmt.Fprintf(&b, "%-14s %-18s %s\n", w, m.Name, "no successful runs on one side")
				continue
			}
			bq, nq := quartiles(bv), quartiles(nv)
			share := 0.0
			if decided > 0 {
				share = float64(won) / float64(decided)
			}
			fmt.Fprintf(&b, "%-14s %-18s %28s %28s %5.0f%%  %s\n", w, m.Name,
				fmtQ(bq), fmtQ(nq), 100*share, verdict(m.Better, m.Bound, bv, nv, bq, nq, share))
		}
	}
	return b.String()
}

// verdict applies the benchmark's rules: a metric whose base spread
// (interquartile range over median) exceeds its bound is unresolved unless
// every new run beats every base run; a gain needs nine tenths of the
// pairs and a median difference larger than the base spread; a regression
// is a median worse than the base median by more than the bound.
func verdict(dir string, bound float64, bv, nv []float64, bq, nq [3]float64, share float64) string {
	spread := 0.0
	if bq[1] != 0 {
		spread = (bq[2] - bq[0]) / bq[1]
	}
	worse := 0.0
	if bq[1] != 0 {
		worse = (nq[1] - bq[1]) / bq[1]
		if dir == "higher" {
			worse = -worse
		}
	}
	allBetter := true
	for _, y := range nv {
		for _, x := range bv {
			if !better(dir, y, x) {
				allBetter = false
			}
		}
	}
	switch {
	case spread > bound && allBetter:
		return "improved (every new run beats every base run)"
	case spread > bound:
		return fmt.Sprintf("unresolved (base spread %.1f%% > bound %.0f%%)", 100*spread, 100*bound)
	case worse > bound:
		return fmt.Sprintf("regression (%+.1f%% worse, bound %.0f%%)", 100*worse, 100*bound)
	case share >= 0.9 && abs(nq[1]-bq[1]) > bq[2]-bq[0] && worse < 0:
		return fmt.Sprintf("improved (%.1f%% better)", -100*worse)
	default:
		return fmt.Sprintf("no regression (%+.1f%%, bound %.0f%%)", 100*worse, 100*bound)
	}
}

func better(dir string, a, b float64) bool {
	if dir == "higher" {
		return a > b
	}
	return a < b
}

// quartiles returns p25, p50 and p75 the way Python's
// statistics.quantiles(values, n=4) does.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	q := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return [3]float64{q(1), med, q(3)}
}

func fmtQ(q [3]float64) string { return fmt.Sprintf("%.4g/%.4g/%.4g", q[0], q[1], q[2]) }

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func revName(s *side) string {
	if s.rev == "" {
		return "working-tree"
	}
	return s.rev[:12]
}

func gitOut(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}

// hostLine names the CPU and core count the pairs ran on.
func hostLine() string {
	model := "unknown cpu"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("%q nproc=%d", model, runtime.NumCPU())
}
