package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"localbp"
	"localbp/internal/bpu"
	"localbp/internal/bpu/tage"
	"localbp/internal/mem"
	"localbp/internal/repair"
	"localbp/internal/schemes"
	"localbp/internal/trace"
)

// layerSet is what the per-layer replays run over: the ops' own traces and
// the scheme the ops ran.
type layerSet struct {
	n      int
	get    func(i int) []trace.Inst // resident trace i
	paths  []string                 // LBP2 file per trace ("" until written)
	dir    string                   // where missing LBP2 files are written
	scheme string
}

// layerTimes are the replay measurements.
type layerTimes struct {
	insts, branches, memOps int64

	decodeNs int64

	tageNs, bpuNs       int64
	bpuResolved, bpuMis int64

	memNs int64

	residentNsPerInst, streamNsPerInst []float64 // per trace
}

// replayLayers replays each layer's public API over every trace of ls, in
// CPU time like the ops, and checks each replay against the trace's own
// counts. Failures are reported through rep; ok is false if any check
// failed.
func replayLayers(ls *layerSet, tr *tracer, rep *report) (lt layerTimes, ok bool, err error) {
	ok = true
	sch, err := localbp.SchemeByName(ls.scheme)
	if err != nil {
		return lt, false, err
	}
	buf := make([]trace.Inst, 4096)
	for i := 0; i < ls.n; i++ {
		tri := ls.get(i)
		sum := trace.Summarize(tri)
		lt.insts += int64(sum.Insts)
		lt.branches += int64(sum.Branches)
		lt.memOps += int64(sum.Loads + sum.Stores)

		if ls.paths[i] == "" {
			ls.paths[i] = filepath.Join(ls.dir, fmt.Sprintf("layer%03d.lbp2", i))
			sp := tr.begin("trace.WriteTraceLBP2", noParent, opReplay)
			err := writeLBP2(ls.paths[i], tri)
			tr.end(sp)
			if err != nil {
				return lt, false, err
			}
		}

		// trace: LBP2 decode.
		sp := tr.begin("replay.decode", noParent, opReplay)
		var n int
		var err error
		lt.decodeNs += timed(func() { n, err = drainLBP2(ls.paths[i], buf, tr, sp) })
		tr.end(sp)
		if err != nil {
			return lt, false, err
		}
		ok = rep.check(n == sum.Insts, "decode replay of trace %d read %d insts, the trace has %d", i, n, sum.Insts) && ok

		// tage (nil scheme) and bpu (the workload's scheme).
		brs := branchesOf(tri)
		for _, withScheme := range []bool{false, true} {
			name := "replay.tage"
			var scheme repair.Scheme
			if withScheme {
				name = "replay.bpu"
				s, _, err := schemes.Build(ls.scheme)
				if err != nil {
					return lt, false, err
				}
				scheme = s
			}
			sp := tr.begin(name, noParent, opReplay)
			var resolved, mis int64
			ns := timed(func() { resolved, mis = replayBPU(brs, scheme) })
			tr.end(sp)
			ok = rep.check(resolved == int64(sum.Branches),
				"%s of trace %d resolved %d branches, the trace has %d", name, i, resolved, sum.Branches) && ok
			if withScheme {
				lt.bpuNs += ns
				lt.bpuResolved += resolved
				lt.bpuMis += mis
			} else {
				lt.tageNs += ns
			}
		}

		// mem: the hierarchy over the trace's load and store addresses.
		sp = tr.begin("replay.mem", noParent, opReplay)
		var acc uint64
		lt.memNs += timed(func() { acc = replayMem(tri) })
		tr.end(sp)
		ok = rep.check(acc == uint64(sum.Loads+sum.Stores),
			"mem replay of trace %d made %d accesses, the trace has %d loads and stores", i, acc, sum.Loads+sum.Stores) && ok

		// Streaming: the same simulation resident and streamed.
		sp = tr.begin("replay.stream_pair", noParent, opReplay)
		var res, sres localbp.Result
		resNs := timed(func() { res, err = localbp.FromSource(trace.NewSliceSource(tri), sch) })
		if err != nil {
			tr.end(sp)
			return lt, false, fmt.Errorf("resident run of trace %d: %w", i, err)
		}
		strNs := timed(func() { sres, err = runFile(ls.paths[i], sch, nil, noParent, opReplay) })
		tr.end(sp)
		if err != nil {
			return lt, false, fmt.Errorf("streamed run of trace %d: %w", i, err)
		}
		ok = rep.check(sameCore(res, sres), "trace %d: streamed run differs from the resident run", i) && ok
		lt.residentNsPerInst = append(lt.residentNsPerInst, float64(resNs)/float64(res.Insts))
		lt.streamNsPerInst = append(lt.streamNsPerInst, float64(strNs)/float64(sres.Insts))
	}
	return lt, ok, nil
}

// bpuWindow is how many branches the bpu replay keeps in flight, about the
// conditional branches a 224-entry ROB holds at one branch per ~12 insts.
// With it the replay predicts about two branches per retired one on
// repair-heavy, near the core's own count with its wrong path included.
const bpuWindow = 16

// branch is one conditional branch of a trace, at trace position pos.
type branch struct {
	pc    uint64
	pos   int64
	taken bool
}

// branchesOf lists the trace's conditional branches.
func branchesOf(tr []trace.Inst) []branch {
	var brs []branch
	for i := range tr {
		if tr[i].IsBranch() {
			brs = append(brs, branch{tr[i].PC, int64(i), tr[i].Taken})
		}
	}
	return brs
}

// replayBPU drives a bpu.Unit over a trace's conditional branches the way
// the core does: predict at fetch, the allocation-stage check, resolve the
// oldest, and on a misprediction squash every younger in-flight branch and
// re-fetch after the mispredicted one, so repair walks see a realistic OBQ
// depth. Cycles advance with the trace position at four instructions per
// cycle; a branch resolves ten cycles after it is fetched. It returns the
// resolved (retired) branches and the mispredictions among them. A nil
// scheme replays TAGE alone.
func replayBPU(brs []branch, scheme repair.Scheme) (resolved, mispredicts int64) {
	unit := bpu.NewUnit(tage.KB8(), scheme)
	unit.Prealloc(bpuWindow + 16)
	// In-flight branches, oldest first, in a ring of bpuWindow slots.
	var recs [bpuWindow]*bpu.BranchRec
	var idxs [bpuWindow]int
	head, count := 0, 0
	var seq uint64
	next := 0
	for next < len(brs) || count > 0 {
		for count < bpuWindow && next < len(brs) {
			b := brs[next]
			cycle := b.pos / 4
			rec := unit.GetRec()
			unit.Predict(rec, b.pc, b.taken, seq, false, cycle)
			seq++
			slot := (head + count) % bpuWindow
			recs[slot], idxs[slot] = rec, next
			count++
			next++
			if unit.AllocStage(rec, cycle+2) {
				break // an allocation-stage override re-steers fetch
			}
		}
		rec, idx := recs[head], idxs[head]
		if unit.Resolve(rec, brs[idx].pos/4+10) {
			mispredicts++
			for j := count - 1; j >= 1; j-- {
				unit.Squash(recs[(head+j)%bpuWindow])
			}
			count = 1
			next = idx + 1
		}
		unit.Retire(rec)
		resolved++
		head = (head + 1) % bpuWindow
		count--
	}
	return resolved, mispredicts
}

// replayMem runs the Table 2 hierarchy over the trace's load and store
// addresses, timestamped at four instructions per cycle, and returns the
// accesses the hierarchy counted.
func replayMem(tr []trace.Inst) uint64 {
	h := mem.New(mem.DefaultHierarchy())
	for i := range tr {
		if tr[i].IsMem() {
			h.AccessAt(tr[i].Addr, int64(i/4))
		}
	}
	acc, _, _, _ := h.Stats()
	h.Recycle()
	return acc
}

// drainLBP2 opens an LBP2 file and reads it to the end through Next,
// returning the instructions read.
func drainLBP2(path string, buf []trace.Inst, tr *tracer, parent int) (int, error) {
	sp := tr.begin("trace.OpenSource", parent, opReplay)
	src, err := trace.OpenSource(path)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	defer trace.CloseSource(src)
	sp = tr.begin("trace.Source.Next", parent, opReplay)
	defer tr.end(sp)
	total := 0
	for {
		n, err := src.Next(buf)
		total += n
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, fmt.Errorf("decode %s: %w", path, err)
		}
	}
}

// runFile replays an LBP2 file through the facade's streaming path,
// recording its calls as spans under parent.
func runFile(path string, sch localbp.Scheme, tr *tracer, parent, op int, opts ...localbp.Option) (localbp.Result, error) {
	sp := tr.begin("localbp.OpenTrace", parent, op)
	src, err := localbp.OpenTrace(path)
	tr.end(sp)
	if err != nil {
		return localbp.Result{}, err
	}
	sp = tr.begin("localbp.FromSource", parent, op)
	res, err := localbp.FromSource(src, sch, opts...)
	tr.end(sp)
	sp = tr.begin("localbp.CloseTrace", parent, op)
	if cerr := localbp.CloseTrace(src); err == nil && cerr != nil {
		err = fmt.Errorf("close trace: %w", cerr)
	}
	tr.end(sp)
	return res, err
}

// writeLBP2 writes tr to path in the LBP2 format.
func writeLBP2(path string, tr []trace.Inst) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := trace.WriteTraceLBP2(w, tr); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}

// sameCore reports whether two runs produced the same simulated core
// statistics.
func sameCore(a, b localbp.Result) bool {
	return a.Cycles == b.Cycles && a.Insts == b.Insts && a.Branches == b.Branches &&
		a.Mispredicts == b.Mispredicts && a.Overrides == b.Overrides && a.OverridesOK == b.OverridesOK
}
