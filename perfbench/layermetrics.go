package main

import (
	"fmt"
	"runtime"

	"localbp"
)

// harnessValues are the harness layer's measurements.
type harnessValues struct {
	genS       float64 // TraceCache.Get over every input trace
	specS      float64 // one spec (or pass) at nproc workers
	efficiency float64 // 1-worker time / (nproc × nproc-worker time)
}

// counts sums simulated statistics over counted reference runs.
type counts struct {
	insts, cycles int64
	c             map[string]uint64
	cpi           [localbp.NumCPIBuckets]int64
}

func sumCounts(refs []localbp.Result) counts {
	s := counts{c: map[string]uint64{}}
	for _, r := range refs {
		s.insts += int64(r.Insts)
		s.cycles += r.Cycles
		for k, v := range r.Counters {
			s.c[k] += v
		}
		if r.CPI != nil {
			for b := localbp.CPIBucket(0); b < localbp.NumCPIBuckets; b++ {
				s.cpi[b] += r.CPI.Count(b)
			}
		}
	}
	return s
}

func (s counts) perKinst(name string) float64 {
	return ratio(1000*float64(s.c[name]), float64(s.insts))
}

func (s counts) cpiShare(b localbp.CPIBucket) float64 {
	return ratio(float64(s.cpi[b]), float64(s.cycles))
}

// layerInputs is everything the traced run measured.
type layerInputs struct {
	genNs, genInsts  int64
	untraced, traced []float64 // per-op ns/inst without and with tracing
	nsPerCyc         []float64 // per-op host ns per simulated cycle (traced half)
	ms0, ms1         runtime.MemStats
	opCount          int
	opInsts          int64
	lt               layerTimes
	counts           counts
	harness          harnessValues
	profShare        []metric
}

// layerMetrics derives every per-layer metric, in a fixed order.
func layerMetrics(in layerInputs) []metric {
	lt, c := in.lt, in.counts
	tracedP50 := medianOf(in.traced)
	decode := ratio(float64(lt.decodeNs), float64(lt.insts))
	tageNs := ratio(float64(lt.tageNs), float64(lt.bpuResolved))
	bpuNs := ratio(float64(lt.bpuNs), float64(lt.bpuResolved))
	memNs := ratio(float64(lt.memNs), float64(lt.memOps))
	wrongPath := ratio(float64(c.c["core.wrong-path-insts"]), float64(c.insts))
	// The core predicts the retired branches plus those on the wrong path,
	// which carry branches at about the trace's density.
	predictedPerInst := ratio(float64(lt.branches), float64(lt.insts)) * (1 + wrongPath)
	accessesPerInst := ratio(float64(c.c["mem.accesses"]), float64(c.insts))
	residual := tracedP50 - bpuNs*predictedPerInst - memNs*accessesPerInst
	tax := medianOf(in.lt.streamNsPerInst) - medianOf(in.lt.residentNsPerInst) - decode

	ms := []metric{
		{Name: "trace.gen_ns_per_inst", Unit: "ns", Value: ratio(float64(in.genNs), float64(in.genInsts)),
			Note: "Workload.GenerateInto"},
		{Name: "trace.lbp2_decode_ns_per_inst", Unit: "ns", Value: decode, Note: "OpenSource + draining Next"},
		{Name: "tage.ns_per_branch", Unit: "ns", Value: tageNs, Note: "bpu.Unit replay, nil scheme, per retired branch"},
		{Name: "bpu.ns_per_branch", Unit: "ns", Value: bpuNs, Note: "bpu.Unit replay with the scheme, per retired branch"},
		{Name: "bpu.replay_mispredict_ratio", Unit: "ratio", Value: ratio(float64(lt.bpuMis), float64(lt.bpuResolved))},
		{Name: "repair.repairs_per_kinst", Unit: "count", Value: c.perKinst("repair.repairs"), Note: "simulated"},
		{Name: "repair.reads_per_kinst", Unit: "count", Value: c.perKinst("repair.reads"), Note: "simulated"},
		{Name: "repair.busy_cycles_per_kinst", Unit: "cycles", Value: c.perKinst("repair.busy-cycles"), Note: "simulated"},
		{Name: "obq.allocs_per_kinst", Unit: "count", Value: c.perKinst("obq.allocs"), Note: "simulated"},
		{Name: "obq.coalesced_ratio", Unit: "ratio", Value: ratio(float64(c.c["obq.coalesced"]), float64(c.c["obq.allocs"])),
			Note: "simulated, coalesced / allocs"},
		{Name: "mem.ns_per_access", Unit: "ns", Value: memNs, Note: "Hierarchy.AccessAt replay"},
		{Name: "mem.accesses_per_kinst", Unit: "count", Value: c.perKinst("mem.accesses"), Note: "simulated, wrong path included"},
		{Name: "mem.l1_miss_ratio", Unit: "ratio", Value: ratio(float64(c.c["mem.l1-misses"]), float64(c.c["mem.accesses"])),
			Note: "simulated, L1 misses / accesses"},
		{Name: "mem.llc_miss_ratio", Unit: "ratio", Value: ratio(float64(c.c["mem.llc-misses"]), float64(c.c["mem.l2-misses"])),
			Note: "simulated, LLC misses / LLC accesses (L2 misses)"},
		{Name: "core.ns_per_cycle", Unit: "ns", Value: medianOf(in.nsPerCyc), Note: "host ns per simulated cycle, median over traced ops"},
		{Name: "core.residual_ns_per_inst", Unit: "ns", Value: residual,
			Note: fmt.Sprintf("estimate: %.1f e2e - %.1f bpu - %.1f mem (fetch/alloc/exec/retire self time)",
				tracedP50, bpuNs*predictedPerInst, memNs*accessesPerInst)},
		{Name: "core.allocs_per_run", Unit: "count", Value: ratio(float64(in.ms1.Mallocs-in.ms0.Mallocs), float64(in.opCount)),
			Note: "heap allocations per op"},
		{Name: "core.alloc_bytes_per_inst", Unit: "B", Value: ratio(float64(in.ms1.TotalAlloc-in.ms0.TotalAlloc), float64(in.opInsts))},
		{Name: "core.cycles_per_inst", Unit: "cycles", Value: ratio(float64(c.cycles), float64(c.insts)), Note: "simulated"},
		{Name: "core.wrong_path_per_inst", Unit: "ratio", Value: wrongPath, Note: "simulated wrong-path insts per retired inst"},
		{Name: "cpi.retired_share", Unit: "share", Value: c.cpiShare(localbp.CPIRetired)},
		{Name: "cpi.memory_bound_share", Unit: "share", Value: c.cpiShare(localbp.CPIMemoryBound)},
		{Name: "cpi.frontend_resteer_share", Unit: "share", Value: c.cpiShare(localbp.CPIFrontendResteer)},
		{Name: "cpi.repair_busy_share", Unit: "share", Value: c.cpiShare(localbp.CPIRepairBusy)},
		{Name: "stream.tax_ns_per_inst", Unit: "ns", Value: tax,
			Note: fmt.Sprintf("streamed %.1f - resident %.1f - decode %.1f, medians over traces",
				medianOf(in.lt.streamNsPerInst), medianOf(in.lt.residentNsPerInst), decode)},
		{Name: "harness.suite_gen_s", Unit: "s", Value: in.harness.genS, Note: "TraceCache.Get over every input trace"},
		{Name: "harness.spec_s", Unit: "s", Value: in.harness.specS},
		{Name: "harness.worker_efficiency", Unit: "ratio", Value: in.harness.efficiency,
			Note: fmt.Sprintf("1-worker time / (%d x %d-worker time)", runtime.NumCPU(), runtime.NumCPU())},
	}
	ms = append(ms, in.profShare...)
	ms = append(ms, metric{Name: "bench.trace_overhead_ratio", Unit: "ratio",
		Value: ratio(tracedP50, medianOf(in.untraced)),
		Note:  fmt.Sprintf("median ns/inst traced %.1f / untraced %.1f", tracedP50, medianOf(in.untraced))})
	return ms
}
