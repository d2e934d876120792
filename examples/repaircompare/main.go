// repaircompare runs one workload under every repair scheme the paper
// studies and prints a Table 3-style comparison: MPKI reduction, IPC gain
// and the fraction of the perfect-repair gain each scheme retains.
//
//	go run ./examples/repaircompare [-workload name] [-insts N]
package main

import (
	"flag"
	"fmt"
	"log"

	"localbp"
	"localbp/internal/trace"
)

func main() {
	name := flag.String("workload", "sysmark-photoshop", "suite workload to simulate")
	insts := flag.Int("insts", 400_000, "instructions per run")
	flag.Parse()

	w, ok := localbp.Workload(*name)
	if !ok {
		log.Fatalf("unknown workload %q", *name)
	}
	tr := w.Generate(*insts)

	run := func(s localbp.Scheme) localbp.Result {
		r, err := localbp.FromSource(trace.NewSliceSource(tr), s)
		if err != nil {
			log.Fatal(err)
		}
		return r
	}

	schemes := []localbp.Scheme{
		localbp.NoRepair(),
		localbp.RetireUpdate(),
		localbp.BackwardWalk(),
		localbp.LimitedPC(2),
		localbp.MultiStage(),
		localbp.LimitedPC(4),
		localbp.ForwardWalk(),
	}

	base := run(localbp.BaselineTAGE())
	perf := run(localbp.PerfectRepair())
	perfGain := 100 * (perf.IPC/base.IPC - 1)

	fmt.Printf("workload %s (%s), %d instructions\n", w.Name, w.Category, *insts)
	fmt.Printf("baseline TAGE: IPC %.3f, MPKI %.3f\n", base.IPC, base.MPKI)
	fmt.Printf("perfect repair: IPC %+.2f%%, MPKI %+.1f%%\n\n",
		perfGain, 100*(base.MPKI-perf.MPKI)/base.MPKI)

	fmt.Printf("%-16s %9s %9s %14s\n", "scheme", "dMPKI", "dIPC", "of perfect")
	for _, s := range schemes {
		r := run(s)
		dm := 100 * (base.MPKI - r.MPKI) / base.MPKI
		di := 100 * (r.IPC/base.IPC - 1)
		fmt.Printf("%-16s %8.1f%% %8.2f%% %13.0f%%\n", r.Scheme, dm, di, 100*di/perfGain)
	}
}
