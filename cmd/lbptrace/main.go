// Command lbptrace generates, saves, converts, inspects and characterizes
// workload traces — both the synthetic evaluation suite and external trace
// files (LBP1, LBP2, ChampSim).
//
// Usage:
//
//	lbptrace -list                            # list suite + stressor workloads
//	lbptrace -list-schemes                    # list the scheme registry
//	lbptrace -workload NAME [-insts N]        # summarize a workload
//	lbptrace -workload NAME -sites            # print its branch-site inventory
//	lbptrace -gen -workload NAME -out F       # save the trace (-format lbp1|lbp2)
//	lbptrace -stat trace.lbp2                 # summarize a saved trace file
//	lbptrace -convert in.lbp -out F           # re-encode a trace file
//
// -insts, -workload, -scheme and -seed spell the same across lbpsim,
// lbpsweep, lbpbench and lbptrace, and `-workload NAME -out F` still saves
// without -gen.
//
// -stat and -convert stream: the input is decoded chunk-at-a-time, so
// arbitrarily long traces are handled at fixed memory (LBP2 output; LBP1
// output buffers because its header carries the record count). For LBP2
// inputs -stat also prints the container layout (chunks, index, bytes per
// instruction).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"localbp/internal/schemes"
	"localbp/internal/service"
	"localbp/internal/trace"
	"localbp/internal/workloads"
)

func main() {
	list := flag.Bool("list", false, "list all suite and stressor workloads")
	listSchemes := flag.Bool("list-schemes", false, "list the shared scheme registry and exit")
	name := flag.String("workload", "", "workload to generate")
	insts := flag.Int("insts", 300_000, "instructions to generate")
	seed := flag.Int64("seed", 0, "override the workload's trace-generation seed (0 = workload default)")
	sites := flag.Bool("sites", false, "print the branch-site inventory")
	gen := flag.Bool("gen", false, "generate -workload and write it to -out")
	format := flag.String("format", "lbp2", "output trace format: lbp1 or lbp2")
	out := flag.String("out", "", "write the binary trace to this file")
	stat := flag.String("stat", "", "summarize a saved trace file (lbp1, lbp2 or champsim)")
	convert := flag.String("convert", "", "re-encode this trace file to -out in -format")
	flag.Parse()

	switch {
	case *list:
		fmt.Printf("%-26s %-9s loops conds\n", "name", "category")
		for _, w := range workloads.Suite() {
			fmt.Printf("%-26s %-9s %5d %5d\n", w.Name, w.Category, w.Profile.LoopSites, w.Profile.CondSites)
		}
		fmt.Printf("\nstressors (predictor torture ladders, not in Table-1 aggregates):\n")
		for _, w := range workloads.StressSuite() {
			fmt.Printf("%-26s %-9s param %d\n", w.Name, w.Category, w.Stress.Param)
		}

	case *listSchemes:
		fmt.Print(schemes.Usage())

	case *stat != "":
		if err := statFile(*stat); err != nil {
			fatal(err)
		}

	case *convert != "":
		if *out == "" {
			fatal(fmt.Errorf("-convert requires -out"))
		}
		if err := convertFile(*convert, *out, *format); err != nil {
			fatal(err)
		}

	case *name != "":
		w, ok := workloads.ByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (see -list)", *name))
		}
		if *seed != 0 {
			w.Seed = *seed
		}
		if *sites {
			_, inventory := workloads.BuildProgramInfo(w.Profile, w.Seed)
			fmt.Printf("%d branch sites:\n", len(inventory))
			for _, si := range inventory {
				fmt.Printf("  %#08x %-14s %s\n", si.PC, si.Kind, si.Detail)
			}
			return
		}
		if *gen && *out == "" {
			fatal(fmt.Errorf("-gen requires -out"))
		}
		tr := w.Generate(*insts)
		fmt.Printf("%s (%s): %s\n", w.Name, w.Category, trace.Summarize(tr))
		if *out != "" {
			if err := writeFile(*out, *format, tr); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s (%s)\n", *out, *format)
		}

	default:
		flag.Usage()
		os.Exit(2)
	}
}

// statFile prints the aggregate statistics of any supported trace file,
// decoding it chunk-at-a-time; LBP2 containers also get a layout line.
func statFile(path string) error {
	src, err := trace.OpenSource(path)
	if err != nil {
		return err
	}
	defer trace.CloseSource(src)
	st, err := trace.SummarizeSource(src)
	if err != nil {
		return err
	}
	fmt.Println(st)

	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if st2, err := trace.StatLBP2(f, fi.Size()); err == nil {
		fmt.Println(st2)
	} else {
		fmt.Printf("container: %s, %d bytes (%.2f B/inst)\n",
			formatName(path), fi.Size(), float64(fi.Size())/float64(max(1, st.Insts)))
	}
	return nil
}

// formatName sniffs the container format of path for display.
func formatName(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unreadable"
	}
	defer f.Close()
	var magic [4]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return "unknown"
	}
	switch {
	case string(magic[:]) == "1PBL":
		return "lbp1"
	case string(magic[:]) == "2PBL":
		return "lbp2"
	default:
		return "champsim/raw"
	}
}

// convertFile re-encodes the trace at in to the requested format at out.
// LBP2 output streams through the chunked writer at fixed memory; LBP1
// output buffers the decoded trace because the LBP1 header carries the
// record count up-front.
func convertFile(in, out, format string) error {
	src, err := trace.OpenSource(in)
	if err != nil {
		return err
	}
	defer trace.CloseSource(src)

	switch format {
	case "lbp2":
		var total int
		err = service.AtomicWriteFile(out, func(f io.Writer) error {
			lw, err := trace.NewLBP2Writer(f, 0)
			if err != nil {
				return err
			}
			var chunk [4096]trace.Inst
			for {
				n, err := src.Next(chunk[:])
				if n > 0 {
					if werr := lw.Append(chunk[:n]); werr != nil {
						return werr
					}
					total += n
				}
				if err == io.EOF {
					return lw.Close()
				}
				if err != nil {
					return err
				}
			}
		})
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s (lbp2, %d insts)\n", out, total)
	case "lbp1":
		tr, err := trace.ReadAll(src)
		if err != nil {
			return err
		}
		if err := service.AtomicWriteFile(out, func(f io.Writer) error {
			return trace.WriteTrace(f, tr)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %s (lbp1, %d insts)\n", out, len(tr))
	default:
		return fmt.Errorf("unknown -format %q (lbp1 or lbp2)", format)
	}
	return nil
}

// writeFile saves a generated trace in the requested format; the atomic
// write means an interrupted save never leaves a torn file behind.
func writeFile(path, format string, tr []trace.Inst) error {
	switch format {
	case "lbp1":
		return service.AtomicWriteFile(path, func(f io.Writer) error {
			return trace.WriteTrace(f, tr)
		})
	case "lbp2":
		return service.AtomicWriteFile(path, func(f io.Writer) error {
			return trace.WriteTraceLBP2(f, tr)
		})
	default:
		return fmt.Errorf("unknown -format %q (lbp1 or lbp2)", format)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lbptrace:", err)
	os.Exit(1)
}
