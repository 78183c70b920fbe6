// Command bench is the repository's end-to-end benchmark: four
// paper-scale workloads driven through the typed client against an
// in-process cvserve, a correctness gate inside every run, and a traced
// mode that attributes the time to the layers. README.md explains the
// workloads and the metrics; BENCHMARK.json at the repository root is
// the contract the driver runs it under.
//
//	bench -workload dash_sample -seed 1 -seconds 20 -trace 0
//	bench -workload dash_sample -seed 1 -seconds 20 -trace 1
//	bench -summary runs.jsonl
//	bench -compare parent.jsonl change.jsonl
//	bench -benchmark-json > BENCHMARK.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"syscall"
)

func main() {
	// the one root context: canceled on SIGINT/SIGTERM so a run stops at
	// the next op and its deferred clean-up removes the data directories
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := realMain(ctx, os.Args[1:])
	stop()
	os.Exit(code)
}

func realMain(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		cfg     config
		trace   int
		compare bool
		summary string
		out     string
	)
	fs.StringVar(&cfg.workload, "workload", "", "one of paper_build, dash_sample, dash_exact, stream_ingest")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	fs.IntVar(&cfg.seconds, "seconds", defaultSeconds, "run length the workload's op counts are scaled to")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	fs.StringVar(&cfg.scale, "scale", "full", "full (paper scale) or smoke (rows and ops shrunk 100x)")
	fs.StringVar(&cfg.workDir, "workdir", ".bench_build", "directory for temporary data directories")
	fs.StringVar(&cfg.outDir, "outdir", "bench/out", "directory the traced run writes <workload>.trace.jsonl to")
	fs.StringVar(&out, "out", "", "append this run's full record to a JSON-lines file (input of -summary and -compare)")
	fs.BoolVar(&compare, "compare", false, "compare two record files: bench -compare parent.jsonl change.jsonl")
	fs.StringVar(&summary, "summary", "", "print median, quartiles and spread per workload and metric of a record file")
	asJSON := fs.Bool("json", false, "with -summary: print the summary as JSON (the format of baseline.json)")
	emit := fs.Bool("benchmark-json", false, "print BENCHMARK.json as generated from the metric catalogue")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *emit:
		data, err := json.MarshalIndent(benchmarkJSON(), "", "  ")
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(data))
		return 0
	case compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two record files")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	case summary != "":
		return summarizeFile(os.Stdout, summary, *asJSON)
	}
	if !slices.Contains(workloadNames, cfg.workload) {
		fmt.Fprintf(os.Stderr, "bench: -workload must be one of %v\n", workloadNames)
		return 2
	}
	if cfg.seconds < 1 || (trace != 0 && trace != 1) || (cfg.scale != "full" && cfg.scale != "smoke") {
		fmt.Fprintln(os.Stderr, "bench: need -seconds >= 1, -trace 0|1, -scale full|smoke")
		return 2
	}
	cfg.trace = trace == 1

	r := newRun(cfg)
	err := r.execute(ctx)
	r.tearDown()
	fmt.Print(r.report())
	if err != nil {
		return fail(err) // no result line: the run could not be measured
	}
	rec, err := r.record()
	if err != nil {
		return fail(err)
	}
	if out != "" {
		if err := appendRecord(out, rec); err != nil {
			return fail(err)
		}
	}
	line, err := json.Marshal(rec.result())
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	return 1
}
