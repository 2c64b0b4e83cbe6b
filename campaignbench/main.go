// Command campaignbench is the repository's end-to-end benchmark: five
// workloads that a user of the simulator waits on — the golden kernel
// pairs, the quick repro campaign cold, warm and distributed, and a
// checkpointed timing sweep — each measured end to end and, in a traced
// run, layer by layer. BENCHMARK.json at the repository root declares the
// workloads and metrics; README.md explains them.
//
// Usage (from the repository root, through run.sh, which builds this
// command first):
//
//	run.sh --workload W --seed N --seconds S --trace 0|1
//	        one run of one workload; the last output line is its result
//	run.sh -benchmark BENCHMARK.json [-workloads a,b] [-reps 5] [-seed 0]
//	        [-trace 1] [-json results.json]
//	        every workload -reps times, one child process per run
//	run.sh -compare OLD.json NEW.json
//	        compare two results documents
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload")
		seed      = flag.Uint64("seed", 0, "workload seed (with -benchmark, rep r runs seed+r)")
		seconds   = flag.Int("seconds", 0, "seconds to time batches for (default: run_seconds of the benchmark file, or 10)")
		trace     = flag.Int("trace", 0, "1 = traced runs, reporting per-layer metrics")
		traceDir  = flag.String("trace-dir", ".bench_build/spans", "where traced runs write <workload>.spans.jsonl")
		workDir   = flag.String("work-dir", ".bench_build/work", "where runs write result caches")
		benchmark = flag.String("benchmark", "", "run the workloads of this benchmark file")
		list      = flag.String("workloads", "", "with -benchmark: comma-separated workloads (default all)")
		reps      = flag.Int("reps", 5, "with -benchmark: runs per workload")
		jsonOut   = flag.String("json", "", "with -benchmark: write the results document to this file")
		compare   = flag.Bool("compare", false, "compare two results documents: -compare OLD.json NEW.json")
	)
	flag.Parse()
	runtime.GOMAXPROCS(childProcs())

	switch {
	case *compare:
		if flag.NArg() != 2 {
			die(fmt.Errorf("-compare needs two results documents"))
		}
		old, err := loadResults(flag.Arg(0))
		if err != nil {
			die(err)
		}
		new, err := loadResults(flag.Arg(1))
		if err != nil {
			die(err)
		}
		if n := compareDocs(os.Stdout, old, new); n > 0 {
			fmt.Fprintf(os.Stderr, "campaignbench: %d metrics worse or results changed\n", n)
			os.Exit(1)
		}

	case *benchmark != "":
		bf, err := loadBenchFile(*benchmark)
		if err != nil {
			die(err)
		}
		sc := suiteConfig{bench: bf, reps: *reps, seed: *seed, seconds: bf.RunSeconds,
			traced: *trace == 1, traceDir: *traceDir, workDir: *workDir}
		if *seconds > 0 {
			sc.seconds = *seconds
		}
		for _, w := range bf.Workloads {
			sc.workloads = append(sc.workloads, w.Name)
		}
		if *list != "" {
			sc.workloads = strings.Split(*list, ",")
		}
		for _, w := range sc.workloads {
			if _, err := lookupWorkload(w); err != nil {
				die(err)
			}
		}
		run := func(w string, seed uint64, traced bool) (runRecord, error) {
			return runChild(sc, w, seed, traced, os.Stderr)
		}
		doc, failures := runSuite(sc, run, os.Stderr)
		printSuite(os.Stdout, bf, doc, sc.workloads)
		if *jsonOut != "" {
			b, err := json.MarshalIndent(doc, "", "  ")
			if err != nil {
				die(err)
			}
			if err := os.WriteFile(*jsonOut, append(b, '\n'), 0o644); err != nil {
				die(err)
			}
		}
		if len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintln(os.Stderr, "campaignbench: FAIL:", f)
			}
			os.Exit(1)
		}

	case *workload != "":
		rc := runConfig{workload: *workload, seed: *seed, seconds: 10, traced: *trace == 1,
			traceDir: *traceDir, workDir: *workDir, size: defaultSize()}
		if *seconds > 0 {
			rc.seconds = float64(*seconds)
		}
		res, det, err := runOne(rc, os.Stderr)
		if err != nil {
			die(err)
		}
		if err := printResult(os.Stdout, res, det); err != nil {
			die(err)
		}
		os.Exit(exitStatus(res))

	default:
		flag.Usage()
		os.Exit(2)
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "campaignbench:", err)
	os.Exit(1)
}
