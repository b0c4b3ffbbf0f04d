// Command benchmark is the repository's benchmark: four workloads over
// seeded inputs, end-to-end metrics with tracing off, a per-layer ledger
// from a traced run, and a comparison of two result files against the
// regression bounds. README.md has the catalog and the reasoning.
//
//	bash benchmark/run.sh -workload all -seed 1 -out result.json
//	bash benchmark/run.sh -workload serve-read -trace 1
//	bash benchmark/run.sh -compare a.json b.json
//
// With one workload named, the last line of standard output is the JSON
// object BENCHMARK.json's contract describes.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadFlag = flag.String("workload", "all", "workload to run: all, or one of offline-select, sketch-lifecycle, serve-read, serve-churn")
		seed         = flag.Int64("seed", 1, "seed for every generated input: graphs, opinions, op mix, seed sets, mutation batches")
		seconds      = flag.Float64("seconds", runSeconds, "length of each workload's timed phase")
		trace        = flag.Int("trace", 0, "1 records spans around each layer call, runs the layer ledger and reports the per-layer metrics")
		runs         = flag.Int("runs", 1, "repeat each workload this many times (-compare takes medians and spreads across runs)")
		out          = flag.String("out", "", "write every run's result to this JSON file")
		traceFile    = flag.String("tracefile", filepath.Join(".bench_build", "trace.json"), "where a traced run writes its spans")
		compare      = flag.Bool("compare", false, "compare two result files: -compare base.json new.json")
		calibrate    = flag.String("calibrate", "", "print the run-to-run spread and the bound it implies for every metric of this result file")
		manifestOut  = flag.Bool("manifest", false, "print BENCHMARK.json as the catalog defines it")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare base.json new.json")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *calibrate != "":
		return calibrateFile(os.Stdout, *calibrate)
	case *manifestOut:
		if err := writeManifest(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "-trace takes 0 or 1")
		return 2
	}
	if *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "-seconds and -runs must be positive")
		return 2
	}

	names := []string{*workloadFlag}
	if *workloadFlag == "all" {
		names = allWorkloadNames()
	}
	var results []*WorkloadResult
	exit := 0
	for _, name := range names {
		for i := 0; i < *runs; i++ {
			tf := ""
			if *trace == 1 {
				tf = *traceFile
				if len(names) > 1 {
					tf = tf[:len(tf)-len(filepath.Ext(tf))] + "-" + name + filepath.Ext(tf)
				}
			}
			res, err := runWorkload(name, uint64(*seed), *seconds, *trace == 1, tf)
			if err != nil {
				// No result line: the driver must see a failed run, not
				// numbers from a run that did not finish.
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			printResult(os.Stdout, res)
			results = append(results, res)
			if !res.Correct {
				exit = 1
			}
		}
	}
	if *out != "" {
		if err := writeResultFile(*out, results); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if len(names) == 1 {
		line, err := contractLine(results[len(results)-1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Println(line)
	}
	return exit
}
