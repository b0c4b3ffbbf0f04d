// Command imbench reproduces the paper's tables and figures on the scaled
// synthetic datasets (imbench -list prints the experiment index).
//
// Usage:
//
//	imbench -list
//	imbench -exp fig6a,fig6b [-quick] [-runs 10000] [-seed 1] [-csv out/]
//	imbench -all -quick
//
// Each experiment prints one or more aligned ASCII tables; -csv
// additionally writes <id>.csv files. Performance is measured by the
// repo benchmark instead (bash benchmark/run.sh, see benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/holisticim/holisticim/internal/experiments"
)

func main() {
	var (
		list  = flag.Bool("list", false, "list available experiments and exit")
		exp   = flag.String("exp", "", "comma-separated experiment ids to run")
		all   = flag.Bool("all", false, "run every registered experiment")
		quick = flag.Bool("quick", false, "reduced dataset scale and Monte-Carlo budget")
		runs  = flag.Int("runs", 0, "override Monte-Carlo evaluation runs (0 = default)")
		seed  = flag.Uint64("seed", 1, "master random seed")
		csv   = flag.String("csv", "", "directory to write <id>.csv files into")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			e := experiments.Registry[id]
			fmt.Printf("%-26s %-12s %s\n", id, e.PaperRef, e.Title)
		}
		return
	}

	var ids []string
	switch {
	case *all:
		ids = experiments.IDs()
	case *exp != "":
		ids = strings.Split(*exp, ",")
	default:
		fmt.Fprintln(os.Stderr, "imbench: pass -list, -all or -exp <ids>")
		flag.Usage()
		os.Exit(2)
	}

	cfg := experiments.Config{Quick: *quick, MCRuns: *runs, Seed: *seed}
	if *csv != "" {
		if err := os.MkdirAll(*csv, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "imbench: %v\n", err)
			os.Exit(1)
		}
	}
	exitCode := 0
	for _, id := range ids {
		id = strings.TrimSpace(id)
		e, ok := experiments.Registry[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "imbench: unknown experiment %q (use -list)\n", id)
			exitCode = 1
			continue
		}
		fmt.Printf("### %s (%s) — %s\n", e.ID, e.PaperRef, e.Title)
		start := time.Now()
		tables := e.Run(cfg)
		for _, t := range tables {
			fmt.Println(t.Render())
			if *csv != "" {
				path := filepath.Join(*csv, t.ID+".csv")
				if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "imbench: write %s: %v\n", path, err)
					exitCode = 1
				}
			}
		}
		fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	os.Exit(exitCode)
}
