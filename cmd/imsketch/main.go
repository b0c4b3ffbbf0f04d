// Command imsketch builds, inspects and queries RR-sketch snapshots —
// the offline half of the build-once/serve-many pipeline: build a sketch
// on a beefy machine (or in CI), ship the snapshot with the graph, and
// point imserver's -sketch flag at it so the /v1/select fast path is
// warm from the first request.
//
// Usage:
//
//	imsketch -build -graph g.bin -out g.sketch [-model ic] [-eps 0.1] [-seed 1] [-k 50] [-workers 8]
//	imsketch -info -sketch g.sketch
//	imsketch -select -graph g.bin -sketch g.sketch -k 20
//	imsketch -publish store/ -graph g.bin -name soc [-sketch g.sketch | -model ic -eps 0.1 ...]
//
// Modes (exactly one):
//
//	-build    sample a sketch over -graph and write it to -out
//	-info     print a snapshot's header (no graph needed)
//	-select   load -sketch against -graph and select -k seeds
//	-publish  publish -graph (as -name) plus a sketch into a shared
//	          snapshot-store directory for cluster replicas to warm-load
//	          (see imserver -store); reuses the snapshot from -sketch when
//	          given, otherwise builds one with the -build parameters
//
// -model oc builds an opinion-weighted sketch (snapshot format v2): the
// same reverse live-edge walks as -model lt plus per-set root-opinion
// weights, so selections maximize opinion coverage and the served index
// answers opinion-spread estimates without Monte Carlo.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"github.com/holisticim/holisticim"
	"github.com/holisticim/holisticim/internal/cluster"
	"github.com/holisticim/holisticim/internal/obs"
)

// logger is the shared structured logger; imsketch is a CLI, so it only
// speaks on errors (results go to stdout as before).
var logger = obs.NewLogger(os.Stderr, "imsketch", slog.LevelInfo)

func fatal(msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}

func main() {
	var (
		build   = flag.Bool("build", false, "build a sketch over -graph and write it to -out")
		info    = flag.Bool("info", false, "print a snapshot's header")
		sel     = flag.Bool("select", false, "load -sketch against -graph and select -k seeds")
		publish = flag.String("publish", "", "publish -graph and a sketch into this snapshot-store directory")
		name    = flag.String("name", "", "graph name in the store (publish mode)")
		graphP  = flag.String("graph", "", "graph file (edge-list or binary)")
		sketch  = flag.String("sketch", "", "sketch snapshot file")
		out     = flag.String("out", "", "output snapshot path (build mode)")
		model   = flag.String("model", "ic", "diffusion model; its family picks the RR semantics (ic or lt walks)")
		eps     = flag.Float64("eps", 0.1, "IMM approximation slack epsilon")
		seed    = flag.Uint64("seed", 1, "master sampling seed")
		k       = flag.Int("k", 50, "build: theta budget build-k; select: seeds to pick")
		worker  = flag.Int("workers", 0, "parallel sampling goroutines (0 = GOMAXPROCS)")
		maxSet  = flag.Int("max-sets", 0, "cap on RR sets (0 = unbounded)")
	)
	flag.Parse()

	modes := 0
	for _, m := range []bool{*build, *info, *sel, *publish != ""} {
		if m {
			modes++
		}
	}
	if modes != 1 {
		fmt.Fprintln(os.Stderr, "imsketch: pass exactly one of -build, -info, -select, -publish")
		flag.Usage()
		os.Exit(2)
	}

	switch {
	case *info:
		f := mustOpen(*sketch, "-sketch")
		defer f.Close()
		h, err := holisticim.ReadSketchHeader(f)
		if err != nil {
			fatal("command failed", "error", err)
		}
		weighted := ""
		if h.Weighted() {
			weighted = " (opinion-weighted)"
		}
		fmt.Printf("snapshot version  : %d%s\n", h.Version, weighted)
		fmt.Printf("graph fingerprint : %016x\n", h.GraphFingerprint)
		fmt.Printf("graph dims        : %d nodes, %d arcs\n", h.Nodes, h.Arcs)
		fmt.Printf("rr semantics      : %s\n", h.Kind)
		fmt.Printf("epsilon / ell     : %g / %g\n", h.Epsilon, h.Ell)
		fmt.Printf("seed              : %d\n", h.Seed)
		fmt.Printf("build k           : %d\n", h.BuildK)
		fmt.Printf("opt lower bound   : %.2f\n", h.LowerBound)
		fmt.Printf("rr sets           : %d\n", h.Sets)

	case *build:
		if *out == "" {
			fatal("-build needs -out")
		}
		g := loadGraph(*graphP)
		start := time.Now()
		sk, err := holisticim.BuildSketch(context.Background(), g, holisticim.SketchOptions{
			Model:   holisticim.ModelKind(*model),
			Epsilon: *eps,
			Seed:    *seed,
			BuildK:  *k,
			Workers: *worker,
			MaxSets: *maxSet,
		})
		if err != nil {
			fatal("command failed", "error", err)
		}
		built := time.Since(start)
		f, err := os.Create(*out)
		if err != nil {
			fatal("command failed", "error", err)
		}
		if err := holisticim.WriteSketch(f, sk); err != nil {
			fatal("snapshot write failed", "path", *out, "error", err)
		}
		if err := f.Close(); err != nil {
			fatal("snapshot close failed", "path", *out, "error", err)
		}
		st := sk.Stats()
		fmt.Printf("built %d RR sets in %v (%.1f MiB), snapshot %s\n",
			st.Sets, built.Round(time.Millisecond), float64(st.MemoryBytes)/(1<<20), *out)

	case *publish != "":
		if *name == "" {
			fatal("-publish needs -name (the graph's store name)")
		}
		g := loadGraph(*graphP)
		var sk *holisticim.Sketch
		var err error
		if *sketch != "" {
			f := mustOpen(*sketch, "-sketch")
			sk, err = holisticim.ReadSketch(f, g)
			f.Close()
			if err != nil {
				fatal("command failed", "error", err)
			}
		} else {
			start := time.Now()
			sk, err = holisticim.BuildSketch(context.Background(), g, holisticim.SketchOptions{
				Model:   holisticim.ModelKind(*model),
				Epsilon: *eps,
				Seed:    *seed,
				BuildK:  *k,
				Workers: *worker,
				MaxSets: *maxSet,
			})
			if err != nil {
				fatal("command failed", "error", err)
			}
			fmt.Printf("built %d RR sets in %v\n", sk.Len(), time.Since(start).Round(time.Millisecond))
		}
		st, err := cluster.OpenStore(*publish)
		if err != nil {
			fatal("command failed", "error", err)
		}
		// A file-loaded graph has no mutation lineage, so its published
		// version is the sketch's own graph version (0 for a fresh pair) —
		// replicas then see the sketch in step with its graph.
		ge, err := st.PublishGraph(*name, g, sk.GraphVersion())
		if err != nil {
			fatal("graph publish failed", "error", err)
		}
		se, err := st.PublishSketch(*name, sk)
		if err != nil {
			fatal("sketch publish failed", "error", err)
		}
		m, err := st.Manifest()
		if err != nil {
			fatal("command failed", "error", err)
		}
		fmt.Printf("published graph %q (fingerprint %s) and sketch %q\n", ge.Name, ge.Fingerprint, se.ID)
		fmt.Printf("store %s now at manifest v%d (%d graphs, %d sketches)\n",
			*publish, m.Version, len(m.Graphs), len(m.Sketches))

	case *sel:
		g := loadGraph(*graphP)
		f := mustOpen(*sketch, "-sketch")
		defer f.Close()
		sk, err := holisticim.ReadSketch(f, g)
		if err != nil {
			fatal("command failed", "error", err)
		}
		start := time.Now()
		res, err := sk.Select(context.Background(), *k)
		if err != nil {
			fatal("command failed", "error", err)
		}
		fmt.Printf("selected %d seeds in %v (index: %d sets)\n",
			len(res.Seeds), time.Since(start).Round(time.Microsecond), sk.Len())
		fmt.Printf("estimated spread  : %.1f\n", res.Metrics["estimated_spread"])
		// Opinion-weighted (oc) sketches maximize opinion coverage and
		// report the opinion-spread estimate alongside.
		if _, ok := res.Metrics["weighted_coverage"]; ok {
			fmt.Printf("opinion coverage  : %.3f\n", res.Metrics["weighted_coverage"])
			fmt.Printf("est opinion spread: %.2f\n", res.Metrics["estimated_opinion_spread"])
		}
		fmt.Printf("seeds             : %v\n", res.Seeds)
	}
}

func mustOpen(path, flagName string) *os.File {
	if path == "" {
		fatal("missing required flag", "flag", flagName)
	}
	f, err := os.Open(path)
	if err != nil {
		fatal("command failed", "error", err)
	}
	return f
}

// loadGraph reads the -graph file (edge list or binary) or exits.
func loadGraph(path string) *holisticim.Graph {
	if path == "" {
		fatal("missing required flag", "flag", "-graph")
	}
	g, err := holisticim.ReadGraphFile(path)
	if err != nil {
		fatal("graph read failed", "path", path, "error", err)
	}
	return g
}
