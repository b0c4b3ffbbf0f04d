// Command imgen generates synthetic graphs — either one of the paper's
// Table-2 stand-ins or a parameterized BA/R-MAT graph — and writes an
// edge-list (+ optional opinions file) readable by imrun and the library.
//
// Usage:
//
//	imgen -dataset nethept -quick -out nethept.txt
//	imgen -type rmat -n 100000 -m 1000000 -directed -out big.txt
//	imgen -type ba -n 10000 -deg 3 -opinions normal -out graph.txt
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/holisticim/holisticim"
	"github.com/holisticim/holisticim/datasets"
)

func main() {
	var (
		dataset  = flag.String("dataset", "", "named dataset stand-in (see -listdatasets)")
		listDS   = flag.Bool("listdatasets", false, "list named datasets and exit")
		typ      = flag.String("type", "", "generator type: ba | rmat")
		n        = flag.Int("n", 10000, "number of nodes")
		m        = flag.Int64("m", 0, "number of arcs (rmat; default 8n)")
		deg      = flag.Int("deg", 3, "edges per node (ba)")
		directed = flag.Bool("directed", false, "rmat: keep arcs directed")
		quick    = flag.Bool("quick", false, "named datasets: quick scale tier")
		seed     = flag.Uint64("seed", 1, "random seed")
		prob     = flag.Float64("p", 0.1, "uniform influence probability to assign (<0 = weighted cascade)")
		opinions = flag.String("opinions", "", "assign opinions: uniform | normal | polarized")
		out      = flag.String("out", "", "output edge-list path (default stdout)")
		opOut    = flag.String("opinions-out", "", "output opinions path (default <out>.opinions)")
		format   = flag.String("format", "text", "output format: text | binary (binary embeds opinions)")
	)
	flag.Parse()

	if *listDS {
		for _, name := range datasets.Names() {
			fmt.Println(name)
		}
		return
	}

	var g *holisticim.Graph
	var err error
	switch {
	case *dataset != "":
		g, err = datasets.Load(*dataset, *quick, *seed)
		if err != nil {
			fatal(err)
		}
	case *typ == "ba":
		g = holisticim.GenerateBA(int32(*n), *deg, *seed)
	case *typ == "rmat":
		arcs := *m
		if arcs <= 0 {
			arcs = int64(*n) * 8
		}
		g = holisticim.GenerateRMAT(int32(*n), arcs, !*directed, *seed)
	default:
		fatal(fmt.Errorf("pass -dataset or -type ba|rmat"))
	}

	if *prob < 0 {
		g.SetWeightedCascadeProb()
	} else {
		g.SetUniformProb(*prob)
	}
	holisticim.AssignInteractions(g, *seed+1)
	if *opinions != "" {
		dist, err := holisticim.ParseOpinionDistribution(*opinions)
		if err != nil {
			fatal(err)
		}
		holisticim.AssignOpinions(g, dist, *seed+2)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "text":
		if err := holisticim.WriteEdgeList(w, g); err != nil {
			fatal(err)
		}
	case "binary":
		if err := holisticim.WriteBinaryGraph(w, g); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown format %q", *format))
	}
	if *opinions != "" && *out != "" && *format == "text" {
		path := *opOut
		if path == "" {
			path = *out + ".opinions"
		}
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := writeOpinions(f, g); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "imgen: wrote %d nodes, %d arcs\n", g.NumNodes(), g.NumEdges())
}

func writeOpinions(f *os.File, g *holisticim.Graph) error {
	for v := holisticim.NodeID(0); v < g.NumNodes(); v++ {
		if _, err := fmt.Fprintf(f, "%d %g\n", v, g.Opinion(v)); err != nil {
			return err
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "imgen: %v\n", err)
	os.Exit(1)
}
