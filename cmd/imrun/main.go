// Command imrun is the offline command line: from a graph file, a named
// dataset stand-in or a generator to seeds, graph files and RR-sketch
// snapshots. The first argument names the verb; select is the default.
//
//	imrun [select] -dataset nethept -quick -alg easyim -k 20 -model ic
//	imrun gen -type ba -n 10000 -opinions normal -format binary -out ba.bin
//	imrun build -graph ba.bin -out ba-oc.sketch -model oc -eps 0.1 -k 50
//	imrun info -sketch ba-oc.sketch
//	imrun select -graph ba.bin -sketch ba-oc.sketch -alg imm -model oc -k 20 -explain
//	imrun publish -type ba -n 50000 -store /srv/imstore -name soc -eps 0.1 -seed 1 -k 50
//
// Every verb but info reads one graph source — -graph FILE, -dataset NAME
// or -type ba|rmat — and applies one recipe to it: -p ≥ 0 sets a uniform
// p, -1 weighted cascade, -2 keeps the input's (the default for binary
// files, which carry p, ϕ, w and opinions; otherwise 0.1); -opinions then
// assigns opinions at seed+2 and interactions ϕ at seed+3.
//
// select plans one query (holisticim.Run); -sketch FILE, loaded against
// the graph under its fingerprint guard, is attached as Options.Sketch and
// serves -alg imm|tim+. Ctrl-C or -timeout stops a selection cooperatively,
// its partial prefix is still reported, and the exit status is 2.
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/holisticim/holisticim"
	"github.com/holisticim/holisticim/datasets"
	"github.com/holisticim/holisticim/internal/cluster"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// verbs maps each verb to its body; run hands every verb but info its graph.
var verbs = map[string]func(ctx context.Context, c *config, g *holisticim.Graph, stdout, stderr io.Writer) error{
	"select": chooseSeeds, "gen": gen, "build": build, "info": info, "publish": publish,
}

// errPartial marks a selection cut short, which exits 2.
var errPartial = errors.New("partial selection")

// config holds the flags of every verb; each verb registers only its own.
// pSet records whether -p was given, dist what -opinions names.
type config struct {
	verb, graph, dataset, typ, opinions, alg, model string
	sketch, out, format, store, name                string
	quick, directed, pSet, explain, progress        bool
	n, deg, k, l, runs, thetaCap, workers, maxSets  int
	m                                               int64
	ks                                              []int
	p, lambda, eps                                  float64
	seed                                            uint64
	timeout                                         time.Duration
	dist                                            holisticim.OpinionDistribution
}

// run executes one command line and returns its exit status: 0 on
// success, 1 on failure, 2 on a usage error or a partial selection.
func run(args []string, stdout, stderr io.Writer) int {
	c, err := parse(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	var g *holisticim.Graph
	if c.verb != "info" {
		g, err = loadGraph(c)
	}
	if err == nil {
		err = verbs[c.verb](ctx, c, g, stdout, stderr)
	}
	if errors.Is(err, errPartial) {
		return 2
	} else if err != nil {
		fmt.Fprintf(stderr, "imrun: %v\n", err)
		return 1
	}
	return 0
}

// parse splits the verb off args, parses the verb's flags and checks
// them, printing any usage error to stderr.
func parse(args []string, stderr io.Writer) (*config, error) {
	c := &config{verb: "select"}
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		c.verb, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("imrun "+c.verb, flag.ContinueOnError)
	fs.SetOutput(stderr)
	if c.verb != "info" {
		fs.StringVar(&c.graph, "graph", "", "graph file: text edge list (u v [p [phi]] lines) or binary")
		fs.StringVar(&c.dataset, "dataset", "", "named dataset stand-in")
		fs.BoolVar(&c.quick, "quick", false, "named datasets: quick tier")
		fs.StringVar(&c.typ, "type", "", "generate the graph: ba | rmat")
		fs.IntVar(&c.n, "n", 10000, "generators: number of nodes")
		fs.Int64Var(&c.m, "m", 0, "rmat: number of arcs (0 = 8n)")
		fs.IntVar(&c.deg, "deg", 3, "ba: edges per node")
		fs.BoolVar(&c.directed, "directed", false, "rmat: keep arcs directed")
		fs.Float64Var(&c.p, "p", 0.1, "edge probabilities: >=0 uniform, -1 weighted cascade, -2 keep the input's (the default for binary files)")
		fs.Func("opinions", "assign opinions (seed+2) and interactions (seed+3): uniform|normal|polarized", func(s string) (err error) {
			c.opinions = s
			c.dist, err = holisticim.ParseOpinionDistribution(s)
			return err
		})
		fs.Uint64Var(&c.seed, "seed", 1, "random seed: generators, datasets, opinions and sampling")
	}
	if c.verb == "select" || c.verb == "build" || c.verb == "publish" {
		fs.StringVar(&c.model, "model", "", "diffusion model: ic|wc|lt|oi-ic|oi-lt|oc (default per algorithm; sketches ic)")
		fs.Float64Var(&c.eps, "eps", 0.1, "TIM+/IMM and sketch approximation slack ε")
	}
	switch c.verb {
	case "select":
		fs.StringVar(&c.alg, "alg", "easyim", "algorithm: easyim|osim|greedy|celf++|modified-greedy|tim+|imm|irie|simpath|degree-discount")
		fs.IntVar(&c.k, "k", 10, "seed budget")
		fs.Func("ks", "comma-separated seed budgets: run a batch query over shared state (overrides -k)", func(s string) error {
			for _, part := range strings.Split(s, ",") {
				k, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil {
					return err
				}
				c.ks = append(c.ks, k)
			}
			return nil
		})
		fs.BoolVar(&c.explain, "explain", false, "print the planner's backend choice per member")
		fs.IntVar(&c.l, "l", 3, "EaSyIM/OSIM path length")
		fs.Float64Var(&c.lambda, "lambda", 1, "MEO penalty λ")
		fs.IntVar(&c.runs, "runs", 10000, "Monte-Carlo runs (selection & evaluation)")
		fs.IntVar(&c.thetaCap, "theta-cap", 0, "cap TIM+/IMM RR sets (0 = none)")
		fs.DurationVar(&c.timeout, "timeout", 0, "bound selection wall-clock time; 0 = none (partial seeds are reported on expiry)")
		fs.BoolVar(&c.progress, "progress", false, "print one line per chosen seed while selecting")
	case "gen":
		fs.StringVar(&c.format, "format", "text", "output format: text | binary (binary embeds p, ϕ, w and opinions)")
	case "build", "publish":
		fs.IntVar(&c.k, "k", 50, "build k: the seed budget the sample's θ bound targets")
		fs.IntVar(&c.maxSets, "max-sets", 0, "cap on RR sets (0 = unbounded)")
		fs.IntVar(&c.workers, "workers", 0, "parallel sampling goroutines (0 = GOMAXPROCS); never changes the sample")
	case "info":
	default:
		fmt.Fprintf(stderr, "imrun: unknown verb %q: want select, gen, build, info or publish\n", c.verb)
		return nil, fmt.Errorf("unknown verb %q", c.verb)
	}
	switch c.verb {
	case "gen", "build":
		fs.StringVar(&c.out, "out", "", "output path (gen: default stdout)")
	case "publish":
		fs.StringVar(&c.store, "store", "", "snapshot-store directory")
		fs.StringVar(&c.name, "name", "", "the graph's name in the store")
		fallthrough
	default:
		fs.StringVar(&c.sketch, "sketch", "", "snapshot file (select: serves -alg imm|tim+; publish: instead of building one)")
	}
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) { c.pSet = c.pSet || f.Name == "p" })
	if len(c.ks) == 0 {
		c.ks = []int{c.k}
	}
	sources := len(slices.DeleteFunc([]string{c.graph, c.dataset, c.typ}, func(s string) bool { return s == "" }))
	var bad error
	switch gen := c.typ != ""; {
	case fs.NArg() > 0:
		bad = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case c.verb != "info" && sources != 1:
		bad = errors.New("pass exactly one graph source: -graph FILE, -dataset NAME or -type ba|rmat")
	case gen && c.typ != "ba" && c.typ != "rmat":
		bad = fmt.Errorf("-type %q: want ba or rmat", c.typ)
	case gen && (c.n < 2 || c.n > math.MaxInt32):
		bad = fmt.Errorf("-n %d: want 2 to %d nodes", c.n, math.MaxInt32)
	case gen && c.deg <= 0:
		bad = fmt.Errorf("-deg %d: want at least 1 edge per node", c.deg)
	case gen && c.m < 0:
		bad = fmt.Errorf("-m %d: want a non-negative arc count (0 = 8n)", c.m)
	case c.p < 0 && c.p != -1 && c.p != -2:
		bad = fmt.Errorf("-p %g: want ≥ 0, -1 (weighted cascade) or -2 (keep the input's)", c.p)
	case c.verb == "gen" && c.format != "text" && c.format != "binary":
		bad = fmt.Errorf("-format %q: want text or binary", c.format)
	case c.verb == "build" && c.out == "":
		bad = errors.New("build needs -out FILE")
	case c.verb == "publish" && (c.store == "" || c.name == ""):
		bad = errors.New("publish needs -store DIR and -name NAME")
	case c.verb == "info" && c.sketch == "":
		bad = errors.New("info needs -sketch")
	}
	if bad != nil {
		fmt.Fprintf(stderr, "imrun: %v\n", bad)
	}
	return c, bad
}

// loadGraph reads or generates the one graph source the flags name, then
// applies the parameter recipe: -p, then -opinions.
func loadGraph(c *config) (g *holisticim.Graph, err error) {
	p := c.p
	switch {
	case c.graph != "":
		if !c.pSet && isBinary(c.graph) {
			p = -2
		}
		g, err = holisticim.ReadGraphFile(c.graph)
	case c.dataset != "":
		g, err = datasets.Load(c.dataset, c.quick, c.seed)
	case c.typ == "ba":
		g = holisticim.GenerateBA(int32(c.n), c.deg, c.seed)
	default:
		g = holisticim.GenerateRMAT(int32(c.n), cmp.Or(c.m, 8*int64(c.n)), !c.directed, c.seed)
	}
	if err != nil {
		return nil, err
	}
	if p >= 0 {
		g.SetUniformProb(p)
	} else if p == -1 {
		g.SetWeightedCascadeProb()
	}
	if c.opinions != "" {
		holisticim.AssignOpinions(g, c.dist, c.seed+2)
		holisticim.AssignInteractions(g, c.seed+3)
	}
	return g, nil
}

// isBinary reports whether path starts with the binary graph format's magic.
func isBinary(path string) bool {
	magic := make([]byte, 4)
	f, err := os.Open(path) // ReadGraphFile reports any error
	if err == nil {
		_, err = io.ReadFull(f, magic)
		f.Close()
	}
	return err == nil && string(magic) == "HIMG"
}

// chooseSeeds runs one planned select query, then estimates the spread of
// the largest selection.
func chooseSeeds(ctx context.Context, c *config, g *holisticim.Graph, stdout, _ io.Writer) error {
	opts := holisticim.Options{Model: holisticim.ModelKind(c.model), PathLength: c.l, Lambda: c.lambda, Epsilon: c.eps,
		MCRuns: c.runs, Seed: c.seed, TIMThetaCap: c.thetaCap, Deadline: c.timeout}
	if c.progress {
		opts.Progress = func(seedIdx int, seed holisticim.NodeID, elapsed time.Duration) {
			fmt.Fprintf(stdout, "seed %3d/%d: node %d (%v)\n", seedIdx+1, slices.Max(c.ks), seed, elapsed.Round(time.Millisecond))
		}
	}
	var err error
	if opts.Sketch, err = readSketch(c.sketch, g); err != nil {
		return err
	}
	query := holisticim.Query{Task: holisticim.TaskSelect, Algorithm: holisticim.Algorithm(c.alg), Ks: c.ks, Options: opts}
	plan, err := holisticim.PlanQuery(g, query)
	if err != nil {
		return err
	}
	if opts.Sketch != nil && plan.Steps[0].Backend != holisticim.BackendSketch {
		return fmt.Errorf("-sketch serves only -alg imm|tim+ under a -model of %q RR semantics and without -theta-cap",
			opts.Sketch.Kind().Semantics())
	}
	if c.explain {
		for _, line := range plan.Explain() {
			fmt.Fprintf(stdout, "plan      : %s\n", line)
		}
	}
	start := time.Now() // cancellation stops Run cooperatively; its partial prefix is reported
	ans, err := holisticim.Run(ctx, g, query)
	if err != nil && len(ans.Members) == 0 {
		return err
	}
	largest := slices.MaxFunc(ans.Members, func(a, b holisticim.Member) int { return cmp.Compare(a.K, b.K) })
	fmt.Fprintf(stdout, "algorithm : %s\n", largest.Result.Algorithm)
	fmt.Fprintf(stdout, "graph     : %d nodes, %d arcs\n", g.NumNodes(), g.NumEdges())
	if len(c.ks) > 1 {
		fmt.Fprintf(stdout, "batch     : %d members in %v\n", len(ans.Members), time.Since(start).Round(time.Millisecond))
	}
	for _, m := range ans.Members {
		label, state := "selection", ""
		if len(c.ks) > 1 {
			label = fmt.Sprintf("k=%-7d", m.K)
		}
		if m.Result.Partial {
			state = fmt.Sprintf(" [PARTIAL: %d/%d seeds, %v]", len(m.Result.Seeds), m.K, err)
		}
		fmt.Fprintf(stdout, "%s : %v (%v)%s\n", label, m.Result.Seeds, m.Result.Took.Round(time.Millisecond), state)
	}
	var metrics []string // sorted by name
	for name, v := range largest.Result.Metrics {
		metrics = append(metrics, fmt.Sprintf("metric    : %s = %g\n", name, v))
	}
	slices.Sort(metrics)
	fmt.Fprint(stdout, strings.Join(metrics, ""))
	if len(largest.Result.Seeds) == 0 {
		return errors.New("no seeds selected before interruption")
	}
	// A fresh signal context: a second Ctrl-C still stops a long estimate.
	ectx, ecancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer ecancel()
	est, eerr := holisticim.EstimateSpreadContext(ectx, g, largest.Result.Seeds, opts)
	if eerr != nil {
		return eerr
	}
	fmt.Fprintf(stdout, "spread σ(S) at k=%-6d: %.2f (over %d runs)\n", largest.K, est.Spread, est.Runs)
	if c.opinions != "" || opts.Model.OpinionAware() {
		oest, oerr := holisticim.EstimateOpinionSpreadContext(ectx, g, largest.Result.Seeds, opts)
		if oerr != nil {
			return oerr
		}
		fmt.Fprintf(stdout, "opinion spread σ_o(S)  : %.3f\n", oest.OpinionSpread)
		fmt.Fprintf(stdout, "effective spread (λ=%g): %.3f\n", c.lambda, oest.EffectiveOpinionSpread(c.lambda))
	}
	if err != nil {
		return errPartial
	}
	return nil
}

// gen writes the graph to -out, or to stdout without one.
func gen(_ context.Context, c *config, g *holisticim.Graph, stdout, stderr io.Writer) error {
	write := holisticim.WriteEdgeList
	if c.format == "binary" {
		write = holisticim.WriteBinaryGraph
	}
	if err := writeFile(c.out, stdout, func(w io.Writer) error { return write(w, g) }); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "imrun: wrote %d nodes, %d arcs\n", g.NumNodes(), g.NumEdges())
	return nil
}

// build samples a sketch over the graph and writes its snapshot to -out.
func build(ctx context.Context, c *config, g *holisticim.Graph, stdout, _ io.Writer) error {
	sk, err := buildSketch(ctx, c, g, stdout)
	if err != nil {
		return err
	}
	return writeFile(c.out, nil, func(w io.Writer) error { return holisticim.WriteSketch(w, sk) })
}

// info prints the header of the -sketch snapshot.
func info(_ context.Context, c *config, _ *holisticim.Graph, stdout, _ io.Writer) error {
	f, err := os.Open(c.sketch)
	if err != nil {
		return err
	}
	defer f.Close()
	h, err := holisticim.ReadSketchHeader(f)
	if err != nil {
		return err
	}
	weighted := map[bool]string{true: " (opinion-weighted)"}[h.Weighted()]
	_, err = fmt.Fprintf(stdout, "snapshot version  : %d%s\ngraph fingerprint : %016x\ngraph dims        : %d nodes, %d arcs\n"+
		"rr semantics      : %s\nepsilon / ell     : %g / %g\nseed              : %d\nbuild k           : %d\n"+
		"opt lower bound   : %.2f\nrr sets           : %d\n",
		h.Version, weighted, h.GraphFingerprint, h.Nodes, h.Arcs, h.Kind, h.Epsilon, h.Ell, h.Seed, h.BuildK, h.LowerBound, h.Sets)
	return err
}

// publish puts the graph and a sketch — the -sketch snapshot, or one
// built from the sampling flags — into the -store directory.
func publish(ctx context.Context, c *config, g *holisticim.Graph, stdout, _ io.Writer) error {
	sk, err := readSketch(c.sketch, g)
	if err == nil && sk == nil {
		sk, err = buildSketch(ctx, c, g, stdout)
	}
	if err != nil {
		return err
	}
	st, err := cluster.OpenStore(c.store)
	if err != nil {
		return err
	}
	// The graph has no mutation lineage, so it is published at the sketch's
	// graph version (0 for a fresh pair) and replicas see the two in step.
	ge, err := st.PublishGraph(c.name, g, sk.GraphVersion())
	if err != nil {
		return fmt.Errorf("graph publish: %w", err)
	}
	se, err := st.PublishSketch(c.name, sk)
	if err != nil {
		return fmt.Errorf("sketch publish: %w", err)
	}
	m, err := st.Manifest()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "published graph %q (fingerprint %s) and sketch %q\n", ge.Name, ge.Fingerprint, se.ID)
	fmt.Fprintf(stdout, "store %s now at manifest v%d (%d graphs, %d sketches)\n",
		c.store, m.Version, len(m.Graphs), len(m.Sketches))
	return nil
}

// buildSketch samples a sketch over g from the sampling flags and reports
// its size and build time.
func buildSketch(ctx context.Context, c *config, g *holisticim.Graph, stdout io.Writer) (*holisticim.Sketch, error) {
	start := time.Now()
	sk, err := holisticim.BuildSketch(ctx, g, holisticim.SketchOptions{Model: holisticim.ModelKind(c.model),
		Epsilon: c.eps, Seed: c.seed, BuildK: c.k, Workers: c.workers, MaxSets: c.maxSets})
	if err == nil {
		fmt.Fprintf(stdout, "built %d RR sets in %v (%.1f MiB)\n", sk.Len(), time.Since(start).Round(time.Millisecond), float64(sk.MemoryFootprint())/(1<<20))
	}
	return sk, err
}

// readSketch loads the snapshot at path, if any, against g; its
// fingerprint guard refuses any graph but the one the sketch was built over.
func readSketch(path string, g *holisticim.Graph) (*holisticim.Sketch, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sk, err := holisticim.ReadSketch(f, g)
	if err != nil {
		return nil, fmt.Errorf("-sketch %s: %w (load it against the graph it was built over: same source, -seed, -p and -opinions)", path, err)
	}
	return sk, nil
}

// writeFile writes to path through write, or to fallback when path is
// empty, and reports the file's close error too.
func writeFile(path string, fallback io.Writer, write func(io.Writer) error) error {
	if path == "" {
		return write(fallback)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(write(f), f.Close())
}
