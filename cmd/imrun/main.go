// Command imrun selects seeds with one algorithm on one graph and reports
// the selection plus its estimated spread, making individual experiments
// scriptable.
//
// Selection runs under a signal-aware context: Ctrl-C (or an expired
// -timeout) stops it cooperatively and the partial seed prefix selected
// so far is still reported. -progress streams one line per chosen seed.
//
// Every run is one query through the unified planner (holisticim.Run);
// -k is a batch of one. A comma-separated -ks list serves every budget
// from shared state — one RR collection or one selector run at the
// largest k — and the spread estimate is of the largest selection.
// -explain prints which backend the plan chose and why.
//
// Usage:
//
//	imrun -graph graph.txt -alg osim -k 50 -model oi-ic
//	imrun -dataset nethept -quick -alg easyim -k 20 -model ic
//	imrun -dataset soc -alg greedy -k 100 -timeout 30s -progress
//	imrun -dataset soc -alg imm -ks 5,10,25,50 -explain
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/holisticim/holisticim"
	"github.com/holisticim/holisticim/datasets"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "edge-list file (u v [p [phi]] lines)")
		dataset   = flag.String("dataset", "", "named dataset stand-in instead of -graph")
		quick     = flag.Bool("quick", false, "named datasets: quick tier")
		alg       = flag.String("alg", "easyim", "algorithm: easyim|osim|greedy|celf++|modified-greedy|tim+|imm|irie|simpath|degree|degree-discount|pagerank")
		model     = flag.String("model", "", "diffusion model: ic|wc|lt|oi-ic|oi-lt|oc (default per algorithm)")
		k         = flag.Int("k", 10, "seed budget")
		ks        = flag.String("ks", "", "comma-separated seed budgets: run a batch query over shared state (overrides -k)")
		explain   = flag.Bool("explain", false, "print the planner's backend choice per member")
		l         = flag.Int("l", 3, "EaSyIM/OSIM path length")
		lambda    = flag.Float64("lambda", 1, "MEO penalty λ")
		eps       = flag.Float64("eps", 0.1, "TIM+/IMM ε")
		runs      = flag.Int("runs", 10000, "Monte-Carlo runs (selection & evaluation)")
		seed      = flag.Uint64("seed", 1, "random seed")
		opinions  = flag.String("opinions", "", "assign opinions before running: uniform|normal|polarized")
		p         = flag.Float64("p", 0.1, "edge probabilities: >=0 uniform (paper default 0.1), -1 weighted cascade, -2 keep file/dataset values")
		thetaCap  = flag.Int("theta-cap", 0, "cap TIM+/IMM RR sets (0 = none)")
		timeout   = flag.Duration("timeout", 0, "bound selection wall-clock time; 0 = none (partial seeds are reported on expiry)")
		progress  = flag.Bool("progress", false, "print one line per chosen seed while selecting")
	)
	flag.Parse()

	var g *holisticim.Graph
	var err error
	switch {
	case *graphPath != "":
		if g, err = holisticim.ReadGraphFile(*graphPath); err != nil {
			fatal(err)
		}
	case *dataset != "":
		g, err = datasets.Load(*dataset, *quick, *seed)
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("pass -graph or -dataset"))
	}

	switch {
	case *p >= 0:
		g.SetUniformProb(*p)
	case *p == -1:
		g.SetWeightedCascadeProb()
	}
	if *opinions != "" {
		dist, err := holisticim.ParseOpinionDistribution(*opinions)
		if err != nil {
			fatal(err)
		}
		holisticim.AssignOpinions(g, dist, *seed+2)
		holisticim.AssignInteractions(g, *seed+3)
	}

	budgets := []int{*k}
	if *ks != "" {
		budgets = nil
		for _, part := range strings.Split(*ks, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fatal(fmt.Errorf("bad -ks entry %q: %v", part, err))
			}
			budgets = append(budgets, v)
		}
		if len(budgets) == 0 {
			fatal(fmt.Errorf("-ks parsed no budgets"))
		}
	}
	kmax := slices.Max(budgets) // selectors run once, at the largest budget

	opts := holisticim.Options{
		Model:       holisticim.ModelKind(*model),
		PathLength:  *l,
		Lambda:      *lambda,
		Epsilon:     *eps,
		MCRuns:      *runs,
		Seed:        *seed,
		TIMThetaCap: *thetaCap,
		Deadline:    *timeout,
	}
	if *progress {
		opts.Progress = func(seedIdx int, seed holisticim.NodeID, elapsed time.Duration) {
			fmt.Printf("seed %3d/%d: node %d (%v)\n", seedIdx+1, kmax, seed, elapsed.Round(time.Millisecond))
		}
	}

	// Ctrl-C / SIGTERM cancels the selection cooperatively; the partial
	// prefix selected so far is still reported below.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	query := holisticim.Query{
		Task:      holisticim.TaskSelect,
		Algorithm: holisticim.Algorithm(*alg),
		Ks:        budgets,
		Options:   opts,
	}
	if *explain {
		plan, perr := holisticim.PlanQuery(g, query)
		if perr != nil {
			fatal(perr)
		}
		for _, line := range plan.Explain() {
			fmt.Printf("plan      : %s\n", line)
		}
	}

	// One path whatever the budget count: -k is a batch of one.
	start := time.Now()
	ans, err := holisticim.Run(ctx, g, query)
	if err != nil && len(ans.Members) == 0 {
		fatal(err)
	}
	var largest *holisticim.Member
	for i := range ans.Members {
		if m := &ans.Members[i]; largest == nil || m.K > largest.K {
			largest = m
		}
	}
	fmt.Printf("algorithm : %s\n", largest.Result.Algorithm)
	fmt.Printf("graph     : %d nodes, %d arcs\n", g.NumNodes(), g.NumEdges())
	if len(budgets) > 1 {
		fmt.Printf("batch     : %d members in %v\n", len(ans.Members), time.Since(start).Round(time.Millisecond))
	}
	for _, m := range ans.Members {
		label, state := "selection", ""
		if len(budgets) > 1 {
			label = fmt.Sprintf("k=%-7d", m.K)
		}
		if m.Result.Partial {
			state = fmt.Sprintf(" [PARTIAL: %d/%d seeds, %v]", len(m.Result.Seeds), m.K, err)
		}
		fmt.Printf("%s : %v (%v)%s\n", label, m.Result.Seeds, m.Result.Took.Round(time.Millisecond), state)
	}
	for name, v := range largest.Result.Metrics {
		fmt.Printf("metric    : %s = %g\n", name, v)
	}
	if len(largest.Result.Seeds) == 0 {
		fatal(fmt.Errorf("no seeds selected before interruption"))
	}

	// Estimation runs under a fresh signal context so a second Ctrl-C
	// still stops the program during a heavyweight evaluation.
	ectx, ecancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer ecancel()
	est, eerr := holisticim.EstimateSpreadContext(ectx, g, largest.Result.Seeds, opts)
	if eerr != nil {
		fatal(eerr)
	}
	fmt.Printf("spread σ(S) at k=%-6d: %.2f (over %d runs)\n", largest.K, est.Spread, est.Runs)
	if *opinions != "" || holisticim.ModelKind(*model).OpinionAware() {
		oest, oerr := holisticim.EstimateOpinionSpreadContext(ectx, g, largest.Result.Seeds, opts)
		if oerr != nil {
			fatal(oerr)
		}
		fmt.Printf("opinion spread σ_o(S)  : %.3f\n", oest.OpinionSpread)
		fmt.Printf("effective spread (λ=%g): %.3f\n", *lambda, oest.EffectiveOpinionSpread(*lambda))
	}
	if err != nil {
		os.Exit(2) // partial outcome is distinguishable for scripts
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "imrun: %v\n", err)
	os.Exit(1)
}
