package experiments

import (
	"github.com/holisticim/holisticim/internal/core"
	"github.com/holisticim/holisticim/internal/diffusion"
	"github.com/holisticim/holisticim/internal/opinion"
)

func init() {
	register(Experiment{ID: "ablation-policy", Title: "ScoreGREEDY V(a) activation-policy ablation", PaperRef: "Alg. 1 line 11", Run: runAblationPolicy})
	register(Experiment{ID: "ablation-oblivious-seeds", Title: "Cost of opinion-oblivious seeds under MEO", PaperRef: "Sec. 1 motivation", Run: runAblationObliviousSeeds})
}

// runAblationPolicy compares the three V(a) marking policies of
// Algorithm 1 line 11 on spread and selection time.
func runAblationPolicy(cfg Config) []Table {
	t := Table{
		ID:      "ablation-policy",
		Title:   "Activation-policy ablation (NetHEPT, IC, EaSyIM l=3)",
		Columns: []string{"policy", "k", "spread", "time (s)"},
	}
	g := LoadDataset("nethept", cfg)
	m, w, _ := modelFor(g, "IC")
	k := 50
	if cfg.Quick {
		k = 10
	}
	policies := []core.ActivationPolicy{core.PolicyMCMajority, core.PolicyReach, core.PolicySeedOnly}
	for _, pol := range policies {
		sel := core.NewScoreGreedy(core.NewEaSyIM(g, 3, w), core.ScoreGreedyOptions{
			Policy:     pol,
			ProbeModel: diffusion.NewIC(g),
			ProbeRuns:  probeRuns(cfg),
			Seed:       cfg.Seed + 103,
		})
		res := selectK(sel, k)
		t.AddRow(pol.String(), fi(k), f1(evalSpread(m, res.Seeds, cfg)), secs(res.Took.Seconds()))
	}
	t.AddNote("mc-majority trades probe time for better seed diversity; seed-only is fastest")
	return []Table{t}
}

// runAblationObliviousSeeds quantifies the motivation claim: seeds picked
// by opinion-oblivious EaSyIM can even produce negative effective opinion
// spread, while OSIM's stay positive, across λ.
func runAblationObliviousSeeds(cfg Config) []Table {
	t := Table{
		ID:      "ablation-oblivious-seeds",
		Title:   "Effective opinion spread of EaSyIM seeds vs OSIM seeds (NetHEPT, OI)",
		Columns: []string{"λ", "OSIM seeds", "EaSyIM seeds"},
	}
	g := LoadDataset("nethept", cfg)
	prepareOpinion(g, opinion.Polarized, cfg.Seed)
	k := 50
	if cfg.Quick {
		k = 10
	}
	osim := selectK(osimSelector(g, 3, 1, cfg), k)
	easy := selectK(easyimSelector(g, 3, core.WeightProb, cfg), k)
	for _, lambda := range []float64{0, 0.5, 1, 2} {
		t.AddRow(f1(lambda),
			f2(evalOpinion(g, osim.Seeds, lambda, cfg)),
			f2(evalOpinion(g, easy.Seeds, lambda, cfg)))
	}
	t.AddNote("the gap widens with λ: negative activations hurt oblivious seeds most")
	return []Table{t}
}
