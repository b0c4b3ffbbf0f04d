// Package datasets exposes the repository's synthetic dataset generators
// and the two real-world-study pipelines of the paper's Section 4 (the
// Twitter topic study and the PAKDD churn study) behind a small public
// API, so example programs and downstream users can reproduce the
// evaluation without reaching into internal packages.
package datasets

import (
	"fmt"
	"sort"

	"github.com/holisticim/holisticim"
	"github.com/holisticim/holisticim/internal/churn"
	"github.com/holisticim/holisticim/internal/experiments"
	"github.com/holisticim/holisticim/internal/twitter"
)

// Names returns the registered Table-2 stand-in dataset names.
func Names() []string {
	out := make([]string, 0, len(experiments.Datasets))
	for name := range experiments.Datasets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Load builds the named scaled stand-in dataset (sizes in experiments.Datasets).
// quick selects the reduced tier used by tests and benchmarks.
func Load(name string, quick bool, seed uint64) (*holisticim.Graph, error) {
	if _, ok := experiments.Datasets[name]; !ok {
		return nil, fmt.Errorf("datasets: unknown dataset %q (have %v)", name, Names())
	}
	return experiments.LoadDataset(name, experiments.Config{Quick: quick, Seed: seed}), nil
}

// ChurnOptions configures the churn pipeline (Sec. 4.1.2).
type ChurnOptions struct {
	Customers           int     // default 2000
	SimilarityThreshold float64 // default 0.88
	MaxDegree           int     // default 30
	Seed                uint64
}

// ChurnStudy is the assembled churn pipeline output.
type ChurnStudy struct {
	// Graph is the similarity graph with churn affinities installed as
	// node opinions (−1 ≈ churner) and similarity as influence
	// probability.
	Graph *holisticim.Graph
	// Churned flags the ground-truth label per node.
	Churned []bool
}

// BuildChurnStudy runs the full Sec.-4.1.2 pipeline: synthetic customer
// table → similarity graph → label propagation → opinions.
func BuildChurnStudy(opts ChurnOptions) *ChurnStudy {
	if opts.Customers <= 0 {
		opts.Customers = 2000
	}
	if opts.SimilarityThreshold <= 0 {
		opts.SimilarityThreshold = 0.88
	}
	if opts.MaxDegree <= 0 {
		opts.MaxDegree = 30
	}
	g, customers := churn.BuildChurnGraph(
		churn.CustomerOptions{Customers: opts.Customers, Seed: opts.Seed},
		churn.SimilarityOptions{Threshold: opts.SimilarityThreshold, MaxDegree: opts.MaxDegree, Seed: opts.Seed + 1},
		churn.LabelPropOptions{},
	)
	labels := make([]bool, len(customers))
	for i := range customers {
		labels[i] = customers[i].Churned
	}
	return &ChurnStudy{Graph: g, Churned: labels}
}

// TwitterOptions configures the Twitter study pipeline (Sec. 4.1.1).
type TwitterOptions struct {
	Users  int32 // default 3000
	Topics int   // default 12
	Seed   uint64
}

// TopicSummary describes one extracted topic-focused subgraph with its
// per-model opinion-spread predictions against ground truth.
type TopicSummary struct {
	Topic       int
	Nodes       int
	Seeds       int
	GroundTruth float64
	PredIC      float64
	PredOC      float64
	PredOI      float64
}

// TwitterStudy is the assembled Twitter pipeline output.
type TwitterStudy struct {
	// Background is the follow graph with history-estimated opinions.
	Background *holisticim.Graph
	// Topics summarizes every evaluated topic subgraph.
	Topics []TopicSummary
	// NRMSEIC/NRMSEOC/NRMSEOI are the normalized RMS errors (%) of each
	// model's predictions against ground truth (Figure 5b's quantities).
	NRMSEIC, NRMSEOC, NRMSEOI float64
}

// BuildTwitterStudy runs the full Sec.-4.1.1 pipeline: synthetic tweet
// stream → sentiment classification → topic-subgraph extraction →
// parameter estimation → per-model prediction vs ground truth.
func BuildTwitterStudy(opts TwitterOptions) *TwitterStudy {
	if opts.Users <= 0 {
		opts.Users = 3000
	}
	if opts.Topics <= 0 {
		opts.Topics = 12
	}
	d := twitter.GenerateDataset(twitter.DatasetOptions{
		Users: opts.Users, Topics: opts.Topics, Seed: opts.Seed,
	})
	tgs := twitter.ExtractTopicGraphs(d, twitter.ExtractOptions{Seed: opts.Seed + 1})
	study := &TwitterStudy{Background: d.Background}
	var icP, ocP, oiP, gts []float64
	const runs = 500
	for i := range tgs {
		tg := &tgs[i]
		if i == 0 || len(tg.BackNodes) < 10 {
			continue
		}
		twitter.EstimateParameters(tg, tgs[:i])
		gt := tg.GroundTruthOpinionSpread()
		sum := TopicSummary{
			Topic:       tg.Topic,
			Nodes:       len(tg.BackNodes),
			Seeds:       len(tg.Seeds),
			GroundTruth: gt,
			PredIC:      twitter.PredictOpinionSpread(tg, twitter.ModelIC, runs, opts.Seed+2),
			PredOC:      twitter.PredictOpinionSpread(tg, twitter.ModelOC, runs, opts.Seed+2),
			PredOI:      twitter.PredictOpinionSpread(tg, twitter.ModelOI, runs, opts.Seed+2),
		}
		study.Topics = append(study.Topics, sum)
		icP = append(icP, sum.PredIC)
		ocP = append(ocP, sum.PredOC)
		oiP = append(oiP, sum.PredOI)
		gts = append(gts, gt)
	}
	if len(gts) > 0 {
		study.NRMSEIC = twitter.NRMSE(icP, gts)
		study.NRMSEOC = twitter.NRMSE(ocP, gts)
		study.NRMSEOI = twitter.NRMSE(oiP, gts)
	}
	return study
}
