package twitter

import (
	"math"
	"sort"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/opinion"
	"github.com/holisticim/holisticim/internal/rng"
)

// TopicGraph is one topic-focused subgraph extracted from the stream: the
// induced piece of the background graph over the users who tweeted in one
// activity burst, with classifier opinions attached.
type TopicGraph struct {
	Topic     int
	Category  int
	StartTime float64
	EndTime   float64
	// BackNodes maps local node ids to background ids.
	BackNodes []graph.NodeID
	// Graph is the induced subgraph over BackNodes (local ids).
	Graph *graph.Graph
	// Opinions holds the classifier's score for each local node's first
	// tweet in the burst — the ground-truth opinion of Sec. 4.1.1.
	Opinions []float64
	// Times holds each local node's first-tweet timestamp in the burst.
	Times []float64
	// Seeds are local ids with in-degree 0 in the burst's tweet order —
	// the information originators.
	Seeds []graph.NodeID
}

// IsSeed reports whether the local node is one of the burst's
// originators.
func (tg *TopicGraph) IsSeed(local graph.NodeID) bool {
	for _, s := range tg.Seeds {
		if s == local {
			return true
		}
	}
	return false
}

// GroundTruthOpinionSpread is Σ of classifier opinions over non-seed
// participants — the quantity Figures 5a/5b compare models against.
func (tg *TopicGraph) GroundTruthOpinionSpread() float64 {
	isSeed := make(map[graph.NodeID]bool, len(tg.Seeds))
	for _, s := range tg.Seeds {
		isSeed[s] = true
	}
	total := 0.0
	for v, o := range tg.Opinions {
		if !isSeed[graph.NodeID(v)] {
			total += o
		}
	}
	return total
}

// ExtractOptions tunes topic-subgraph construction.
type ExtractOptions struct {
	Classifier Classifier
	// GapSigmas sets the burst-splitting threshold at mean + GapSigmas·std
	// of the topic's inter-tweet gaps ("a time difference ... that
	// deviates significantly from the expected"); default 3.
	GapSigmas float64
	Seed      uint64
}

// ExtractTopicGraphs scans the stream once in timestamp order (the paper
// stresses a single scan suffices) and builds topic-focused subgraphs.
// For each topic, consecutive tweets whose gap exceeds the learned
// threshold split the activity into separate subgraphs.
func ExtractTopicGraphs(d *Dataset, opts ExtractOptions) []TopicGraph {
	if opts.GapSigmas <= 0 {
		opts.GapSigmas = 3
	}
	r := rng.New(opts.Seed)

	// Learn, per topic, the inter-arrival threshold from the data.
	gaps := make(map[int][]float64)
	lastSeen := make(map[int]float64)
	for _, tw := range d.Tweets {
		if prev, ok := lastSeen[tw.Topic]; ok {
			gaps[tw.Topic] = append(gaps[tw.Topic], tw.Time-prev)
		}
		lastSeen[tw.Topic] = tw.Time
	}
	threshold := make(map[int]float64)
	for topic, gs := range gaps {
		mean, std := meanStd(gs)
		threshold[topic] = mean + opts.GapSigmas*std
	}

	// Single scan: group tweets into bursts per topic.
	type burst struct {
		topic  int
		tweets []Tweet
	}
	var bursts []burst
	open := make(map[int]int) // topic -> index into bursts
	lastTime := make(map[int]float64)
	for _, tw := range d.Tweets {
		idx, ok := open[tw.Topic]
		if ok && tw.Time-lastTime[tw.Topic] > threshold[tw.Topic] {
			ok = false
		}
		if !ok {
			bursts = append(bursts, burst{topic: tw.Topic})
			idx = len(bursts) - 1
			open[tw.Topic] = idx
		}
		bursts[idx].tweets = append(bursts[idx].tweets, tw)
		lastTime[tw.Topic] = tw.Time
	}

	var out []TopicGraph
	for _, b := range bursts {
		if len(b.tweets) < 3 {
			continue // too small to carry any diffusion signal
		}
		tg := buildTopicGraph(d, b.topic, b.tweets, opts.Classifier, r)
		out = append(out, tg)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartTime < out[j].StartTime })
	return out
}

// buildTopicGraph induces the subgraph over a burst's users, classifies
// their first tweets and identifies originators (in-degree-0 nodes, where
// edges only count arcs from earlier tweeters — the temporal direction of
// information flow).
func buildTopicGraph(d *Dataset, topic int, tweets []Tweet, cls Classifier, r *rng.RNG) TopicGraph {
	first := make(map[graph.NodeID]Tweet)
	var order []graph.NodeID
	for _, tw := range tweets {
		if _, ok := first[tw.User]; !ok {
			first[tw.User] = tw
			order = append(order, tw.User)
		}
	}
	sub, _ := d.Background.InducedSubgraph(order)
	tg := TopicGraph{
		Topic:     topic,
		Category:  d.Category[topic],
		StartTime: tweets[0].Time,
		EndTime:   tweets[len(tweets)-1].Time,
		BackNodes: order,
		Graph:     sub,
		Opinions:  make([]float64, len(order)),
		Times:     make([]float64, len(order)),
	}
	for i, u := range order {
		tg.Opinions[i] = cls.Classify(first[u].Text, r)
		tg.Times[i] = first[u].Time
	}
	// Temporal in-degree: an arc (u,v) of the induced graph is "active"
	// when u tweeted before v; nodes with no active in-arc are seeds.
	hasParent := make([]bool, len(order))
	for li := range order {
		u := graph.NodeID(li)
		tu := first[order[li]].Time
		for _, v := range sub.OutNeighbors(u) {
			if first[order[v]].Time > tu {
				hasParent[v] = true
			}
		}
	}
	for li := range order {
		if !hasParent[li] {
			tg.Seeds = append(tg.Seeds, graph.NodeID(li))
		}
	}
	return tg
}

// EstimateParameters annotates a target topic graph with estimated model
// parameters using ONLY past topic graphs (those ending before the target
// starts): node opinions via the history-weighted average (related =
// same category with weight 1, others 0.3), interaction ϕ via cross-topic
// agreement counts over ALL past topics (Sec. 4.1.1), and influence
// probabilities via follow-through rates. The target graph's edge/opinion
// layers are overwritten in place.
func EstimateParameters(target *TopicGraph, history []TopicGraph) {
	est := opinion.HistoryEstimator{HalfLife: 4}

	// Index history opinions: user -> records; and pairwise agreement.
	//
	// A tweeted opinion is the *expressed* opinion. For a burst's seed it
	// equals the personal opinion; for everyone else it mixes the personal
	// opinion with the activator's stance, o' = (o ± o'_u)/2, so the
	// personal opinion is recovered (in expectation, the interaction term
	// being centred) by doubling — the paper's observation that "tweets of
	// the seed-nodes indeed express their personal opinion, however the
	// tweets of other nodes additionally include the effect of the
	// opinions of their network".
	type obs struct {
		topicIdx int
		category int
		op       float64 // de-biased personal-opinion observation
	}
	byUser := make(map[graph.NodeID][]obs)
	for hi := range history {
		h := &history[hi]
		if h.EndTime >= target.StartTime {
			continue // future data is off-limits
		}
		for li, o := range h.Opinions {
			personal := o
			if !h.IsSeed(graph.NodeID(li)) {
				personal = clamp(2*o, -1, 1)
			}
			u := h.BackNodes[li]
			byUser[u] = append(byUser[u], obs{topicIdx: hi, category: h.Category, op: personal})
		}
	}

	for li, u := range target.BackNodes {
		records := make([]opinion.Record, 0, len(byUser[u]))
		for i, ob := range byUser[u] {
			sim := 0.3
			if ob.category == target.Category {
				sim = 1
			}
			records = append(records, opinion.Record{
				Similarity: sim,
				Age:        float64(len(byUser[u]) - 1 - i),
				Opinion:    ob.op,
			})
		}
		target.Graph.SetOpinion(graph.NodeID(li), est.Estimate(records))
	}

	// Interaction and influence estimation per target edge.
	agree := make(map[[2]graph.NodeID][2]int) // (u,v) -> {agreements, co-occurrences}
	appearances := make(map[graph.NodeID]int)
	followed := make(map[[2]graph.NodeID]int)
	for hi := range history {
		h := &history[hi]
		if h.EndTime >= target.StartTime {
			continue
		}
		for _, u := range h.BackNodes {
			appearances[u]++
		}
		for li := range h.BackNodes {
			u := graph.NodeID(li)
			for _, v := range h.Graph.OutNeighbors(u) {
				bu, bv := h.BackNodes[u], h.BackNodes[v]
				key := [2]graph.NodeID{bu, bv}
				// Agreement only counts polar-vs-polar co-occurrences;
				// neutral classifications carry no orientation.
				if h.Opinions[u] != 0 && h.Opinions[v] != 0 {
					rec := agree[key]
					rec[1]++
					if sameOrientation(h.Opinions[u], h.Opinions[v]) {
						rec[0]++
					}
					agree[key] = rec
				}
				// Follow-through: v reacted after u in this burst.
				if h.Times[v] > h.Times[u] {
					followed[key]++
				}
			}
		}
	}
	g := target.Graph
	var ps, phis []float64 // per arc, in CSR order
	for li := range target.BackNodes {
		u := graph.NodeID(li)
		bu := target.BackNodes[li]
		nbrs := g.OutNeighbors(u)
		for _, v := range nbrs {
			bv := target.BackNodes[v]
			key := [2]graph.NodeID{bu, bv}
			rec := agree[key]
			// Laplace-smoothed agreement rate: pairs co-occur in only a few
			// bursts, so the raw fraction is quantized to {0, 1/2, 1}; the
			// (a+1)/(n+2) posterior mean pulls sparse estimates toward the
			// uninformative 1/2.
			phi := opinion.AgreementInteraction(rec[0]+1, rec[1]+2, 0.5)
			p := 0.1
			if appearances[bu] > 0 {
				p = clamp(float64(followed[key])/float64(appearances[bu]), 0.02, 0.9)
			}
			ps, phis = append(ps, p), append(phis, phi)
		}
	}
	// The func-based setter visits the arcs in the same CSR order and keeps
	// validation in one place.
	arc := 0
	g.SetEdgeParamsFunc(func(_, _ graph.NodeID) (float64, float64) {
		arc++
		return ps[arc-1], phis[arc-1]
	})
	g.SetDefaultLTWeights()
}

func sameOrientation(a, b float64) bool {
	switch {
	case a > 0 && b > 0:
		return true
	case a < 0 && b < 0:
		return true
	case a == 0 && b == 0:
		return true
	default:
		return false
	}
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}
