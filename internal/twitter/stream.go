package twitter

import (
	"fmt"
	"math"
	"sort"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/rng"
)

// Tweet is one record of the simulated crawl: (user, timestamp, tokens).
// Topic is recoverable from the hashtag token, as in the real dataset.
type Tweet struct {
	User  graph.NodeID
	Time  float64 // seconds since epoch start
	Topic int
	Text  []string
}

// Dataset bundles the synthetic crawl: the background follow graph, the
// time-ordered tweet stream, and (for validation only) the latent
// per-topic stances the generator used. Estimation code must not read the
// latent fields; tests use them to measure estimation error, mirroring
// the paper's 3.43%/8.57% figures.
type Dataset struct {
	Background *graph.Graph
	Tweets     []Tweet
	Topics     int
	// Category is the observable topic category (encoded in the hashtag,
	// e.g. "#c2t17" → category 2). History-based opinion estimation uses
	// same-category topics as "related".
	Category []int

	// Latent ground truth (generator internals, exported for tests):
	LatentStance [][]float64 // [topic][user] expressed stance if user tweeted, else NaN
	Originators  [][]graph.NodeID
}

// DatasetOptions configures the generator.
type DatasetOptions struct {
	Users       int32 // background graph size
	AvgFollows  int   // average out-degree of the follow graph
	Topics      int   // number of hashtags
	Categories  int   // topic categories (default 5)
	Originators int   // seeds per topic cascade wave (default 12)
	Waves       int   // bursts per topic, separated by long gaps (default 2)
	TweetLen    int   // tokens per tweet (default 9)
	Seed        uint64
}

func (o *DatasetOptions) normalize() {
	if o.Users < 100 {
		o.Users = 100
	}
	if o.AvgFollows <= 0 {
		o.AvgFollows = 8
	}
	if o.Topics <= 0 {
		o.Topics = 12
	}
	if o.Categories <= 0 {
		o.Categories = 5
	}
	if o.Originators <= 0 {
		o.Originators = 12
	}
	if o.Waves <= 0 {
		o.Waves = 2
	}
	if o.TweetLen <= 0 {
		o.TweetLen = 16
	}
}

// Hashtag returns the observable hashtag of a topic; the category is
// encoded so that estimation can group related topics without touching
// generator internals.
func Hashtag(topic, category int) string {
	return fmt.Sprintf("#c%dt%d", category, topic)
}

// GenerateDataset builds the full synthetic crawl. The cascade dynamics
// follow the OI mechanism — a retweeter's expressed stance mixes its own
// latent opinion with the (possibly sign-flipped) stance of the tweet it
// reacts to — which is precisely the real-world behaviour the paper's
// Figures 5a/5b claim the OI model captures best.
func GenerateDataset(opts DatasetOptions) *Dataset {
	opts.normalize()
	r := rng.New(opts.Seed)

	// Background follow graph: directed R-MAT for realistic skew, with
	// latent per-edge propagation (p) and agreement (ϕ) parameters stored
	// on the graph (they are the generator's ground truth). Agreement is
	// bimodal — dyads mostly agree or mostly disagree persistently — which
	// is the premise that makes ϕ estimable from interaction history
	// (Def. 5) in the first place.
	m := int64(opts.AvgFollows) * int64(opts.Users)
	bg := graph.RMAT(opts.Users, m, graph.DefaultRMAT, false, r)
	bg.SetEdgeParamsFunc(func(u, v graph.NodeID) (p, phi float64) {
		x := r.Float64()
		switch {
		case x < 0.5:
			phi = 0.8 + 0.2*r.Float64() // persistent agreers
		case x < 0.8:
			phi = 0.2 * r.Float64() // persistent disagreers
		default:
			phi = 0.3 + 0.4*r.Float64() // genuinely mixed
		}
		return 0.08 + 0.25*r.Float64(), phi
	})
	bg.SetDefaultLTWeights()

	d := &Dataset{
		Background:   bg,
		Topics:       opts.Topics,
		Category:     make([]int, opts.Topics),
		LatentStance: make([][]float64, opts.Topics),
		Originators:  make([][]graph.NodeID, opts.Topics),
	}

	// Per-user ideology vector: one scalar per category. A user's latent
	// opinion on a topic is its ideology for the topic's category plus a
	// small topic-specific wobble — so same-category topics correlate and
	// the history estimator has signal to exploit.
	ideology := make([][]float64, opts.Categories)
	for c := range ideology {
		ideology[c] = make([]float64, opts.Users)
		for u := range ideology[c] {
			ideology[c][u] = clamp(r.NormFloat64()*0.5, -1, 1)
		}
	}

	now := 0.0
	for topic := 0; topic < opts.Topics; topic++ {
		cat := topic % opts.Categories
		d.Category[topic] = cat
		stance := make([]float64, opts.Users)
		for u := range stance {
			stance[u] = math.NaN()
		}
		latent := make([]float64, opts.Users)
		for u := range latent {
			latent[u] = clamp(ideology[cat][u]+0.25*r.NormFloat64(), -1, 1)
		}

		for wave := 0; wave < opts.Waves; wave++ {
			now += 50000 + r.Float64()*20000 // long inter-wave gap
			// Originators tweet their own latent opinion.
			type pending struct {
				user graph.NodeID
				t    float64
			}
			var queue []pending
			tweeted := make(map[graph.NodeID]bool)
			for i := 0; i < opts.Originators; i++ {
				u := graph.NodeID(r.Int31n(opts.Users))
				if tweeted[u] || bg.OutDegree(u) == 0 {
					continue
				}
				tweeted[u] = true
				ts := now + r.Float64()*600
				stance[u] = latent[u]
				d.emit(u, ts, topic, latent[u], opts.TweetLen, r)
				queue = append(queue, pending{u, ts})
				d.Originators[topic] = append(d.Originators[topic], u)
			}
			// Cascade: followers react with the OI mixing rule.
			for head := 0; head < len(queue); head++ {
				cur := queue[head]
				nbrs := bg.OutNeighbors(cur.user)
				base := bg.OutEdgeBase(cur.user)
				phis := bg.OutPhis(cur.user)
				for i, v := range nbrs {
					if tweeted[v] {
						continue
					}
					if r.Float64() >= bg.ProbAt(base+int64(i)) {
						continue
					}
					tweeted[v] = true
					sign := 1.0
					if r.Float64() >= phis[i] {
						sign = -1
					}
					expressed := (latent[v] + sign*stance[cur.user]) / 2
					stance[v] = expressed
					ts := cur.t + 30 + r.Exp(1.0/180)
					d.emit(v, ts, topic, expressed, opts.TweetLen, r)
					queue = append(queue, pending{v, ts})
				}
			}
		}
		d.LatentStance[topic] = stance
	}
	sort.SliceStable(d.Tweets, func(i, j int) bool { return d.Tweets[i].Time < d.Tweets[j].Time })
	return d
}

func (d *Dataset) emit(u graph.NodeID, ts float64, topic int, stance float64, length int, r *rng.RNG) {
	hashtag := Hashtag(topic, d.Category[topic])
	d.Tweets = append(d.Tweets, Tweet{
		User:  u,
		Time:  ts,
		Topic: topic,
		Text:  ComposeTweet(stance, hashtag, length, r),
	})
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
