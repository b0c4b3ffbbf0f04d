// Package twitter simulates the paper's Twitter study (Sec. 4.1.1)
// end-to-end on synthetic data: a generative tweet stream over a
// background follow graph, a lexicon-based sentiment classifier standing
// in for the commercial APIs the paper used, topic-focused subgraph
// extraction with a learned inter-arrival threshold, opinion/interaction
// parameter estimation from history, and ground-truth opinion-spread
// replay.
package twitter

import (
	"strings"

	"github.com/holisticim/holisticim/internal/rng"
)

// Sentiment lexicons. The generator samples tweet tokens from these
// according to the author's latent stance; the classifier recovers the
// stance by counting. Both sides see only the token lists, so the
// classifier is a genuine (if simple) model of the paper's hierarchical
// neutral→polarity pipeline.
var (
	positiveWords = []string{
		"love", "great", "awesome", "amazing", "fantastic", "excellent",
		"happy", "win", "best", "brilliant", "cool", "enjoy", "good",
		"impressive", "like", "nice", "perfect", "recommend", "smooth",
		"solid", "stunning", "superb", "sweet", "thrilled", "wonderful",
		"worthy", "yes", "beautiful", "delight", "fast",
	}
	negativeWords = []string{
		"hate", "terrible", "awful", "horrible", "worst", "bad",
		"broken", "bug", "crash", "disappointed", "fail", "garbage",
		"lag", "mess", "no", "poor", "problem", "regret", "sad",
		"slow", "sucks", "trash", "ugly", "useless", "waste",
		"weak", "wrong", "angry", "annoying", "boring",
	}
	neutralWords = []string{
		"today", "people", "time", "thing", "new", "just", "really",
		"think", "know", "make", "see", "look", "going", "still",
		"phone", "update", "release", "version", "news", "watch",
		"read", "talk", "show", "week", "day", "year", "start",
		"end", "first", "next",
	}
)

// Classifier is a two-stage lexicon sentiment model: stage one decides
// neutral vs polar from the fraction of polar tokens; stage two scores
// polarity as (pos−neg)/(pos+neg), mapped to [−1,1]. Noise (label
// flips / attenuation) can be injected to emulate real classifier error.
type Classifier struct {
	// NeutralCut is the minimum polar-token fraction for a tweet to be
	// considered non-neutral (default 0.12).
	NeutralCut float64
	// Noise adds a uniform ±Noise perturbation to non-neutral scores,
	// clamped to [−1,1]. Zero means a deterministic classifier.
	Noise float64
	// Seed drives the noise stream.
	Seed uint64
}

// Classify scores a whitespace-tokenized tweet. The optional rng is only
// consulted when Noise > 0; pass nil for the deterministic path.
func (c Classifier) Classify(tokens []string, r *rng.RNG) float64 {
	pos, neg, total := 0, 0, 0
	for _, tok := range tokens {
		if strings.HasPrefix(tok, "#") {
			continue // hashtags carry topic, not sentiment
		}
		total++
		if inLexicon(positiveWords, tok) {
			pos++
		} else if inLexicon(negativeWords, tok) {
			neg++
		}
	}
	if total == 0 {
		return 0
	}
	cut := c.NeutralCut
	if cut <= 0 {
		cut = 0.12
	}
	polarFrac := float64(pos+neg) / float64(total)
	if polarFrac < cut || pos == neg {
		return 0
	}
	score := float64(pos-neg) / float64(pos+neg)
	if c.Noise > 0 && r != nil {
		score += r.Range(-c.Noise, c.Noise)
	}
	if score > 1 {
		score = 1
	}
	if score < -1 {
		score = -1
	}
	return score
}

func inLexicon(lex []string, tok string) bool {
	for _, w := range lex {
		if w == tok {
			return true
		}
	}
	return false
}

// ComposeTweet generates tokens expressing the given stance about the
// topic hashtag. A fixed fraction of tokens is polar; among the polar
// tokens the positive share is (1+stance)/2, so the classifier's
// (pos−neg)/(pos+neg) ratio is an unbiased (binomially noisy) estimate of
// the stance — magnitude included, not just orientation.
func ComposeTweet(stance float64, hashtag string, length int, r *rng.RNG) []string {
	if length < 3 {
		length = 3
	}
	tokens := make([]string, 0, length+1)
	tokens = append(tokens, hashtag)
	const polarFrac = 0.55
	posShare := (1 + stance) / 2
	for i := 0; i < length; i++ {
		if r.Float64() < polarFrac {
			if r.Float64() < posShare {
				tokens = append(tokens, positiveWords[r.Intn(len(positiveWords))])
			} else {
				tokens = append(tokens, negativeWords[r.Intn(len(negativeWords))])
			}
		} else {
			tokens = append(tokens, neutralWords[r.Intn(len(neutralWords))])
		}
	}
	return tokens
}
