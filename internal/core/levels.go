package core

import (
	"context"
	"fmt"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/par"
)

// LevelScorer is a Scorer that keeps its l per-level arrays between calls,
// so that excluding a few more nodes costs the rows that can change instead
// of a whole pass. EaSyIM and OSIM are the two implementations, and the
// only scorers ScoreGreedy runs over; PathUnion and LiveEdgeEnsemble stay
// Assign-only references.
type LevelScorer interface {
	Scorer
	// Exclude grows the excluded set that the last Assign or Exclude left
	// by newly (distinct nodes, none excluded yet) and brings scores — the
	// array that call filled — up to date: bit for bit what a fresh
	// Assign over the grown mask would write.
	Exclude(newly []graph.NodeID, scores []float64)
	// Work reports the rows re-summed and arcs read since the last Assign
	// began, and the bytes of state kept, scores excluded.
	Work() (rows, arcs, stateBytes int64)
}

// levelKernel is the part of a level scorer that knows its recurrence.
// Level i of a row is a sum over the row's out-arcs of level i−1
// *contributions* — what a neighbour adds to whoever reads it, all zero once
// it is excluded — so the kernel has no per-arc branch on the mask.
type levelKernel interface {
	// reset writes every node's level-0 contribution as if none were excluded.
	reset()
	// drop zeroes v's contribution at every level.
	drop(v graph.NodeID)
	// sweep re-sums level i, whole rows in CSR order, over rows — every
	// row when rows is nil, through levels.dense — writing level l into
	// scores. Given rows, it appends to changed those whose level-i
	// contribution moved.
	sweep(i int, rows []graph.NodeID, scores []float64, changed []graph.NodeID) []graph.NodeID
}

// levels is what EaSyIM and OSIM embed, and through it implement
// LevelScorer: the excluded mask and, per Exclude, which rows of which level
// are dirty.
type levels struct {
	k           levelKernel // the embedding scorer
	name        string
	g           *graph.Graph
	l           int
	weight      EdgeWeight
	gone        []bool
	kernelBytes int64 // k's per-level arrays
	workers     int   // goroutines of a dense sweep, as par.Workers resolves it

	listed         []bool // listed[u]: u is on dirty; all false between levels
	dirty, changed []graph.NodeID

	rows, arcs int64
}

func newLevels(k levelKernel, name string, g *graph.Graph, l int, weight EdgeWeight, floatsPerNode int) levels {
	if l < 1 {
		panic(fmt.Sprintf("core: %s path length l=%d must be >= 1", name, l))
	}
	n := g.NumNodes()
	return levels{k: k, name: name, g: g, l: l, weight: weight, gone: make([]bool, n), listed: make([]bool, n),
		kernelBytes: 8 * int64(floatsPerNode) * int64(n)}
}

// Name implements Scorer.
func (s *levels) Name() string { return s.name }

// Graph implements Scorer.
func (s *levels) Graph() *graph.Graph { return s.g }

// PathLength returns l.
func (s *levels) PathLength() int { return s.l }

// SetWorkers bounds the goroutines a sweep of every row is split over (see
// dense); w <= 0, the default, means GOMAXPROCS. Scores do not depend on it.
func (s *levels) SetWorkers(w int) { s.workers = w }

// sweepChunk is the number of consecutive rows a worker claims per atomic
// fetch: large enough that the counter is off the hot path, small enough
// that the hub rows an R-MAT packs into its lowest ids cannot leave one
// worker holding most of the arcs.
const sweepChunk = 1024

// sweepGrain is the arc count below which a sweep of every row stays on the
// caller. Measured on the two-core reference box (R-MAT, 8 arcs a node, the
// helper woken from idle as it is after a probe; starting and joining it is
// 10–15 µs): two workers finish a 26k-arc sweep no sooner than one, a 54k-arc
// sweep 14% sooner, 110k 30%, 450k 40% — and a serving job should not take
// the core of the request beside it for a seventh of a 0.2 ms sweep.
const sweepGrain = 1 << 17

// dense runs body over every row, sweepChunk rows at a time, through
// par.For: on the caller alone when the graph is under sweepGrain. body
// sums each row whole, in CSR order, into slots only that row owns, and
// reads nothing a sweep of the same level writes, so what it leaves is the
// same bits at any worker count.
func (s *levels) dense(body func(lo, hi int)) {
	workers := s.workers
	if s.g.NumEdges() < sweepGrain {
		workers = 1
	}
	par.For(context.Background(), len(s.gone), sweepChunk, workers, func(_, lo, hi int) { body(lo, hi) })
}

// Assign implements Scorer. It is the full pass — the kernel with every row
// of every level dirty — whatever state earlier calls left.
func (s *levels) Assign(excluded []bool, out []float64) []float64 {
	if out == nil {
		out = make([]float64, len(s.gone))
	}
	s.k.reset()
	for v := range s.gone {
		if s.gone[v] = excluded != nil && excluded[v]; s.gone[v] {
			s.k.drop(graph.NodeID(v))
		}
	}
	for i := 1; i <= s.l; i++ {
		s.k.sweep(i, nil, out, nil)
	}
	s.rows, s.arcs = int64(s.l)*int64(len(s.gone)), int64(s.l)*s.g.NumEdges()
	return out
}

// Exclude implements LevelScorer: the pass after a pick. Excluding v zeroes
// v's contribution at every level, so v's in-neighbours are dirty at every
// level; beyond them, level i is dirty exactly where a row reads a level i−1
// contribution that moved. Each dirty row is re-summed whole, so no float
// sum is ever reordered. Every in-arc of a node that moved is an arc of a
// dirty row — usually one of many, and a hub's few-hop reverse ball is most
// of the graph — so once those in-arcs alone pass m/8, listing the dirty
// rows and visiting them out of order costs more than sweeping, and this
// level and the ones above it sweep every row.
func (s *levels) Exclude(newly []graph.NodeID, scores []float64) {
	for _, v := range newly {
		s.gone[v] = true
		scores[v] = negInf
		s.k.drop(v)
	}
	n, m := int64(len(s.gone)), s.g.NumEdges()
	moved, changed, dense := degrees(s.g.InDegree, newly), s.changed[:0], false
	for i := 1; i <= s.l; i++ {
		if dense = dense || 8*(moved+degrees(s.g.InDegree, changed)) > m; dense {
			s.k.sweep(i, nil, scores, nil)
			s.rows, s.arcs = s.rows+n, s.arcs+m
			continue
		}
		s.dirty = s.readers(s.readers(s.dirty[:0], newly), changed)
		changed = s.k.sweep(i, s.dirty, scores, changed[:0])
		s.rows, s.arcs = s.rows+int64(len(s.dirty)), s.arcs+degrees(s.g.OutDegree, s.dirty)
		for _, u := range s.dirty {
			s.listed[u] = false
		}
	}
	s.changed = changed
}

// degrees sums degree over nodes.
func degrees(degree func(graph.NodeID) int32, nodes []graph.NodeID) (sum int64) {
	for _, v := range nodes {
		sum += int64(degree(v))
	}
	return sum
}

// readers appends to list the live in-neighbours of srcs not yet listed.
func (s *levels) readers(list, srcs []graph.NodeID) []graph.NodeID {
	for _, v := range srcs {
		for _, u := range s.g.InNeighbors(v) {
			if !s.listed[u] && !s.gone[u] {
				s.listed[u] = true
				list = append(list, u)
			}
		}
	}
	return list
}

// Work implements LevelScorer.
func (s *levels) Work() (rows, arcs, stateBytes int64) {
	lists := int64(cap(s.dirty) + cap(s.changed))
	return s.rows, s.arcs, s.kernelBytes + int64(len(s.gone)+len(s.listed)) + 4*lists
}
