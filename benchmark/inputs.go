package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/holisticim/holisticim"
	"github.com/holisticim/holisticim/internal/rng"
	"github.com/holisticim/holisticim/internal/service"
)

// Everything the program under test sees is generated here from -seed:
// graph files, sketch snapshots, request bodies and mutation batches.
// The same seed yields byte-identical files and lists (inputs_test.go).

// graphSpec names one input graph regime. README.md records why each
// was chosen and how the sizes relate to the prototype's.
type graphSpec struct {
	Name     string
	Stream   uint64 // sub-stream of the run seed this graph is drawn from
	Kind     string // "ba" | "rmat"
	Nodes    int32
	Deg      int     // ba: edges per new node
	Arcs     int64   // rmat: directed arcs
	Prob     float64 // uniform p; 0 means weighted cascade (p = 1/indeg)
	Opinions bool    // normal opinions + random phi
}

var (
	// Tiny RR sets (~8 nodes): per-set overhead dominates.
	specBAWC = graphSpec{Name: "ba-wc", Stream: 2000, Kind: "ba", Nodes: 10000, Deg: 3, Opinions: true}
	// Supercritical p=0.1: large RR sets, memory bandwidth dominates.
	specBAP10 = graphSpec{Name: "ba-p10", Stream: 3000, Kind: "ba", Nodes: 3000, Deg: 3, Prob: 0.1}
	// Directed, skewed, the largest file: graph IO and score assignment.
	specRMAT = graphSpec{Name: "rmat", Stream: 1000, Kind: "rmat", Nodes: 50000, Arcs: 400000, Opinions: true}
)

const (
	sketchEpsilon = 0.1
	sketchBuildK  = 50
	selectK       = 50
	// minSelectK is the smallest budget the serving mix asks for. IMM's
	// theta(k) is not monotone in k: on ba-wc theta(1) and sometimes
	// theta(2) exceed theta(50), by 3% to 65% depending on the seed, so
	// serving k<3 would grow the sketch lazily and make its size, the
	// select latency and the snapshot load time a property of the seed.
	minSelectK = 5
)

// subSeed derives an independent stream for one input from the run seed.
func subSeed(seed uint64, stream uint64) uint64 { return rng.SplitSeed(seed, stream) }

// sketchSeedFor keeps the sketch's sampling seed small and non-zero so
// it reads well in sketch ids ("g:ic:e0.1:s17").
func sketchSeedFor(seed uint64) uint64 { return subSeed(seed, 100)%1000 + 1 }

// buildGraph draws spec's graph from its own stream of the run seed.
func buildGraph(spec graphSpec, seed uint64) *holisticim.Graph {
	seed = subSeed(seed, spec.Stream)
	var g *holisticim.Graph
	switch spec.Kind {
	case "rmat":
		g = holisticim.GenerateRMAT(spec.Nodes, spec.Arcs, false, subSeed(seed, 1))
	default:
		g = holisticim.GenerateBA(spec.Nodes, spec.Deg, subSeed(seed, 1))
	}
	if spec.Prob > 0 {
		g.SetUniformProb(spec.Prob)
	} else {
		g.SetWeightedCascadeProb()
	}
	if spec.Opinions {
		holisticim.AssignInteractions(g, subSeed(seed, 2))
		holisticim.AssignOpinions(g, holisticim.OpinionNormal, subSeed(seed, 3))
	}
	return g
}

func writeFileWith(path string, write func(w *bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := write(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeGraph generates spec's graph from the run seed into dir and returns the
// file path alongside the in-memory graph (oracles use the latter).
func writeGraph(dir string, spec graphSpec, seed uint64) (string, *holisticim.Graph, error) {
	g := buildGraph(spec, seed)
	path := filepath.Join(dir, spec.Name+".himg")
	err := writeFileWith(path, func(w *bufio.Writer) error { return holisticim.WriteBinaryGraph(w, g) })
	if err != nil {
		return "", nil, fmt.Errorf("write %s: %w", spec.Name, err)
	}
	return path, g, nil
}

func writeSketch(path string, sk *holisticim.Sketch) error {
	return writeFileWith(path, func(w *bufio.Writer) error { return holisticim.WriteSketch(w, sk) })
}

func readGraphFile(path string) (*holisticim.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return holisticim.ReadBinaryGraph(bufio.NewReaderSize(f, 1<<20))
}

func writeJSONFile(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// readOp is one request of the serve-read mix. Ks and Sets are not sent:
// they tell the oracle what the body asked for.
type readOp struct {
	Kind string `json:"kind"`
	Path string `json:"path"`
	Body string `json:"body"`
	Ks   []int  `json:"ks,omitempty"`
	Sets []int  `json:"sets,omitempty"`
}

// Op kinds of the serve-read mix, with their weight by count. The
// weights are the issue's 60/20/8/6/4, which sum to 98 and are drawn as
// parts of 98.
const (
	opSelect   = "select"          // 60: /v2/query imm ks=[a<b<c<=50], IC sketch
	opEstimate = "estimate"        // 20: /v2/query opinion estimate, OC sketch
	opV1Select = "v1select"        // 8: /v1/select imm single k, v1 shim
	opDegree   = "degree-discount" // 6: /v2/query degree-discount, cache hit
	opEaSyIM   = "easyim"          // 4: /v2/query easyim k=5 unique seed, async job
)

var mixWeights = []struct {
	kind   string
	weight int
}{{opSelect, 60}, {opEstimate, 20}, {opV1Select, 8}, {opDegree, 6}, {opEaSyIM, 4}}

// drawKind picks an op kind in proportion to mixWeights.
func drawKind(r *rng.RNG) string {
	total := 0
	for _, m := range mixWeights {
		total += m.weight
	}
	u := r.Intn(total)
	for _, m := range mixWeights {
		if u < m.weight {
			return m.kind
		}
		u -= m.weight
	}
	panic("unreachable: u < total")
}

const (
	graphName    = "g"
	seedSetPool  = 64
	seedSetSize  = 10
	easyimJobK   = 5
	readOpsCount = 1 << 16
)

var degreeKs = []int{10, 25, 50}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs of plain fields cannot fail to marshal
	}
	return string(b)
}

// genSeedSets draws the pool of ten-node seed sets estimate ops pick
// from; a pool (not a fresh set per op) lets the oracle value of every
// set be computed once, outside the timed phase.
func genSeedSets(n int32, seed uint64) [][]int32 {
	r := rng.New(subSeed(seed, 10))
	pool := make([][]int32, seedSetPool)
	for i := range pool {
		seen := make(map[int32]bool, seedSetSize)
		for len(pool[i]) < seedSetSize {
			v := r.Int31n(n)
			if !seen[v] {
				seen[v] = true
				pool[i] = append(pool[i], v)
			}
		}
	}
	return pool
}

func degreeOp(k int) readOp {
	return readOp{Kind: opDegree, Path: "/v2/query", Ks: []int{k},
		Body: mustJSON(service.QueryRequest{Graph: graphName, Algorithm: "degree-discount", K: k})}
}

func drawBudget(r *rng.RNG) int { return minSelectK + r.Intn(selectK-minSelectK+1) }

// genReadOps draws the serve-read request list.
func genReadOps(count int, seed uint64, pool [][]int32, skSeed uint64) []readOp {
	r := rng.New(subSeed(seed, 11))
	sk := service.Options{Epsilon: sketchEpsilon, Seed: skSeed}
	ops := make([]readOp, count)
	for i := range ops {
		switch drawKind(r) {
		case opSelect:
			// Three distinct budgets minSelectK<=a<b<c<=selectK.
			picked := map[int]bool{}
			var ks []int
			for len(ks) < 3 {
				if k := drawBudget(r); !picked[k] {
					picked[k] = true
					ks = append(ks, k)
				}
			}
			sort.Ints(ks)
			ops[i] = readOp{Kind: opSelect, Path: "/v2/query", Ks: ks,
				Body: mustJSON(service.QueryRequest{Graph: graphName, Algorithm: "imm", Ks: ks, Options: sk})}
		case opEstimate:
			members := 1 + r.Intn(3)
			var sets [][]int32
			var idx []int
			for m := 0; m < members; m++ {
				j := r.Intn(len(pool))
				idx = append(idx, j)
				sets = append(sets, pool[j])
			}
			o := sk
			o.Model = "oc"
			ops[i] = readOp{Kind: opEstimate, Path: "/v2/query", Sets: idx,
				Body: mustJSON(service.QueryRequest{Graph: graphName, Task: "estimate", Objective: "opinion", SeedSets: sets, Options: o})}
		case opV1Select:
			k := drawBudget(r)
			ops[i] = readOp{Kind: opV1Select, Path: "/v1/select", Ks: []int{k},
				Body: mustJSON(service.SelectRequest{Graph: graphName, Algorithm: "imm", K: k, Options: sk})}
		case opDegree:
			ops[i] = degreeOp(degreeKs[r.Intn(len(degreeKs))])
		case opEaSyIM:
			// The op index makes options.seed unique, so every one of
			// these misses the cache and runs as an async job.
			ops[i] = readOp{Kind: opEaSyIM, Path: "/v2/query", Ks: []int{easyimJobK},
				Body: mustJSON(service.QueryRequest{Graph: graphName, Algorithm: "easyim", K: easyimJobK,
					Options: service.Options{Seed: uint64(1000 + i)}})}
		}
	}
	return ops
}

// genMutations draws `batches` edge batches of opsPer operations each,
// valid when applied in order to g: adds name absent arcs, removes and
// reweights name present ones, and no arc is touched twice in a batch.
func genMutations(g *holisticim.Graph, batches, opsPer int, seed uint64) []service.MutateRequest {
	r := rng.New(subSeed(seed, 20))
	n := g.NumNodes()
	type arc struct{ u, v int32 }
	var arcs []arc
	at := make(map[arc]int)
	for u := int32(0); u < n; u++ {
		for _, v := range g.OutNeighbors(u) {
			at[arc{u, v}] = len(arcs)
			arcs = append(arcs, arc{u, v})
		}
	}
	fp := func(v float64) *float64 { return &v }
	out := make([]service.MutateRequest, batches)
	for b := range out {
		touched := make(map[arc]bool, opsPer)
		for len(out[b].Ops) < opsPer {
			switch u := r.Intn(10); {
			case u < 4:
				a := arc{r.Int31n(n), r.Int31n(n)}
				if _, ok := at[a]; ok || a.u == a.v || touched[a] {
					continue
				}
				touched[a] = true
				at[a] = len(arcs)
				arcs = append(arcs, a)
				out[b].Ops = append(out[b].Ops, service.EdgeOpSpec{Op: "add", From: a.u, To: a.v,
					P: fp(r.Range(0.01, 0.3)), Phi: fp(r.Float64())})
			case u < 7:
				i := r.Intn(len(arcs))
				a := arcs[i]
				if touched[a] {
					continue
				}
				touched[a] = true
				last := arcs[len(arcs)-1]
				arcs[i] = last
				at[last] = i
				arcs = arcs[:len(arcs)-1]
				delete(at, a)
				out[b].Ops = append(out[b].Ops, service.EdgeOpSpec{Op: "remove", From: a.u, To: a.v})
			default:
				a := arcs[r.Intn(len(arcs))]
				if touched[a] {
					continue
				}
				touched[a] = true
				out[b].Ops = append(out[b].Ops, service.EdgeOpSpec{Op: "reweight", From: a.u, To: a.v,
					P: fp(r.Range(0.01, 0.3))})
			}
		}
	}
	return out
}
