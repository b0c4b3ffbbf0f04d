package experiments

import (
	"fmt"
	"sync"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/rng"
)

// DatasetSpec describes one scaled stand-in for a paper dataset (Table 2);
// Datasets lists them with their full and quick sizes.
type DatasetSpec struct {
	Name     string
	PaperN   string // paper's node count, for the notes column
	PaperM   string
	Directed bool
	// Generate builds the graph at the given scale tier.
	Generate func(quick bool, seed uint64) *graph.Graph
}

func baGen(nFull, nQuick int32, mPerNode int) func(bool, uint64) *graph.Graph {
	return func(quick bool, seed uint64) *graph.Graph {
		n := nFull
		if quick {
			n = nQuick
		}
		return graph.BarabasiAlbert(n, mPerNode, rng.New(seed))
	}
}

func rmatGen(nFull, nQuick int32, mFull, mQuick int64, undirected bool) func(bool, uint64) *graph.Graph {
	return func(quick bool, seed uint64) *graph.Graph {
		n, m := nFull, mFull
		if quick {
			n, m = nQuick, mQuick
		}
		return graph.RMAT(n, m, graph.DefaultRMAT, undirected, rng.New(seed))
	}
}

// Datasets is the registry of scaled stand-ins. Undirected datasets are
// expanded to both arcs, per the paper's convention.
var Datasets = map[string]DatasetSpec{
	"nethept": {
		Name: "NetHEPT", PaperN: "15K", PaperM: "62K", Directed: false,
		Generate: baGen(15000, 2000, 2),
	},
	"hepph": {
		Name: "HepPh", PaperN: "12K", PaperM: "237K", Directed: false,
		Generate: baGen(12000, 1500, 10),
	},
	"dblp": {
		Name: "DBLP(1:10)", PaperN: "317K", PaperM: "2.1M", Directed: false,
		Generate: rmatGen(32000, 6000, 210000, 24000, true),
	},
	"youtube": {
		Name: "YouTube(1:20)", PaperN: "1.13M", PaperM: "5.98M", Directed: false,
		Generate: rmatGen(56000, 8000, 300000, 32000, true),
	},
	"soclive": {
		Name: "socLive(1:100)", PaperN: "4.85M", PaperM: "69M", Directed: true,
		Generate: rmatGen(48500, 9000, 690000, 90000, false),
	},
	"orkut": {
		Name: "Orkut(1:200)", PaperN: "3.07M", PaperM: "234M", Directed: false,
		Generate: rmatGen(15400, 3000, 1170000, 150000, true),
	},
	"twitter": {
		Name: "Twitter(1:1000)", PaperN: "41.6M", PaperM: "1.5B", Directed: true,
		Generate: rmatGen(41600, 8000, 1500000, 200000, false),
	},
	"friendster": {
		Name: "Friendster(1:2000)", PaperN: "65.6M", PaperM: "3.6B", Directed: false,
		Generate: rmatGen(32800, 6500, 900000, 180000, true),
	},
	// nethept-mini backs the comparisons against the O(k·n·r·m) greedy
	// baselines, which cannot finish on larger graphs — the very point the
	// paper makes.
	"nethept-mini": {
		Name: "NetHEPT-mini", PaperN: "(greedy-feasible slice)", PaperM: "", Directed: false,
		Generate: baGen(1200, 400, 2),
	},
}

type dsKey struct {
	name  string
	quick bool
	seed  uint64
}

var (
	dsCacheMu sync.Mutex
	dsCache   = map[dsKey]*graph.Graph{}
)

// LoadDataset builds (or returns the cached) topology for a dataset at
// the config's scale tier. Callers always receive a private Clone so
// per-experiment parameter layers never interfere.
func LoadDataset(name string, cfg Config) *graph.Graph {
	spec, ok := Datasets[name]
	if !ok {
		panic(fmt.Sprintf("experiments: unknown dataset %q", name))
	}
	key := dsKey{name, cfg.Quick, cfg.Seed}
	dsCacheMu.Lock()
	g, hit := dsCache[key]
	if !hit {
		g = spec.Generate(cfg.Quick, cfg.Seed^0xD5)
		g.SetDefaultLTWeights()
		dsCache[key] = g
	}
	dsCacheMu.Unlock()
	return g.Clone()
}
