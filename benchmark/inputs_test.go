package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"

	"github.com/holisticim/holisticim/internal/live"
)

// Small stand-ins for the input specs: the generators are the same, the
// graphs just take milliseconds.
var testSpecs = []graphSpec{
	{Name: "ba-wc", Stream: 2000, Kind: "ba", Nodes: 600, Deg: 3, Opinions: true},
	{Name: "ba-p10", Stream: 3000, Kind: "ba", Nodes: 300, Deg: 3, Prob: 0.1},
	{Name: "rmat", Stream: 1000, Kind: "rmat", Nodes: 512, Arcs: 3000, Opinions: true},
}

func genAll(t *testing.T, seed uint64) (files map[string][]byte, ops, muts []byte) {
	t.Helper()
	dir := t.TempDir()
	files = map[string][]byte{}
	for _, spec := range testSpecs {
		path, g, err := writeGraph(dir, spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		if files[spec.Name], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		if spec.Name == "ba-wc" {
			pool := genSeedSets(g.NumNodes(), seed)
			ops, _ = json.Marshal(genReadOps(500, seed, pool, sketchSeedFor(seed)))
			muts, _ = json.Marshal(genMutations(g, 8, mutationOps, seed))
		}
	}
	return files, ops, muts
}

func TestSameSeedSameInputs(t *testing.T) {
	f1, ops1, muts1 := genAll(t, 1)
	f2, ops2, muts2 := genAll(t, 1)
	f3, ops3, muts3 := genAll(t, 2)
	for name := range f1 {
		if !bytes.Equal(f1[name], f2[name]) {
			t.Errorf("%s: the same seed wrote different graph files", name)
		}
		if bytes.Equal(f1[name], f3[name]) {
			t.Errorf("%s: seeds 1 and 2 wrote the same graph file", name)
		}
	}
	if !bytes.Equal(ops1, ops2) || !bytes.Equal(muts1, muts2) {
		t.Error("the same seed drew different op lists or mutation batches")
	}
	if bytes.Equal(ops1, ops3) || bytes.Equal(muts1, muts3) {
		t.Error("seeds 1 and 2 drew the same op list or mutation batches")
	}
}

func TestReadOpMixFollowsTheDeclaredShares(t *testing.T) {
	pool := genSeedSets(1000, 3)
	ops := genReadOps(20000, 3, pool, 5)
	count := map[string]int{}
	seeds := map[string]bool{}
	for _, op := range ops {
		count[op.Kind]++
		switch op.Kind {
		case opSelect:
			if len(op.Ks) != 3 || !(minSelectK <= op.Ks[0] && op.Ks[0] < op.Ks[1] && op.Ks[1] < op.Ks[2] && op.Ks[2] <= selectK) {
				t.Fatalf("select budgets %v are not %d<=a<b<c<=%d", op.Ks, minSelectK, selectK)
			}
		case opEaSyIM:
			if seeds[op.Body] {
				t.Fatalf("easyim body repeats, so it would hit the cache: %s", op.Body)
			}
			seeds[op.Body] = true
		}
	}
	for _, m := range mixWeights {
		share := float64(m.weight) / 98
		if got := float64(count[m.kind]) / float64(len(ops)); got < share-0.01 || got > share+0.01 {
			t.Errorf("%s is %.3f of the mix, want %.3f", m.kind, got, share)
		}
	}
}

// Every generated batch must apply: a rejected batch would be a failed
// op in serve-churn.
func TestMutationBatchesApplyInOrder(t *testing.T) {
	g := buildGraph(testSpecs[0], 9)
	lv := live.Wrap(g, live.Options{})
	for i, m := range genMutations(g, 40, mutationOps, 9) {
		if len(m.Ops) != mutationOps {
			t.Fatalf("batch %d has %d ops", i, len(m.Ops))
		}
		if _, err := lv.Apply(context.Background(), toLiveOps(m), live.ApplyOptions{}); err != nil {
			t.Fatalf("batch %d rejected: %v", i, err)
		}
	}
}
