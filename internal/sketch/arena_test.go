package sketch

import (
	"bytes"
	"context"
	"os"
	"slices"
	"testing"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/live"
	"github.com/holisticim/holisticim/internal/opinion"
	"github.com/holisticim/holisticim/internal/ris"
)

// The files under testdata were written by Save as it was before the RR
// sets moved into the flat arena (v1 for IC, v2 with weights for OC).
// Each must load, answer like a fresh build of the same parameters, and
// re-save to the very same bytes: the on-disk format did not move.
func TestSnapshotGolden(t *testing.T) {
	for _, tc := range []struct {
		file string
		g    *graph.Graph
		kind ris.ModelKind
	}{
		{"testdata/ic_v1.hims", testGraph(t, 200), ris.ModelIC},
		{"testdata/oc_v2.hims", ocTestGraph(t, 200, opinion.Normal), ris.ModelOC},
	} {
		golden, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(bytes.NewReader(golden), tc.g)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		var resaved sizedBuffer
		if err := loaded.Save(&resaved); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resaved.Bytes(), golden) {
			t.Fatalf("%s: load->save changed the bytes (%d -> %d)", tc.file, len(golden), resaved.Len())
		}
		if resaved.reserved != len(golden) {
			t.Fatalf("%s: Save reserved %d bytes for a %d-byte snapshot", tc.file, resaved.reserved, len(golden))
		}
		fresh := mustBuild(t, tc.g, Params{Kind: tc.kind, Epsilon: 0.5, Seed: 5, BuildK: 10})
		var rebuilt bytes.Buffer
		if err := fresh.Save(&rebuilt); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rebuilt.Bytes(), golden) {
			t.Fatalf("%s: a fresh build no longer saves to the golden bytes", tc.file)
		}
		want, err := fresh.Select(context.Background(), 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Select(context.Background(), 10)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Seeds, want.Seeds) {
			t.Fatalf("%s: loaded selects %v, fresh build %v", tc.file, got.Seeds, want.Seeds)
		}
	}
}

// sizedBuffer records the size Save announces to a destination that can
// reserve space.
type sizedBuffer struct {
	bytes.Buffer
	reserved int
}

func (b *sizedBuffer) Grow(n int) {
	b.reserved = n
	b.Buffer.Grow(n)
}

// minFootprint is the arithmetic MemoryFootprint reports when no array
// carries headroom, every byte of it the collection's: 8 bytes per set
// member (arena + inverted index), 4 per set offset, 8 per weight, the
// per-node index offsets, sampler stamps and counters (shared by indexing
// and the plain greedy), the two per-set mark sets (coverage queries, the
// greedy order's), and the order itself with what each prefix covers.
func minFootprint(x *Index) int64 {
	n, sets, members := int(x.g.NumNodes()), x.col.Len(), len(x.col.Members())
	words := func(bits int) int { return (bits + 63) / 64 }
	order := x.col.GreedyLen()
	b := 8*int64(members) + 4*int64(sets+1) + 4*int64(n+1) + 2*4*int64(n)
	b += 2 * 8 * int64(words(sets))
	b += (4 + 8) * int64(order)
	if x.params.Kind.Weighted() {
		b += 8*int64(sets) + 8*int64(n) + 8*int64(words(n)) + 8*int64(order)
	}
	return b
}

// The reported footprint is arithmetic over array sizes after every way
// a sample comes to be: exactly the minimum for a loaded index, and
// within the 1/32 growth headroom of it after a build, a lazy extension
// and a repair.
func TestMemoryFootprintExact(t *testing.T) {
	ctx := context.Background()
	for _, kind := range []ris.ModelKind{ris.ModelIC, ris.ModelOC} {
		g := ocTestGraph(t, 1500, opinion.Normal)
		x := mustBuild(t, g, Params{Kind: kind, Epsilon: 0.3, Seed: 11, BuildK: 4, Workers: 4})
		check := func(step string, x *Index, exact bool) {
			t.Helper()
			// Size the coverage marks and the greedy's counters for the
			// current sample, as the first estimate and the first select
			// served would.
			x.EstimateSpread([]graph.NodeID{1, 2})
			x.col.Greedy(1)
			if kind.Weighted() {
				if _, err := x.EstimateOpinion([]graph.NodeID{1, 2}); err != nil {
					t.Fatal(err)
				}
			}
			got, least := x.MemoryFootprint(), minFootprint(x)
			if got < least || got > least+least/32 || (exact && got != least) {
				t.Fatalf("%v %s: footprint %d, arithmetic says %d (exact: %v)", kind, step, got, least, exact)
			}
			if st := x.Stats(); st.MemoryBytes != got {
				t.Fatalf("%v %s: Stats reports %d bytes, MemoryFootprint %d", kind, step, st.MemoryBytes, got)
			}
		}
		check("build", x, false)

		built := x.Len()
		if _, err := x.Select(ctx, 60); err != nil {
			t.Fatal(err)
		}
		if x.Len() == built {
			t.Fatal("k=60 did not extend the sample; pick parameters that do")
		}
		check("extension", x, false)

		var snap bytes.Buffer
		if err := x.Save(&snap); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&snap, g)
		if err != nil {
			t.Fatal(err)
		}
		check("load", loaded, true)

		lv := live.Wrap(g, live.Options{})
		res, err := lv.Apply(ctx, churnBatch(g, 6, 6, 6), live.ApplyOptions{})
		if err != nil {
			t.Fatal(err)
		}
		st, err := loaded.Repair(ctx, lv.Graph(), res.Dirty, res.Version, RepairOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if st.Changed == 0 {
			t.Fatal("repair changed nothing; pick a batch that does")
		}
		check("repair", loaded, false)
	}
}

// A memoized Select allocates its Result and nothing else, and a sketch
// build allocates per chunk of sampled sets, not per set (1.96 heap
// objects per set before the arena).
func TestSelectAndBuildAllocations(t *testing.T) {
	ctx := context.Background()
	g := testGraph(t, 3000)
	p := Params{Epsilon: 0.3, Seed: 3, BuildK: 20, Workers: 4}
	x := mustBuild(t, g, p)
	if _, err := x.Select(ctx, 20); err != nil {
		t.Fatal(err)
	}
	perSelect := testing.AllocsPerRun(100, func() {
		if _, err := x.Select(ctx, 20); err != nil {
			t.Fatal(err)
		}
	})
	// Its Result: the seed slice's growth steps and the metrics map.
	if perSelect > 20 {
		t.Fatalf("memoized Select makes %.0f allocations over %d sets, want a handful", perSelect, x.Len())
	}

	perBuild := testing.AllocsPerRun(2, func() { mustBuild(t, g, p) })
	if perSet := perBuild / float64(x.Len()); perSet >= 0.1 {
		t.Fatalf("Build makes %.3f heap objects per sampled set (%d sets), want < 0.1", perSet, x.Len())
	}
}
