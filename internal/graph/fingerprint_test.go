package graph

import (
	"bytes"
	"sync"
	"testing"

	"github.com/holisticim/holisticim/internal/rng"
)

func TestFingerprint(t *testing.T) {
	g := ErdosRenyi(200, 800, rng.New(6))
	g.SetUniformProb(0.1)
	fp := g.Fingerprint()

	// Deterministic and clone-stable.
	if g.Fingerprint() != fp {
		t.Fatal("fingerprint not deterministic")
	}
	if g.Clone().Fingerprint() != fp {
		t.Fatal("clone changed the fingerprint")
	}

	// Every parameter layer participates.
	c := g.Clone()
	c.SetUniformProb(0.2)
	if c.Fingerprint() == fp {
		t.Fatal("probability change not detected")
	}
	c = g.Clone()
	c.SetUniformPhi(0.5)
	if c.Fingerprint() == fp {
		t.Fatal("interaction change not detected")
	}
	c = g.Clone()
	c.SetDefaultLTWeights()
	if c.Fingerprint() == fp {
		t.Fatal("LT weight change not detected")
	}
	c = g.Clone()
	c.SetOpinion(7, 0.5)
	if c.Fingerprint() == fp {
		t.Fatal("opinion change not detected")
	}

	// Topology participates.
	if ErdosRenyi(200, 800, rng.New(7)).Fingerprint() == fp {
		t.Fatal("different topology collides")
	}
}

// The fingerprint is memoized in the graph; every way the arrays can
// change afterwards — the eight Set* mutators — must drop the memo, and
// every way a graph comes to be from another must not inherit a stale one.
// Each step hashes first, so a mutator that forgot to clear would return
// the previous value here.
func TestFingerprintMemo(t *testing.T) {
	g := BarabasiAlbert(300, 2, rng.New(4))
	check := func(step string, g *Graph) {
		t.Helper()
		if got, want := g.Fingerprint(), g.hash(); got != want {
			t.Fatalf("%s: Fingerprint() = %016x, the arrays hash to %016x", step, got, want)
		}
		if got, want := g.Fingerprint(), g.hash(); got != want { // now a memo hit
			t.Fatalf("%s: memoized Fingerprint() = %016x, the arrays hash to %016x", step, got, want)
		}
	}
	check("built", g)
	ops := make([]float64, g.NumNodes())
	for i := range ops {
		ops[i] = float64(i%21-10) / 10
	}
	mutators := []struct {
		name string
		do   func()
	}{
		{"SetUniformProb", func() { g.SetUniformProb(0.2) }},
		{"SetWeightedCascadeProb", g.SetWeightedCascadeProb},
		{"SetDefaultLTWeights", g.SetDefaultLTWeights},
		{"SetTrivalencyProb", func() { g.SetTrivalencyProb(nil, 3) }},
		{"SetUniformPhi", func() { g.SetUniformPhi(0.7) }},
		{"SetEdgeParamsFunc", func() {
			g.SetEdgeParamsFunc(func(u, v NodeID) (float64, float64) { return float64(u%10) / 10, float64(v%10) / 10 })
		}},
		{"SetOpinions", func() { g.SetOpinions(ops) }},
		{"SetOpinion", func() { g.SetOpinion(5, -0.25) }},
	}
	for _, m := range mutators {
		before := g.Fingerprint()
		m.do()
		check(m.name, g)
		if g.Fingerprint() == before {
			t.Fatalf("%s left the fingerprint at %016x", m.name, before)
		}
	}

	// Derived graphs: hashed source, then a change to the copy.
	c := g.Clone()
	check("Clone", c)
	c.SetOpinion(1, 0.5)
	check("Clone then SetOpinion", c)
	check("the clone's source", g)
	check("Transpose", g.Transpose())
	sub, _ := g.InducedSubgraph([]NodeID{0, 1, 2, 3, 5, 8, 13, 21})
	check("InducedSubgraph", sub)
	p := 0.5
	check("WithArcEdits", g.WithArcEdits([]ArcEdit{{From: 0, To: g.OutNeighbors(0)[0], P: &p}}, nil))
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	check("ReadBinary", back)
	if back.Fingerprint() != g.Fingerprint() {
		t.Fatal("a binary round trip changed the fingerprint")
	}

	// Concurrent first hashes of one graph agree (and are race-free).
	fresh := g.Clone()
	var wg sync.WaitGroup
	got := make([]uint64, 4)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = fresh.Fingerprint()
		}()
	}
	wg.Wait()
	for _, fp := range got {
		if fp != g.hash() {
			t.Fatalf("concurrent Fingerprint() = %016x, want %016x", fp, g.hash())
		}
	}
}
