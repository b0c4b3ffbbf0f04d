package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := `# comment
0 1 0.5 0.7
1 2
2 0 0.25
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("size %d/%d", g.NumNodes(), g.NumEdges())
	}
	if p, _ := g.EdgeProb(0, 1); p != 0.5 {
		t.Fatalf("p(0,1)=%v", p)
	}
	if phi, _ := g.EdgePhi(0, 1); phi != 0.7 {
		t.Fatalf("phi(0,1)=%v", phi)
	}
	if p, _ := g.EdgeProb(1, 2); p != 0 {
		t.Fatalf("default p should be 0, got %v", p)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",            // too few fields
		"0 1 2 3 4\n",    // too many fields
		"a 1\n",          // bad id
		"0 -1\n",         // negative id
		"0 1 1.5\n",      // p out of range
		"0 1 0.5 -0.1\n", // phi out of range
	}
	for _, c := range cases {
		if _, err := ReadEdgeList(strings.NewReader(c)); err == nil {
			t.Fatalf("input %q: expected error", c)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdgeP(0, 1, 0.125, 0.5)
	b.AddEdgeP(1, 2, 0.0625, 0.75)
	b.AddEdgeP(3, 0, 1, 0)
	g := b.Build()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round-trip changed size: %d/%d", g2.NumNodes(), g2.NumEdges())
	}
	for u := NodeID(0); u < g.NumNodes(); u++ {
		nbrs := g.OutNeighbors(u)
		for i, v := range nbrs {
			p1 := g.ProbAt(g.OutEdgeBase(u) + int64(i))
			p2, ok := g2.EdgeProb(u, v)
			if !ok || p1 != p2 {
				t.Fatalf("edge (%d,%d) p %v vs %v", u, v, p1, p2)
			}
			f1 := g.OutPhis(u)[i]
			f2, _ := g2.EdgePhi(u, v)
			if f1 != f2 {
				t.Fatalf("edge (%d,%d) phi %v vs %v", u, v, f1, f2)
			}
		}
	}
}
