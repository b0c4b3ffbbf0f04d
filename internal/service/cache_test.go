package service

import (
	"fmt"
	"strings"
	"testing"

	"github.com/holisticim/holisticim"
)

func TestCacheHitAndMiss(t *testing.T) {
	c := NewCache(4)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	want := answerOf(SelectResult{Algorithm: "stub", Seeds: []int32{1, 2}})
	c.Add("a", want)
	got, ok := c.Get("a")
	if !ok || got != want {
		t.Fatalf("Get(a) = %v, %v", got, ok)
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", c.Hits(), c.Misses())
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	c := NewCache(2)
	c.Add("a", &QueryAnswer{})
	c.Add("b", &QueryAnswer{})
	c.Get("a") // a becomes most recently used
	c.Add("c", &QueryAnswer{})
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as LRU")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c should be present")
	}
	if c.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", c.Len())
	}
}

func TestCacheRefreshExistingKey(t *testing.T) {
	c := NewCache(2)
	c.Add("a", answerOf(SelectResult{Algorithm: "v1"}))
	c.Add("a", answerOf(SelectResult{Algorithm: "v2"}))
	if c.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", c.Len())
	}
	got, _ := c.Get("a")
	if got.soleResult().Algorithm != "v2" {
		t.Fatalf("refresh kept old value %q", got.soleResult().Algorithm)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(0)
	c.Add("a", &QueryAnswer{})
	if _, ok := c.Get("a"); ok {
		t.Fatal("capacity-0 cache should never hit")
	}
}

// selectKey builds the production cache key for a one-member v1-style
// select, through the same path prepareQuery uses.
func selectKey(graph, alg string, k int, o Options) string {
	q := QueryRequest{Graph: graph, Task: "select", Algorithm: alg, K: k, Options: o}.Query()
	return queryKey(graph, q, 0)
}

// TestFingerprintStability pins the canonicalization contract the cache
// key depends on — via the production queryKey/Query.Fingerprint path:
// defaults resolve before hashing, irrelevant fields are excluded, and
// every relevant field separates keys.
func TestFingerprintStability(t *testing.T) {
	zero := selectKey("g", "easyim", 10, Options{})
	explicit := selectKey("g", "easyim", 10, Options{
		Model: "ic", PathLength: 3, Lambda: 1, Epsilon: 0.1, MCRuns: 10000, Seed: 1,
	})
	if zero != explicit {
		t.Fatalf("zero options %q != explicit defaults %q", zero, explicit)
	}
	if selectKey("g", "easyim", 10, Options{Workers: 8}) != zero {
		t.Fatal("Workers must not affect the fingerprint")
	}
	// Opinion-aware algorithms default to the OI model, so the same zero
	// Options must fingerprint differently under osim.
	if selectKey("g", "osim", 10, Options{}) == zero {
		t.Fatal("algorithm must separate fingerprints")
	}
	// The rebind generation separates keys and leaves the graph prefix
	// as it was.
	genKey := queryKey("g", QueryRequest{Graph: "g", Task: "select", Algorithm: "easyim", K: 10}.Query(), 3)
	if genKey == zero || !strings.HasPrefix(genKey, "graph=g;") {
		t.Fatalf("generation-fenced key %q", genKey)
	}
	variants := []string{
		selectKey("h", "easyim", 10, Options{}),
		selectKey("g", "easyim", 11, Options{}),
		selectKey("g", "easyim", 10, Options{Seed: 2}),
		selectKey("g", "easyim", 10, Options{MCRuns: 500}),
		selectKey("g", "easyim", 10, Options{Model: "lt"}),
		selectKey("g", "easyim", 10, Options{PathLength: 4}),
	}
	seen := map[string]int{zero: -1}
	for i, fp := range variants {
		if prev, dup := seen[fp]; dup {
			t.Fatalf("variant %d collides with %d: %q", i, prev, fp)
		}
		seen[fp] = i
	}
}

// TestFingerprintMatchesLibrary ensures the production cache key and the
// library Query.Fingerprint produce identical canonical strings for a
// single-k select, so out-of-process callers can precompute keys with
// the public API — and so v1 and v2 requests share entries.
func TestFingerprintMatchesLibrary(t *testing.T) {
	o := Options{Model: "oi-ic", Lambda: 2, MCRuns: 300, Seed: 9}
	libFP := holisticim.Query{Algorithm: holisticim.AlgOSIM, K: 5, Options: holisticim.Options{
		Model: "oi-ic", Lambda: 2, MCRuns: 300, Seed: 9,
	}}.Fingerprint()
	want := fmt.Sprintf("graph=g;%s", libFP)
	if got := selectKey("g", "osim", 5, o); got != want {
		t.Fatalf("key %q != %q", got, want)
	}
	// The batch form extends the same canonical family without colliding
	// with any single-k key.
	batch := queryKey("g", QueryRequest{Graph: "g", Task: "select", Algorithm: "osim",
		Ks: []int{5, 10}, Options: o}.Query(), 0)
	if batch == want || !strings.HasPrefix(batch, "graph=g;") {
		t.Fatalf("batch key %q", batch)
	}
}
