package cluster

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"github.com/holisticim/holisticim/internal/service"
)

func TestRingOrderIndependent(t *testing.T) {
	a := NewRing([]string{"http://a", "http://b", "http://c"})
	b := NewRing([]string{"http://c", "http://a", "http://b"})
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("graph%d:ic:e0.1:s0", i)
		if got, want := a.Owners(key, 0), b.Owners(key, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("key %q: owner order differs across configuration orders: %v vs %v", key, got, want)
		}
	}
}

func TestRingOwnersCapped(t *testing.T) {
	r := NewRing([]string{"a", "b", "c", "d"})
	if got := r.Owners("k", 2); len(got) != 2 {
		t.Fatalf("Owners(k,2) = %v, want 2 entries", got)
	}
	if got := r.Owners("k", 0); len(got) != 4 {
		t.Fatalf("Owners(k,0) = %v, want all 4", got)
	}
	if got := r.Owners("k", 99); len(got) != 4 {
		t.Fatalf("Owners(k,99) = %v, want all 4", got)
	}
}

// Removing a replica must only remove it from each key's owner list —
// the relative order of the survivors is unchanged (the minimal-movement
// property that makes rendezvous hashing safe to fail over on).
func TestRingMinimalMovementOnRemoval(t *testing.T) {
	full := NewRing([]string{"a", "b", "c", "d"})
	reduced := NewRing([]string{"a", "b", "d"})
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		var filtered []string
		for _, rep := range full.Owners(key, 0) {
			if rep != "c" {
				filtered = append(filtered, rep)
			}
		}
		if got := reduced.Owners(key, 0); !reflect.DeepEqual(got, filtered) {
			t.Fatalf("key %q: removal reshuffled survivors: %v vs %v", key, got, filtered)
		}
	}
}

// Every replica should be SOME key's primary — rendezvous hashing
// balances keys across the set.
func TestRingSpreadsPrimaries(t *testing.T) {
	replicas := []string{"r0", "r1", "r2"}
	r := NewRing(replicas)
	counts := make(map[string]int)
	const keys = 300
	for i := 0; i < keys; i++ {
		counts[r.Owners(fmt.Sprintf("graph-%d:ic:e0.1:s0", i), 1)[0]]++
	}
	for _, rep := range replicas {
		if counts[rep] == 0 {
			t.Fatalf("replica %s owns no keys out of %d: %v", rep, keys, counts)
		}
		// Loose balance bound: no replica hoards more than 60% of keys.
		if counts[rep] > keys*6/10 {
			t.Fatalf("replica %s owns %d/%d keys — badly skewed: %v", rep, counts[rep], keys, counts)
		}
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(nil)
	if got := r.Owners("k", 3); got != nil {
		t.Fatalf("empty ring owners = %v, want nil", got)
	}
}

// QueryKey must be seed-independent (queries differing only in sampling
// seed share sketch-family affinity) but distinguish graph, semantics
// and epsilon.
func TestQueryKey(t *testing.T) {
	base := QueryKey("soc", "ic", 0.1)
	if QueryKey("soc", "ic", 0.1) != base {
		t.Fatal("QueryKey not deterministic")
	}
	for _, other := range []string{
		QueryKey("hep", "ic", 0.1),
		QueryKey("soc", "lt", 0.1),
		QueryKey("soc", "ic", 0.2),
	} {
		if other == base {
			t.Fatalf("QueryKey collision: %q", other)
		}
	}
	if base != SketchIDOf("soc", "ic", 0.1, 0) {
		t.Fatalf("QueryKey %q does not align with the sketch id family", base)
	}
	// One formatter: manifest ids are the serving registry's ids, byte for
	// byte, in the format replicas and stores already hold on disk.
	if id := SketchIDOf("soc", "oc", 0.25, 7); id != "soc:oc:e0.25:s7" || id != service.SketchID("soc", "oc", 0.25, 7) {
		t.Fatalf("SketchIDOf = %q, registry id %q, want soc:oc:e0.25:s7", id, service.SketchID("soc", "oc", 0.25, 7))
	}
}

// TestQueryKeyOfEquivalentBodies is the router half of the v1-is-a-
// translation contract (internal/service pins the Normalized query and
// cache key): the v1 bodies and the /v2/query bodies spelling the same
// request route by one key, read off the one Normalized query — and an
// invalid query still gets a key, so a replica can be the one to refuse.
func TestQueryKeyOfEquivalentBodies(t *testing.T) {
	cases := []struct {
		name   string
		want   string
		bodies []string // first the v1 body, then its /v2/query spellings
	}{
		{"select, defaults", QueryKey("g", "ic", 0.1), []string{
			`{"graph":"g","algorithm":"imm","k":5}`,
			`{"graph":"g","task":"select","algorithm":"imm","ks":[5],"options":{"model":"ic","epsilon":0.1,"seed":1}}`,
		}},
		{"select, opinion-aware default model samples IC worlds", QueryKey("g", "ic", 0.3), []string{
			`{"graph":"g","algorithm":"osim","k":7,"options":{"epsilon":0.3,"seed":9}}`,
			`{"graph":"g","algorithm":"osim","ks":[7],"options":{"model":"oi-ic","epsilon":0.3}}`,
		}},
		{"estimate, lt", QueryKey("g", "lt", 0.1), []string{
			`{"graph":"g","seeds":[1,2,3],"options":{"model":"lt","mc_runs":200}}`,
			`{"graph":"g","task":"estimate","objective":"spread","seed_sets":[[1,2,3]],"options":{"model":"lt"}}`,
		}},
		{"estimate, opinion sketch semantics", QueryKey("g", "oc", 0.3), []string{
			`{"graph":"g","seeds":[4],"options":{"model":"oc","epsilon":0.3}}`,
			`{"graph":"g","objective":"opinion","seed_sets":[[4]],"options":{"model":"oc","epsilon":0.3}}`,
		}},
		{"invalid query keys by what it did resolve", QueryKey("g", "lt", 0.1), []string{
			`{"graph":"g","algorithm":"quantum","k":3,"options":{"model":"lt"}}`,
		}},
	}
	for _, tc := range cases {
		for _, body := range tc.bodies {
			var req service.QueryRequest
			if err := json.Unmarshal([]byte(body), &req); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if key := queryKeyOf(req); key != tc.want {
				t.Errorf("%s: %s routes by %q, want %q", tc.name, body, key, tc.want)
			}
		}
	}
}
