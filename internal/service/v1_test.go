package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"github.com/holisticim/holisticim"
)

// TestV1BodiesAreTheSameQuery pins the translation contract of v1.go: a
// /v1/select body and the /v2/query bodies spelling the same request
// (inferred fields omitted, or every default written out) normalize to
// the same Query and therefore share one cache/dedup key. It also pins
// what the cluster router relies on — a v1 body decoded loosely AS a
// QueryRequest is that same query — so one decode keys both routes
// (internal/cluster checks the routing key itself).
func TestV1BodiesAreTheSameQuery(t *testing.T) {
	cases := []struct {
		name string
		v1   string
		v2   []string
	}{
		{"select, defaults",
			`{"graph":"g","algorithm":"imm","k":5}`,
			[]string{
				`{"graph":"g","algorithm":"imm","k":5}`,
				`{"graph":"g","task":"select","algorithm":"imm","ks":[5],
				  "options":{"model":"ic","path_length":3,"lambda":1,"epsilon":0.1,"mc_runs":10000,"seed":1}}`,
			}},
		{"select, opinion-aware algorithm",
			`{"graph":"g","algorithm":"osim","k":7,"options":{"lambda":2,"seed":9},"timeout_ms":50}`,
			[]string{
				`{"graph":"g","algorithm":"osim","ks":[7],"options":{"model":"oi-ic","lambda":2,"seed":9},"timeout_ms":50}`,
			}},
	}
	strict := func(body string, into any) {
		t.Helper()
		dec := json.NewDecoder(bytes.NewReader([]byte(body)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(into); err != nil {
			t.Fatalf("decode %s: %v", body, err)
		}
	}
	normalized := func(req QueryRequest) holisticim.Query {
		t.Helper()
		q, err := req.Query().Normalized()
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	for _, tc := range cases {
		var v1 SelectRequest
		strict(tc.v1, &v1)
		translated := v1.queryRequest()
		want := normalized(translated)
		wantKey := queryKey(translated.Graph, want, 0)

		var loose QueryRequest
		if err := json.Unmarshal([]byte(tc.v1), &loose); err != nil {
			t.Fatal(err)
		}
		if got := normalized(loose); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: v1 body read as a QueryRequest normalizes to\n%+v\nwant\n%+v", tc.name, got, want)
		}
		for _, body := range tc.v2 {
			var req QueryRequest
			strict(body, &req)
			got := normalized(req)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s normalizes to\n%+v\nwant\n%+v", tc.name, body, got, want)
			}
			if key := queryKey(req.Graph, got, 0); key != wantKey {
				t.Errorf("%s: %s keys %q, want %q", tc.name, body, key, wantKey)
			}
			if req.TimeoutMS != translated.TimeoutMS {
				t.Errorf("%s: timeout %d did not survive translation (%d)", tc.name, req.TimeoutMS, translated.TimeoutMS)
			}
		}
	}
}
