package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"github.com/holisticim/holisticim"
)

// TestV1BodiesAreTheSameQuery pins the translation contract of v1.go: a
// /v1/select or /v1/estimate body and the /v2/query bodies spelling the
// same request (inferred fields omitted, or every default written out)
// normalize to the same Query and therefore share one cache/dedup key.
// It also pins what the cluster router relies on — a v1 body decoded
// loosely AS a QueryRequest is that same query — so one decode keys all
// three routes (internal/cluster checks the routing key itself).
func TestV1BodiesAreTheSameQuery(t *testing.T) {
	cases := []struct {
		name string
		path string // the v1 route the first body belongs to
		v1   string
		v2   []string
	}{
		{"select, defaults", "/v1/select",
			`{"graph":"g","algorithm":"imm","k":5}`,
			[]string{
				`{"graph":"g","algorithm":"imm","k":5}`,
				`{"graph":"g","task":"select","algorithm":"imm","ks":[5],
				  "options":{"model":"ic","path_length":3,"lambda":1,"epsilon":0.1,"mc_runs":10000,"seed":1}}`,
			}},
		{"select, opinion-aware algorithm", "/v1/select",
			`{"graph":"g","algorithm":"osim","k":7,"options":{"lambda":2,"seed":9},"timeout_ms":50}`,
			[]string{
				`{"graph":"g","algorithm":"osim","ks":[7],"options":{"model":"oi-ic","lambda":2,"seed":9},"timeout_ms":50}`,
			}},
		{"estimate, spread", "/v1/estimate",
			`{"graph":"g","seeds":[1,2,3],"options":{"model":"lt","mc_runs":200}}`,
			[]string{
				`{"graph":"g","seeds":[1,2,3],"options":{"model":"lt","mc_runs":200}}`,
				`{"graph":"g","task":"estimate","objective":"spread","seed_sets":[[1,2,3]],"options":{"model":"lt","mc_runs":200}}`,
			}},
		{"estimate, opinion inferred from the model", "/v1/estimate",
			`{"graph":"g","seeds":[4],"options":{"model":"oc","epsilon":0.3}}`,
			[]string{
				`{"graph":"g","objective":"opinion","seed_sets":[[4]],"options":{"model":"oc","epsilon":0.3}}`,
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
		var translated QueryRequest
		if tc.path == "/v1/select" {
			var req SelectRequest
			strict(tc.v1, &req)
			translated = req.queryRequest()
		} else {
			var req EstimateRequest
			strict(tc.v1, &req)
			translated = req.queryRequest()
		}
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
