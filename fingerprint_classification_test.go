package holisticim

import (
	"reflect"
	"testing"
	"time"
)

// Every field of Query and of the Options it carries must be deliberately
// classified: either it participates in Query.Fingerprint (it can change
// which result a completed run yields) or it is a lifecycle knob (it
// changes when or how a result arrives, never which result). A new field that lands in
// neither set fails this test, forcing the author to make the call —
// an unclassified field silently poisons the serving layer's result
// cache in one direction or the other.
var (
	optionsFingerprinted = map[string]bool{
		"Model": true, "PathLength": true, "Lambda": true, "Epsilon": true,
		"MCRuns": true, "Seed": true, "TIMThetaCap": true,
	}
	optionsLifecycle = map[string]bool{
		"Workers": true, "Progress": true, "Deadline": true, "Sketch": true,
	}
	queryFingerprinted = map[string]bool{
		"Task": true, "Algorithm": true, "Objective": true,
		"K": true, "Ks": true, "SeedSets": true, "Options": true,
	}
	queryLifecycle = map[string]bool{
		"OnMember": true,
	}
)

func checkClassified(t *testing.T, typ reflect.Type, fingerprinted, lifecycle map[string]bool) {
	t.Helper()
	seen := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		seen[name] = true
		in, out := fingerprinted[name], lifecycle[name]
		switch {
		case in && out:
			t.Errorf("%s.%s is classified both fingerprinted and lifecycle-excluded", typ.Name(), name)
		case !in && !out:
			t.Errorf("%s.%s is unclassified: add it to Fingerprint (and this test's fingerprinted set) or document its exclusion as a lifecycle knob", typ.Name(), name)
		}
	}
	for name := range fingerprinted {
		if !seen[name] {
			t.Errorf("classified field %s.%s no longer exists", typ.Name(), name)
		}
	}
	for name := range lifecycle {
		if !seen[name] {
			t.Errorf("classified field %s.%s no longer exists", typ.Name(), name)
		}
	}
}

func TestOptionsFieldsClassified(t *testing.T) {
	checkClassified(t, reflect.TypeOf(Options{}), optionsFingerprinted, optionsLifecycle)
}

func TestQueryFieldsClassified(t *testing.T) {
	checkClassified(t, reflect.TypeOf(Query{}), queryFingerprinted, queryLifecycle)
}

// TestLifecycleFieldsDoNotChangeFingerprint pins the exclusion side
// behaviorally: flipping every lifecycle knob at once must leave the
// fingerprint untouched, for single and batch queries.
func TestLifecycleFieldsDoNotChangeFingerprint(t *testing.T) {
	base := Options{Model: ModelIC, Epsilon: 0.2, Seed: 7, MCRuns: 100}
	tuned := base
	tuned.Workers = 9
	tuned.Progress = func(int, NodeID, time.Duration) {}
	tuned.Deadline = time.Second
	tuned.Sketch = &Sketch{}
	single := func(o Options) string { return Query{Algorithm: AlgIMM, K: 10, Options: o}.Fingerprint() }
	if got, want := single(tuned), single(base); got != want {
		t.Errorf("lifecycle knobs changed the single-k fingerprint:\n got %s\nwant %s", got, want)
	}

	qbase := Query{Task: TaskSelect, Algorithm: AlgIMM, Ks: []int{5, 10}, Options: base}
	qtuned := qbase
	qtuned.Options = tuned
	qtuned.OnMember = func(int, Member) {}
	if got, want := qtuned.Fingerprint(), qbase.Fingerprint(); got != want {
		t.Errorf("lifecycle knobs changed Query fingerprint:\n got %s\nwant %s", got, want)
	}
}

// TestFingerprintedFieldsChangeFingerprint pins the inclusion side: each
// fingerprinted field, varied on the surface where it is operative,
// must move the fingerprint.
func TestFingerprintedFieldsChangeFingerprint(t *testing.T) {
	base := Options{Model: ModelIC, PathLength: 2, Lambda: 2, Epsilon: 0.2, MCRuns: 100, Seed: 7, TIMThetaCap: 5}
	fp := func(o Options) string { return Query{Algorithm: AlgIMM, K: 10, Options: o}.Fingerprint() }
	optCases := []struct {
		field string
		mut   func(*Options)
	}{
		{"Model", func(o *Options) { o.Model = ModelLT }},
		{"PathLength", func(o *Options) { o.PathLength = 9 }},
		{"Lambda", func(o *Options) { o.Lambda = 2.5 }},
		{"Epsilon", func(o *Options) { o.Epsilon = 0.5 }},
		{"MCRuns", func(o *Options) { o.MCRuns = 107 }},
		{"Seed", func(o *Options) { o.Seed = 8 }},
		{"TIMThetaCap", func(o *Options) { o.TIMThetaCap = 12 }},
	}
	for _, c := range optCases {
		o := base
		c.mut(&o)
		if fp(o) == fp(base) {
			t.Errorf("Options.%s did not change the fingerprint", c.field)
		}
	}

	qbase := Query{Task: TaskSelect, Algorithm: AlgIMM, K: 5, Options: base}
	qCases := []struct {
		field string
		mut   func(*Query)
	}{
		{"Task", func(q *Query) { q.Task = TaskEstimate; q.SeedSets = [][]NodeID{{1}} }},
		{"Algorithm", func(q *Query) { q.Algorithm = AlgTIMPlus }},
		{"K", func(q *Query) { q.K = 12 }},
		{"Ks", func(q *Query) { q.Ks = []int{5, 10} }},
		{"Options", func(q *Query) { q.Options.Seed = 8 }},
	}
	for _, c := range qCases {
		q := qbase
		c.mut(&q)
		if q.Fingerprint() == qbase.Fingerprint() {
			t.Errorf("Query.%s did not change the fingerprint", c.field)
		}
	}

	// Objective and SeedSets are operative on the estimate surface.
	ebase := Query{Task: TaskEstimate, Objective: ObjectiveSpread, SeedSets: [][]NodeID{{1, 2}}, Options: base}
	eObj := ebase
	eObj.Objective = ObjectiveOpinion
	if eObj.Fingerprint() == ebase.Fingerprint() {
		t.Error("Query.Objective did not change the estimate fingerprint")
	}
	eSets := ebase
	eSets.SeedSets = [][]NodeID{{1, 3}}
	if eSets.Fingerprint() == ebase.Fingerprint() {
		t.Error("Query.SeedSets did not change the estimate fingerprint")
	}
}
