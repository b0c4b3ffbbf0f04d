package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json is what the driver reads; the catalog is what the
// program prints. They must name the same things.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if got := buildManifest(); !jsonEqual(t, got, m) {
		t.Errorf("BENCHMARK.json differs from the catalog; regenerate it with `bash benchmark/run.sh -manifest > BENCHMARK.json`")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("%s name %q is malformed or used twice", kind, n)
		}
		seen[n] = true
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("%d workloads", len(m.Workloads))
	}
	for _, w := range m.Workloads {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(m.EndToEnd) < 1 || len(m.EndToEnd) > 16 || len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(m.EndToEnd), len(m.PerLayer))
	}
	hasSetup := false
	for _, e := range m.EndToEnd {
		check("end_to_end", e.Name)
		if !unit.MatchString(e.Unit) || e.Bound == nil || *e.Bound <= 0 || *e.Bound > 0.25 {
			t.Errorf("end_to_end %s: unit %q bound %v", e.Name, e.Unit, e.Bound)
		}
		if e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower-better")
	}
	for _, p := range m.PerLayer {
		check("per_layer", p.Name)
		if !unit.MatchString(p.Unit) || p.Bound != nil || (p.Better != "lower" && p.Better != "higher") {
			t.Errorf("per_layer %s: unit %q better %q bound %v", p.Name, p.Unit, p.Better, p.Bound)
		}
	}
}

func jsonEqual(t *testing.T, a, b any) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(ja) == string(jb)
}

func TestEveryWorkloadMetricNamesItsWorkloads(t *testing.T) {
	for _, m := range workloadMetrics {
		if len(m.Workloads) == 0 {
			t.Errorf("%s names no workload: it belongs in universalMetrics", m.Name)
		}
	}
	for _, m := range universalMetrics {
		if m.Workloads != nil || m.Bound == 0 {
			t.Errorf("%s: universal metrics are reported everywhere and carry a bound", m.Name)
		}
	}
}
