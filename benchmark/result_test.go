package main

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"
)

func sampleResult(traced bool) *WorkloadResult {
	r := &WorkloadResult{Workload: wlRead, Seed: 7, Seconds: 12, Traced: traced, Correct: true,
		Attempted: 100, GenS: 1.25, Metrics: map[string]Metric{}}
	for i, m := range endToEndFor(wlRead) {
		r.put(m.Name, float64(i)+0.5, 10*i, 0)
	}
	if traced {
		r.PerLayer = map[string]Metric{}
		for i, name := range perLayerNames() {
			r.putLayer(name, float64(i))
		}
		r.LayerSelfMS = map[string]float64{"service": 3.5}
	}
	return r
}

func TestResultFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "result.json")
	want := []*WorkloadResult{sampleResult(false), sampleResult(true)}
	if err := writeResultFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := readResultFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Runs, want) {
		t.Errorf("round trip changed the runs:\n got %+v\nwant %+v", got.Runs[0], want[0])
	}
}

func TestContractLineHasExactlyTheDeclaredMetrics(t *testing.T) {
	for _, traced := range []bool{false, true} {
		line, err := contractLine(sampleResult(traced))
		if err != nil {
			t.Fatal(err)
		}
		var obj map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatal(err)
		}
		if len(obj) != 4 {
			t.Errorf("traced=%v: top-level keys %v, want correct, attempted, failed, metrics", traced, obj)
		}
		var metrics map[string]struct {
			Value *float64
			Unit  string
		}
		if err := json.Unmarshal(obj["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		var want []string
		if traced {
			want = perLayerNames()
		} else {
			for _, m := range universalMetrics {
				want = append(want, m.Name)
			}
		}
		if len(metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(metrics), len(want))
		}
		for _, name := range want {
			if m, ok := metrics[name]; !ok || m.Value == nil || m.Unit == "" {
				t.Errorf("traced=%v: metric %s missing a value or unit: %+v", traced, name, m)
			}
		}
	}
}

func TestContractLineRefusesAMissingMetric(t *testing.T) {
	r := sampleResult(false)
	delete(r.Metrics, "setup_s")
	if _, err := contractLine(r); err == nil {
		t.Error("a run without setup_s produced a result line")
	}
}
