package main

import (
	"encoding/json"
	"io"
)

// manifest is BENCHMARK.json: what the driver reads to run and gate the
// benchmark. It is generated from the catalog (-manifest) and
// catalog_test.go fails when the committed file drifts from it.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is the timed phase the driver asks for. Sixteen seconds
// give the batch workloads seven to twelve rounds and serve-churn
// sixteen mutation batches, and keep a run — with generation, repeated
// set-up and the oracles — near twenty-three seconds, so the driver's 92
// runs and two builds fit its 57 minutes with a third to spare.
const runSeconds = 16

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadCatalog {
		m.Workloads = append(m.Workloads, manifestWorkload{w.Name, w.Why})
	}
	for _, d := range universalMetrics {
		bound := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, name := range perLayerNames() {
		def, _ := findMetric(name)
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: name, Unit: def.Unit, Better: def.Better})
	}
	return m
}

func writeManifest(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(buildManifest())
}
