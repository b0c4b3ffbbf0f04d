package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Metric is one reported number. N is the sample count behind it (0 when
// the metric is not a summary of samples) and Pct the percentile it was
// read at (0 when not a percentile).
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Pct   float64 `json:"pct,omitempty"`
}

// WorkloadResult is one run of one workload.
type WorkloadResult struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// GenS is input-generation time, deliberately outside setup_s.
	GenS float64 `json:"gen_s"`
	// Metrics holds the end-to-end metrics (measured with tracing off,
	// also in a traced run: its first stretch runs untraced).
	Metrics map[string]Metric `json:"metrics"`
	// PerLayer, LayerSelfMS and TraceFile are set by traced runs only.
	PerLayer    map[string]Metric  `json:"per_layer,omitempty"`
	LayerSelfMS map[string]float64 `json:"layer_self_ms,omitempty"`
	TraceFile   string             `json:"trace_file,omitempty"`
}

func unitOf(name string) string {
	if m, ok := findMetric(name); ok {
		return m.Unit
	}
	return ""
}

func (r *WorkloadResult) put(name string, v float64, n int, pct float64) {
	r.Metrics[name] = Metric{Value: v, Unit: unitOf(name), N: n, Pct: pct}
}

func (r *WorkloadResult) putLayer(name string, v float64) {
	r.PerLayer[name] = Metric{Value: v, Unit: unitOf(name)}
}

// ResultFile is what -out writes: every run of every workload, so
// -compare can take medians and spreads across runs.
type ResultFile struct {
	Schema string            `json:"schema"`
	Runs   []*WorkloadResult `json:"runs"`
}

const resultSchema = "holisticim-benchmark/1"

func writeResultFile(path string, runs []*WorkloadResult) error {
	data, err := json.MarshalIndent(ResultFile{Schema: resultSchema, Runs: runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*ResultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf ResultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rf.Schema, resultSchema)
	}
	return &rf, nil
}

// printResult writes every metric by name with its unit.
func printResult(w io.Writer, r *WorkloadResult) {
	fmt.Fprintf(w, "== %s  seed=%d seconds=%g traced=%v  ops attempted=%d succeeded=%d failed=%d  gen_s=%.3f\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Attempted, r.Attempted-r.Failed, r.Failed, r.GenS)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	printMetrics(w, "end-to-end", r.Metrics)
	if r.PerLayer != nil {
		printMetrics(w, "per-layer", r.PerLayer)
		layers := make([]string, 0, len(r.LayerSelfMS))
		for l := range r.LayerSelfMS {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Fprintf(w, "   self-time %-28s %14.3f ms\n", l, r.LayerSelfMS[l])
		}
		if r.TraceFile != "" {
			fmt.Fprintf(w, "   spans written to %s\n", r.TraceFile)
		}
	}
}

func printMetrics(w io.Writer, title string, ms map[string]Metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, " %s:\n", title)
	for _, n := range names {
		m := ms[n]
		detail := ""
		if m.Pct > 0 {
			detail = fmt.Sprintf("  (p%g, n=%d)", m.Pct, m.N)
		} else if m.N > 0 {
			detail = fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Fprintf(w, "   %-38s %14.4f %-6s%s\n", n, m.Value, m.Unit, detail)
	}
}

// contractLine renders the one JSON object the driver reads from the
// last line of standard output: the universal end-to-end metrics with
// tracing off, every per-layer metric with tracing on.
func contractLine(r *WorkloadResult) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	if r.Traced {
		for _, name := range perLayerNames() {
			m, ok := r.PerLayer[name]
			if !ok {
				return "", fmt.Errorf("traced run did not report %s", name)
			}
			out.Metrics[name] = value{m.Value, m.Unit}
		}
	} else {
		for _, def := range universalMetrics {
			m, ok := r.Metrics[def.Name]
			if !ok {
				return "", fmt.Errorf("run did not report %s", def.Name)
			}
			out.Metrics[def.Name] = value{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(out)
	return string(b), err
}
