package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	info := metricDef{Name: "gen_late_p99_ms", Better: "lower"}
	cases := []struct {
		name      string
		def       metricDef
		base, cur []float64
		want      string
	}{
		{"within bound", lower, []float64{100, 101, 99}, []float64{105, 106, 104}, "ok"},
		{"slower than bound", lower, []float64{100, 101, 99}, []float64{115, 116, 114}, "regressed"},
		{"faster", lower, []float64{100, 101, 99}, []float64{50, 51, 49}, "ok"},
		{"throughput drop", higher, []float64{1000, 1010, 990}, []float64{850, 860, 840}, "regressed"},
		{"throughput gain", higher, []float64{1000, 1010, 990}, []float64{1300, 1310, 1290}, "ok"},
		{"spread wider than bound", lower, []float64{80, 100, 120, 140}, []float64{90, 110, 130, 150}, "unresolved"},
		{"wide spread but every run better", lower, []float64{80, 100, 120, 140}, []float64{40, 50, 60, 70}, "ok"},
		{"no bound", info, []float64{1}, []float64{30}, "info"},
	}
	for _, c := range cases {
		if got := judge(c.def, c.base, c.cur).Status; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSuggestBound(t *testing.T) {
	for _, c := range []struct{ spread, want float64 }{
		{0.01, 0.10}, {0.05, 0.15}, {0.10, 0.25}, {0.13, 0},
	} {
		if got := suggestBound(c.spread); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("suggestBound(%v) = %v, want %v", c.spread, got, c.want)
		}
	}
}

func TestCompareFilesExitsNonZeroOnRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		r := sampleResult(false)
		r.put("op_p50_ms", p50, 100, 50)
		path := filepath.Join(dir, name)
		if err := writeResultFile(path, []*WorkloadResult{r}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("a.json", 1.0), write("b.json", 1.05), write("c.json", 1.5)
	var out bytes.Buffer
	if code := compareFiles(&out, base, same); code != 0 {
		t.Errorf("5%% slower exited %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, base, slow); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("50%% slower exited %d:\n%s", code, out.String())
	}
	// One row per metric x workload the files share.
	if rows := strings.Count(out.String(), wlRead); rows != len(endToEndFor(wlRead)) {
		t.Errorf("%d rows for %s, want %d", rows, wlRead, len(endToEndFor(wlRead)))
	}
}
