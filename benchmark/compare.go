package main

import (
	"fmt"
	"io"
	"sort"
)

// Bounds are calibrated from repeated runs: three times the measured
// spread (so a spread stays below a third of its bound), at least 10%,
// at most 25%. A metric whose spread alone exceeds demoteSpread is
// demoted to informational instead of being given a wider bound.
const (
	minBound     = 0.10
	maxBound     = 0.25
	demoteSpread = 0.12
)

// series gathers one metric's values across the runs of one workload.
type series map[string]map[string][]float64 // workload -> metric -> values

func collect(rf *ResultFile) series {
	s := series{}
	for _, r := range rf.Runs {
		if s[r.Workload] == nil {
			s[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			s[r.Workload][name] = append(s[r.Workload][name], m.Value)
		}
	}
	return s
}

func median(v []float64) float64 { return samples(v).median() }

// verdict is one row of the comparison.
type verdict struct {
	Workload, Metric string
	Base, New        float64
	Delta            float64 // signed share of base by which new is WORSE (negative = better)
	Bound            float64
	Spread           float64
	Status           string // ok | regressed | unresolved | info
}

// judge applies the rule of the choosing-metrics guide, section 6: a
// metric regressed when the new median is worse than the base median by
// more than the bound; where the run-to-run spread is wider than the
// bound the row is unresolved, not unchanged, unless every new run reads
// better than every base run.
func judge(def metricDef, base, cur []float64) verdict {
	v := verdict{Metric: def.Name, Base: median(base), New: median(cur), Bound: def.Bound}
	if v.Base != 0 {
		v.Delta = (v.New - v.Base) / v.Base
		if def.Better == "higher" {
			v.Delta = -v.Delta
		}
	}
	v.Spread = spread(base)
	if s := spread(cur); s > v.Spread {
		v.Spread = s
	}
	switch {
	case def.Bound == 0:
		v.Status = "info"
	case v.Spread > def.Bound && !allBetter(def, base, cur):
		v.Status = "unresolved"
	case v.Delta > def.Bound:
		v.Status = "regressed"
	default:
		v.Status = "ok"
	}
	return v
}

func allBetter(def metricDef, base, cur []float64) bool {
	for _, c := range cur {
		for _, b := range base {
			if (def.Better == "higher" && c <= b) || (def.Better != "higher" && c >= b) {
				return false
			}
		}
	}
	return true
}

func compareResults(base, cur *ResultFile) []verdict {
	bs, cs := collect(base), collect(cur)
	var out []verdict
	for _, wl := range allWorkloadNames() {
		for _, def := range endToEndFor(wl) {
			b, c := bs[wl][def.Name], cs[wl][def.Name]
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			v := judge(def, b, c)
			v.Workload = wl
			out = append(out, v)
		}
	}
	return out
}

func compareFiles(w io.Writer, basePath, newPath string) int {
	base, err := readResultFile(basePath)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	cur, err := readResultFile(newPath)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	rows := compareResults(base, cur)
	if len(rows) == 0 {
		fmt.Fprintln(w, "compare: the files share no workload")
		return 2
	}
	fmt.Fprintf(w, "%-18s %-22s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "base", "new", "worse by", "bound", "spread", "status")
	exit := 0
	for _, v := range rows {
		fmt.Fprintf(w, "%-18s %-22s %14.4f %14.4f %+8.1f%% %6.0f%% %6.1f%%  %s\n",
			v.Workload, v.Metric, v.Base, v.New, 100*v.Delta, 100*v.Bound, 100*v.Spread, v.Status)
		if v.Status == "regressed" {
			exit = 1
		}
	}
	return exit
}

// suggestBound turns a measured spread into a bound, or 0 to demote.
func suggestBound(sp float64) float64 {
	if sp > demoteSpread {
		return 0
	}
	b := 3 * sp
	if b < minBound {
		b = minBound
	}
	if b > maxBound {
		b = maxBound
	}
	return b
}

func calibrateFile(w io.Writer, path string) int {
	rf, err := readResultFile(path)
	if err != nil {
		fmt.Fprintln(w, "calibrate:", err)
		return 2
	}
	s := collect(rf)
	fmt.Fprintf(w, "%-18s %-22s %5s %14s %8s %8s\n", "workload", "metric", "runs", "median", "spread", "bound")
	for _, wl := range allWorkloadNames() {
		names := make([]string, 0, len(s[wl]))
		for n := range s[wl] {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			vals := s[wl][n]
			sp := spread(vals)
			bound := "demote"
			if b := suggestBound(sp); b > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*b)
			}
			fmt.Fprintf(w, "%-18s %-22s %5d %14.4f %7.1f%% %8s\n", wl, n, len(vals), median(vals), 100*sp, bound)
		}
	}
	return 0
}
