package sketch

import (
	"context"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/im"
	"github.com/holisticim/holisticim/internal/im/imtest"
	"github.com/holisticim/holisticim/internal/opinion"
	"github.com/holisticim/holisticim/internal/ris"
)

// pinnedRun is one selection whose seeds are pinned below.
type pinnedRun struct {
	name     string
	seeds    []graph.NodeID
	coverage float64
}

// pinnedRuns runs cold IMM and TIM+ and sketch-served Select and
// SelectPrefixes for all three RR semantics on imtest.TestGraph, at sizes
// where the greedy never runs out of uncovered sets.
func pinnedRuns(t *testing.T) []pinnedRun {
	t.Helper()
	ctx := context.Background()
	var runs []pinnedRun
	add := func(name string, res im.Result) {
		runs = append(runs, pinnedRun{name, res.Seeds, res.Metrics["coverage"]})
	}
	for _, n := range []int32{300, 1000} {
		g := imtest.TestGraph(n)
		opinion.AssignOpinions(g, opinion.Normal, 2)
		for _, kind := range []ris.ModelKind{ris.ModelIC, ris.ModelLT, ris.ModelOC} {
			tag := fmt.Sprintf("%v/n=%d", kind, n)
			add("imm/"+tag, imtest.MustSelect(ris.NewIMM(g, kind, ris.TIMOptions{Epsilon: 0.3, Seed: 5}), 8))
			add("imm-capped/"+tag, imtest.MustSelect(ris.NewIMM(g, kind, ris.TIMOptions{Epsilon: 0.3, Seed: 5, ThetaCap: 700}), 8))
			add("tim+/"+tag, imtest.MustSelect(ris.NewTIMPlus(g, kind, ris.TIMOptions{Epsilon: 0.4, Seed: 5, ThetaCap: 30000}), 8))

			x := mustBuild(t, g, Params{Kind: kind, Epsilon: 0.3, Seed: 7, BuildK: 10, Workers: 3})
			for _, k := range []int{10, 4, 25} { // memo, prefix, lazy extension
				res, err := x.Select(ctx, k)
				if err != nil {
					t.Fatal(err)
				}
				add(fmt.Sprintf("select/%s/k=%d", tag, k), res)
			}
			y := mustBuild(t, g, Params{Kind: kind, Epsilon: 0.3, Seed: 7, BuildK: 10, Workers: 3})
			batch, err := y.SelectPrefixes(ctx, []int{3, 30, 12})
			if err != nil {
				t.Fatal(err)
			}
			for i, res := range batch {
				add(fmt.Sprintf("prefixes/%s/member=%d", tag, i), res)
			}
		}
	}
	return runs
}

// TestSeedsPinnedFromParent holds every RIS-family entry point to the
// seeds it returned at the commit before the greedy and the IMM sampling
// phase were merged into ris.Collection (captured there with
// PRINT_PINNED_SEEDS=1, before any code changed). Coverage stays below 1
// in every run: on an unsaturated sample the merge must not move a seed.
func TestSeedsPinnedFromParent(t *testing.T) {
	runs := pinnedRuns(t)
	if os.Getenv("PRINT_PINNED_SEEDS") != "" {
		for _, r := range runs {
			fmt.Printf("\t%q: {%s},\n", r.name, strings.ReplaceAll(strings.Trim(fmt.Sprint(r.seeds), "[]"), " ", ", "))
		}
		return
	}
	if len(runs) != len(pinnedSeeds) {
		t.Fatalf("%d runs, %d pinned", len(runs), len(pinnedSeeds))
	}
	for _, r := range runs {
		if r.coverage >= 1 {
			t.Errorf("%s: coverage %v saturates; pick a smaller k", r.name, r.coverage)
		}
		if want := pinnedSeeds[r.name]; !slices.Equal(r.seeds, want) {
			t.Errorf("%s: seeds %v, parent chose %v", r.name, r.seeds, want)
		}
	}
}

var pinnedSeeds = map[string][]graph.NodeID{
	"imm/IC/n=300":                {0, 2, 11, 48, 9, 19, 1, 23},
	"imm-capped/IC/n=300":         {0, 11, 19, 25, 4, 31, 33, 53},
	"tim+/IC/n=300":               {0, 2, 48, 11, 3, 22, 33, 25},
	"select/IC/n=300/k=10":        {0, 2, 11, 48, 9, 19, 1, 23, 25, 5},
	"select/IC/n=300/k=4":         {0, 2, 11, 48},
	"select/IC/n=300/k=25":        {0, 2, 11, 48, 3, 19, 87, 33, 53, 23, 25, 34, 105, 128, 31, 208, 22, 27, 131, 189, 257, 9, 83, 157, 200},
	"prefixes/IC/n=300/member=0":  {0, 2, 11},
	"prefixes/IC/n=300/member=1":  {0, 2, 11, 48, 3, 19, 87, 33, 53, 23, 25, 34, 105, 128, 31, 131, 208, 22, 27, 189, 216, 257, 9, 83, 157, 200, 243, 99, 170, 148},
	"prefixes/IC/n=300/member=2":  {0, 2, 11, 48, 3, 19, 87, 33, 53, 23, 25, 34},
	"imm/LT/n=300":                {0, 2, 3, 5, 9, 11, 48, 1},
	"imm-capped/LT/n=300":         {2, 0, 48, 9, 11, 5, 19, 33},
	"tim+/LT/n=300":               {2, 0, 3, 9, 5, 1, 11, 22},
	"select/LT/n=300/k=10":        {2, 0, 9, 5, 11, 22, 3, 1, 25, 8},
	"select/LT/n=300/k=4":         {2, 0, 9, 5},
	"select/LT/n=300/k=25":        {2, 0, 3, 9, 22, 5, 11, 1, 48, 25, 8, 169, 19, 23, 6, 49, 87, 75, 10, 53, 170, 101, 216, 157, 42},
	"prefixes/LT/n=300/member=0":  {2, 0, 9},
	"prefixes/LT/n=300/member=1":  {2, 0, 9, 11, 3, 22, 5, 1, 25, 48, 8, 23, 169, 19, 87, 75, 6, 49, 101, 110, 53, 10, 157, 170, 216, 42, 95, 134, 33, 40},
	"prefixes/LT/n=300/member=2":  {2, 0, 9, 11, 3, 22, 5, 1, 25, 48, 8, 23},
	"imm/OC/n=300":                {0, 2, 3, 5, 9, 11, 48, 1},
	"imm-capped/OC/n=300":         {2, 0, 48, 9, 11, 5, 19, 33},
	"tim+/OC/n=300":               {2, 0, 3, 9, 5, 1, 11, 22},
	"select/OC/n=300/k=10":        {22, 15, 11, 216, 42, 204, 284, 134, 189, 120},
	"select/OC/n=300/k=4":         {11, 216, 22, 15},
	"select/OC/n=300/k=25":        {11, 216, 22, 15, 43, 38, 204, 180, 150, 134, 127, 299, 189, 174, 183, 79, 129, 261, 288, 260, 120, 147, 194, 219, 193},
	"prefixes/OC/n=300/member=0":  {11, 22, 216},
	"prefixes/OC/n=300/member=1":  {11, 22, 216, 15, 43, 183, 180, 38, 150, 189, 157, 274, 299, 261, 288, 127, 260, 79, 174, 129, 251, 147, 214, 41, 95, 219, 200, 193, 82, 116},
	"prefixes/OC/n=300/member=2":  {11, 22, 216, 15, 43, 183, 180, 38, 150, 189, 157, 274},
	"imm/IC/n=1000":               {2, 0, 11, 5, 33, 1, 48, 4},
	"imm-capped/IC/n=1000":        {2, 3, 5, 11, 79, 92, 145, 84},
	"tim+/IC/n=1000":              {2, 0, 11, 48, 33, 4, 9, 34},
	"select/IC/n=1000/k=10":       {2, 0, 11, 9, 48, 4, 22, 33, 8, 3},
	"select/IC/n=1000/k=4":        {2, 0, 11, 9},
	"select/IC/n=1000/k=25":       {2, 0, 11, 9, 48, 4, 22, 33, 8, 3, 75, 17, 53, 157, 35, 120, 6, 200, 78, 101, 317, 105, 10, 79, 457},
	"prefixes/IC/n=1000/member=0": {2, 0, 11},
	"prefixes/IC/n=1000/member=1": {2, 0, 11, 48, 4, 9, 22, 33, 1, 8, 17, 75, 53, 45, 110, 157, 130, 101, 120, 200, 7, 701, 6, 169, 79, 261, 317, 435, 78, 115},
	"prefixes/IC/n=1000/member=2": {2, 0, 11, 48, 4, 9, 22, 33, 1, 8, 17, 75},
	"imm/LT/n=1000":               {2, 0, 3, 5, 9, 1, 33, 34},
	"imm-capped/LT/n=1000":        {2, 9, 5, 1, 0, 3, 13, 23},
	"tim+/LT/n=1000":              {2, 3, 0, 5, 9, 1, 11, 33},
	"select/LT/n=1000/k=10":       {2, 3, 0, 5, 9, 1, 11, 33, 4, 22},
	"select/LT/n=1000/k=4":        {2, 3, 0, 5},
	"select/LT/n=1000/k=25":       {2, 3, 0, 5, 9, 1, 11, 33, 4, 22, 48, 17, 75, 12, 21, 8, 34, 13, 23, 101, 6, 7, 25, 113, 10},
	"prefixes/LT/n=1000/member=0": {2, 3, 0},
	"prefixes/LT/n=1000/member=1": {2, 3, 0, 5, 9, 1, 11, 33, 4, 22, 48, 34, 17, 12, 21, 13, 8, 23, 101, 7, 6, 75, 25, 113, 10, 19, 183, 87, 105, 32},
	"prefixes/LT/n=1000/member=2": {2, 3, 0, 5, 9, 1, 11, 33, 4, 22, 48, 34},
	"imm/OC/n=1000":               {2, 0, 3, 5, 9, 1, 33, 34},
	"imm-capped/OC/n=1000":        {2, 9, 5, 1, 0, 3, 13, 23},
	"tim+/OC/n=1000":              {2, 3, 0, 5, 9, 1, 11, 33},
	"select/OC/n=1000/k=10":       {3, 2, 29, 183, 5, 22, 216, 376, 317, 41},
	"select/OC/n=1000/k=4":        {3, 4, 29, 22},
	"select/OC/n=1000/k=25":       {3, 4, 327, 46, 183, 579, 151, 59, 281, 29, 796, 22, 129, 376, 522, 366, 449, 684, 261, 137, 116, 216, 545, 445, 317},
	"prefixes/OC/n=1000/member=0": {183, 29, 3},
	"prefixes/OC/n=1000/member=1": {183, 29, 3, 4, 46, 59, 579, 151, 7, 281, 522, 375, 449, 796, 129, 327, 517, 216, 445, 376, 261, 74, 559, 684, 545, 296, 22, 116, 426, 102},
	"prefixes/OC/n=1000/member=2": {183, 29, 3, 4, 46, 59, 579, 151, 7, 281, 522, 375},
}
