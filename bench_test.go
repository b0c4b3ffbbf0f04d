// Benchmark harness: one testing.B target per paper table/figure (the
// experiments.Registry entries; `imbench -list` prints them with their
// paper references). Each benchmark executes the full
// experiment at quick scale; run the cmd/imbench binary (optionally
// without -quick) for the complete reproduction with rendered tables.
//
//	go test -bench=. -benchmem
package holisticim

import (
	"testing"

	"github.com/holisticim/holisticim/internal/experiments"
)

func benchConfig() experiments.Config {
	return experiments.Config{Quick: true, MCRuns: 120, Seed: 1}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.Registry[id]
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	cfg := benchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables := e.Run(cfg)
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatalf("experiment %q produced no data", id)
		}
	}
}

// --- Section 4.1 (opinion-aware) -----------------------------------------

func BenchmarkFig2_OpinionSpreadModels(b *testing.B) { runExperiment(b, "fig2") }
func BenchmarkFig5a_TwitterTopics(b *testing.B)      { runExperiment(b, "fig5a") }
func BenchmarkFig5b_TwitterRMSE(b *testing.B)        { runExperiment(b, "fig5b") }
func BenchmarkFig5c_TwitterSpread(b *testing.B)      { runExperiment(b, "fig5c") }
func BenchmarkFig5d_Churn(b *testing.B)              { runExperiment(b, "fig5d") }
func BenchmarkFig5e_LambdaAblation(b *testing.B)     { runExperiment(b, "fig5e") }
func BenchmarkFig5f_OSIMvsGreedy(b *testing.B)       { runExperiment(b, "fig5f") }
func BenchmarkFig5g_OSIMTime(b *testing.B)           { runExperiment(b, "fig5g") }
func BenchmarkFig5h_OSIMMemory(b *testing.B)         { runExperiment(b, "fig5h") }

// --- Section 4.2 (opinion-oblivious) --------------------------------------

func BenchmarkFig6ac_EaSyIMLSweep(b *testing.B) {
	for _, id := range []string{"fig6a", "fig6b", "fig6c"} {
		id := id
		b.Run(id, func(b *testing.B) { runExperiment(b, id) })
	}
}
func BenchmarkFig6de_SpreadComparison(b *testing.B) {
	for _, id := range []string{"fig6d", "fig6e"} {
		id := id
		b.Run(id, func(b *testing.B) { runExperiment(b, id) })
	}
}
func BenchmarkFig6fh_TimeComparison(b *testing.B) {
	for _, id := range []string{"fig6f", "fig6g", "fig6h"} {
		id := id
		b.Run(id, func(b *testing.B) { runExperiment(b, id) })
	}
}
func BenchmarkFig6i_MemoryGrowth(b *testing.B)   { runExperiment(b, "fig6i") }
func BenchmarkFig6j_MemoryOverhead(b *testing.B) { runExperiment(b, "fig6j") }
func BenchmarkTable3_EaSyIMvsTIM(b *testing.B)   { runExperiment(b, "tab3") }
func BenchmarkTable4_EaSyIMvsCELF(b *testing.B)  { runExperiment(b, "tab4") }

// --- Appendix B ------------------------------------------------------------

func BenchmarkFig7a_LambdaLarge(b *testing.B)   { runExperiment(b, "fig7a") }
func BenchmarkFig7b_OSIMUnderOC(b *testing.B)   { runExperiment(b, "fig7b") }
func BenchmarkFig7c_OSIMLargeOI(b *testing.B)   { runExperiment(b, "fig7c") }
func BenchmarkFig7d_LTSpread(b *testing.B)      { runExperiment(b, "fig7d") }
func BenchmarkFig7e_WCSpread(b *testing.B)      { runExperiment(b, "fig7e") }
func BenchmarkFig7f_OCTime(b *testing.B)        { runExperiment(b, "fig7f") }
func BenchmarkFig7g_OSIMTimeLarge(b *testing.B) { runExperiment(b, "fig7g") }
func BenchmarkFig7h_IRIETime(b *testing.B)      { runExperiment(b, "fig7h") }
func BenchmarkFig7i_SimpathTime(b *testing.B)   { runExperiment(b, "fig7i") }
func BenchmarkFig7j_LargeMemory(b *testing.B)   { runExperiment(b, "fig7j") }

// --- Ablations -------------------------------------------------------------

func BenchmarkAblationActivationPolicy(b *testing.B) { runExperiment(b, "ablation-policy") }
func BenchmarkAblationOpinionObliviousSeeds(b *testing.B) {
	runExperiment(b, "ablation-oblivious-seeds")
}
