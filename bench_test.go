package guardband

// The benchmark harness regenerates every table and figure of the paper's
// evaluation section. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the full experiment flow (characterization
// campaigns on the simulated board) and prints the same rows/series the
// paper reports, so `bench_output.txt` doubles as the reproduction record.
// Absolute wall times measure the simulator, not the original testbed; the
// printed experiment values are the reproduction targets.

import (
	"fmt"
	"io"
	"os"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// printOnce guards the per-benchmark result dump so repeated b.N iterations
// do not spam the output.
var printOnce sync.Map

func dump(b *testing.B, key, text string) {
	b.Helper()
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Fprintf(os.Stdout, "\n%s\n", text)
	}
}

// BenchmarkFig4SpecVmin regenerates Fig. 4: Vmin of 10 SPEC CPU2006
// programs at 2.4 GHz on the TTT/TFF/TSS chips (paper: 860-885 mV TTT,
// 870-885 mV TFF, 870-900 mV TSS vs 980 mV nominal).
func BenchmarkFig4SpecVmin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Fig4SpecVminWorkers(DefaultSeed, 10, DefaultWorkers)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			lo, hi := res.Range("TTT")
			dump(b, "fig4", res.Table().String()+
				fmt.Sprintf("TTT range %.0f-%.0f mV (paper 860-885), nominal 980 mV\n", lo, hi))
		}
	}
}

// BenchmarkFig4SpecVminSerial forces the Fig. 4 grid through a single
// worker — the pre-engine serial baseline. Compare against
// BenchmarkFig4SpecVmin (default workers) for the parallel speedup on
// multi-core hosts.
func BenchmarkFig4SpecVminSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Fig4SpecVminWorkers(DefaultSeed, 10, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Tradeoff regenerates Fig. 5: the 8-benchmark mix ladder
// (paper: 915/900/885/875 mV; 12.8%% savings at full performance, 38.8%%
// with the two weakest PMDs at 1.2 GHz).
func BenchmarkFig5Tradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Fig5TradeoffWorkers(DefaultSeed, 10, DefaultWorkers)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			dump(b, "fig5", res.Table().String()+
				fmt.Sprintf("predictor point %.1f%% savings (paper 12.8%%), 2-slow-PMD point %.1f%% (paper 38.8%%)\n",
					res.PredictorSavingsPct, res.MaxSavingsPct))
		}
	}
}

// BenchmarkFig6VirusVsNAS regenerates Fig. 6: the GA/EM-crafted dI/dt
// virus exhibits the highest Vmin of all workloads.
func BenchmarkFig6VirusVsNAS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Fig6VirusVsNASWorkers(DefaultSeed, 10, DefaultWorkers)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			dump(b, "fig6", res.Chart().String()+
				fmt.Sprintf("virus loop: %s\n", res.VirusLoop))
		}
	}
}

// BenchmarkFig7InterChip regenerates Fig. 7: the EM virus exposes
// inter-chip variation (paper margins: TTT 60 mV, TFF 20 mV, TSS ~0).
func BenchmarkFig7InterChip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Fig7InterChipWorkers(DefaultSeed, 10, DefaultWorkers)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			dump(b, "fig7", res.Table().String())
		}
	}
}

// BenchmarkFig7InterChipSerial is the single-worker baseline for Fig. 7
// (three virus-crafting shards, the heaviest campaign in the suite).
func BenchmarkFig7InterChipSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Fig7InterChipWorkers(DefaultSeed, 10, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1BankVariation regenerates Table I: unique error locations
// per bank at 50/60 degC under 35x-relaxed refresh, with the thermal
// testbed regulating the DIMMs (paper: ~163-230 @50C, ~3293-3842 @60C;
// spreads 41%% and 16%%; all errors ECC-corrected).
func BenchmarkTable1BankVariation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Table1BankVariationWorkers(DefaultSeed, DefaultWorkers)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			dump(b, "table1", res.Table().String()+
				fmt.Sprintf("all errors corrected: %v; thermal regulation max dev %.2f degC (paper <1)\n",
					res.AllCorrected, res.RegulationMaxDevC))
		}
	}
}

// BenchmarkFig8aBER regenerates Fig. 8a: BER of the DPBenches vs Rodinia
// at 60 degC / 35x TREFP (paper: random DPBench highest; HPC apps vary
// ~2.5x and stay below the virus).
func BenchmarkFig8aBER(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Fig8aBERWorkers(DefaultSeed, DefaultWorkers)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			dump(b, "fig8a", res.Chart().String())
		}
	}
}

// BenchmarkFig8bRefreshPower regenerates Fig. 8b: DRAM power savings of
// the 35x refresh relaxation per Rodinia app (paper: nw 27.3%%, kmeans
// 9.4%%).
func BenchmarkFig8bRefreshPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Fig8bRefreshPower()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			dump(b, "fig8b", res.Chart().String())
		}
	}
}

// BenchmarkFig9JammerSavings regenerates Fig. 9: the jammer detector at
// the characterized safe point (paper: 31.1 W -> 24.8 W, 20.2%% total;
// PMD 20.3%%, SoC 6.9%%, DRAM 33.3%%; QoS intact).
func BenchmarkFig9JammerSavings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Fig9JammerSavingsWorkers(DefaultSeed, DefaultWorkers)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			dump(b, "fig9", res.Table().String()+
				fmt.Sprintf("undervolted outcome %s; QoS recall %.2f, deadline met %v\n",
					res.UndervoltedOutcome, res.Recall, res.DeadlineMet))
		}
	}
}

// BenchmarkStencilScheduling regenerates the Section IV.C stencil access-
// pattern scheduling case study: the tiled schedule keeps every row's
// revisit interval below the relaxed refresh period, suppressing errors.
func BenchmarkStencilScheduling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := StencilScheduling(DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			dump(b, "stencil", fmt.Sprintf(
				"Stencil scheduling (IV.C): baseline max row interval %v -> tiled %v (TREFP %v)\n"+
					"manifested errors: baseline %d -> tiled %d; meets TREFP: %v",
				res.BaselineMaxInterval, res.TiledMaxInterval, RelaxedTREFP,
				res.BaselineErrors, res.TiledErrors, res.MeetsTREFP))
		}
	}
}

// BenchmarkFailureAttribution regenerates the Section III methodology:
// cache vs ALU viruses isolating which structure fails first on each core.
func BenchmarkFailureAttribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := AttributeFailures(DefaultSeed, 5)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			dump(b, "attribution", res.Table().String())
		}
	}
}

// BenchmarkAblationResonance quantifies DESIGN.md decision 2: removing the
// PDN resonance coupling collapses the virus search to a max-power loop.
func BenchmarkAblationResonance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := AblateResonance(DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			dump(b, "abl-res", fmt.Sprintf(
				"Ablation (PDN resonance): droop %.1f mV (quality %.0f%%) with mechanism vs %.1f mV (quality %.0f%%) without",
				res.WithResonanceDroopMV, res.WithQuality*100,
				res.WithoutResonanceDroopMV, res.WithoutQuality*100))
		}
	}
}

// BenchmarkAblationPatternCoupling quantifies DESIGN.md decision 3: without
// neighbour coupling the checkerboard loses its edge over uniform patterns.
func BenchmarkAblationPatternCoupling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := AblatePatternCoupling(DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			dump(b, "abl-pat", fmt.Sprintf(
				"Ablation (pattern coupling): checker/uniform %.2fx -> %.2fx; random/checker %.2fx -> %.2fx",
				res.WithCoupling.CheckerOverUniform, res.WithoutCoupling.CheckerOverUniform,
				res.WithCoupling.RandomOverChecker, res.WithoutCoupling.RandomOverChecker))
		}
	}
}

// BenchmarkAblationImplicitRefresh quantifies DESIGN.md decision 4: hot-row
// reuse implicitly refreshes DRAM and suppresses workload errors.
func BenchmarkAblationImplicitRefresh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := AblateImplicitRefresh(DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			dump(b, "abl-ref", fmt.Sprintf(
				"Ablation (implicit refresh): kmeans failures %d with reuse vs %d without",
				res.WithReuseFailures, res.WithoutReuseFailures))
		}
	}
}

// fig4StreamSpec is the Fig. 4 grid in service-spec form: the ten SPEC
// CPU2006 profiles at a descending voltage ladder on the most robust core,
// two repetitions per cell (10 x 5 x 2 = 100 records).
func fig4StreamSpec() serve.Spec {
	var names []string
	for _, p := range workloads.SPEC2006() {
		names = append(names, p.Name)
	}
	return serve.Spec{
		Name:        "fig4",
		Seed:        DefaultSeed,
		Benches:     names,
		VoltagesMV:  []float64{980, 960, 940, 920, 900},
		Repetitions: 2,
	}
}

// nullSink counts frames and writes nothing: measures the ordering buffer
// plus the engine's encode-once framing, without a consumer.
type nullSink struct{ n int }

func (s *nullSink) Frames(batch []core.Frame) error { s.n += len(batch); return nil }

// BenchmarkStreamFig4 compares streamed vs batch campaign overhead on the
// Fig. 4 grid; instrumentation added to the engine's stream path must stay
// under 2% here. Sub-benchmarks: "batch" (no sink), "stream-null" (ordering
// buffer + frame encoding, no consumer), "stream-jsonl" (ordering buffer +
// frame encoding + JSONL writes to a discarded writer — the daemon's
// stream path without the socket).
func BenchmarkStreamFig4(b *testing.B) {
	grid, err := fig4StreamSpec().Grid()
	if err != nil {
		b.Fatal(err)
	}
	runGrid := func(b *testing.B, sink core.Sink) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			rep, err := campaign.RunGrid(campaign.Config{Seed: DefaultSeed, Sink: sink}, grid)
			if err != nil {
				b.Fatal(err)
			}
			if len(rep.Records) != 100 {
				b.Fatalf("records = %d, want 100", len(rep.Records))
			}
		}
	}
	b.Run("batch", func(b *testing.B) { runGrid(b, nil) })
	b.Run("stream-null", func(b *testing.B) { runGrid(b, &nullSink{}) })
	b.Run("stream-jsonl", func(b *testing.B) { runGrid(b, core.NewJSONLSink(io.Discard)) })
}
