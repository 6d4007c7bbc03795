package guardband

// Streaming-overhead benchmarks for the campaign service layer: the same
// Fig. 4-shaped grid run as a plain batch campaign, with the engine's
// ordering-buffer stream fanned into a frame-counting null sink, and
// written out as JSONL (what a campaignd subscriber receives). The deltas
// are the cost of live result streaming; BENCH_serve.json records a
// measured snapshot.

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// fig4StreamSpec is the Fig. 4 grid in service-spec form: the ten SPEC
// CPU2006 profiles at a descending voltage ladder on the most robust core,
// two repetitions per cell (10 x 5 x 2 = 100 records).
func fig4StreamSpec() serve.Spec {
	return serve.Spec{
		Name:        "fig4",
		Seed:        DefaultSeed,
		Benches:     specNames(),
		VoltagesMV:  []float64{980, 960, 940, 920, 900},
		Repetitions: 2,
	}
}

func specNames() []string {
	var names []string
	for _, p := range workloads.SPEC2006() {
		names = append(names, p.Name)
	}
	return names
}

// nullSink counts frames and writes nothing: measures the ordering buffer
// plus the engine's encode-once framing, without a consumer.
type nullSink struct{ n int }

func (s *nullSink) Frames(batch []core.Frame) error { s.n += len(batch); return nil }

// BenchmarkStreamFig4 compares streamed vs batch campaign overhead on the
// Fig. 4 grid. Sub-benchmarks: "batch" (no sink), "stream-null" (ordering
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

// BenchmarkStreamFanout runs the Fig. 4 grid against a broadcast sink with
// many JSONL subscribers — the campaignd shape when a fleet of dashboards
// tails one campaign. Under the encode-once wire path each record is
// rendered exactly once and every subscriber receives the same shared
// bytes, so cost per subscriber is a buffer write, not an encode: total
// time should grow far slower than the subscriber count.
func BenchmarkStreamFanout(b *testing.B) {
	grid, err := fig4StreamSpec().Grid()
	if err != nil {
		b.Fatal(err)
	}
	for _, subs := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			hub := core.NewMultiSink()
			for i := 0; i < subs; i++ {
				hub.Subscribe(core.NewJSONLSink(io.Discard))
			}
			for i := 0; i < b.N; i++ {
				rep, err := campaign.RunGrid(campaign.Config{Seed: DefaultSeed, Sink: hub}, grid)
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Records) != 100 {
					b.Fatalf("records = %d, want 100", len(rep.Records))
				}
			}
		})
	}
}
