package main

import (
	"bytes"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/serve"
)

// offline reproduces a spec without the daemon: the same campaign.RunGrid
// or RunSchedule the daemon runs, rendered through core.NewJSONLSink. The
// daemon's stream must equal these bytes exactly.
func offline(spec serve.Spec) ([]byte, []core.RunRecord, error) {
	var buf bytes.Buffer
	cfg := campaign.Config{Seed: spec.Seed, Workers: spec.Workers, Sink: core.NewJSONLSink(&buf)}
	var recs []core.RunRecord
	if spec.Strategy == serve.StrategyAdaptive {
		sched, err := spec.Schedule()
		if err != nil {
			return nil, nil, err
		}
		rep, err := campaign.RunSchedule(cfg, sched)
		if err != nil {
			return nil, nil, err
		}
		recs = rep.Records
	} else {
		grid, err := spec.Grid()
		if err != nil {
			return nil, nil, err
		}
		rep, err := campaign.RunGrid(cfg, grid)
		if err != nil {
			return nil, nil, err
		}
		recs = rep.Records
	}
	return buf.Bytes(), recs, nil
}

// checkSamples compares every kept campaign with its offline reproduction
// and marks a mismatch as that campaign's failure. It returns the offline
// records of the first sample, which the wire ladder encodes.
func (b *bench) checkSamples(win window) ([]core.RunRecord, error) {
	var first []core.RunRecord
	for _, i := range win.kept {
		want, recs, err := offline(b.w.spec(b.seed, "timed", i))
		if err != nil {
			return nil, fmt.Errorf("offline reproduction of campaign %d: %w", i, err)
		}
		if first == nil {
			first = recs
		}
		if o := &win.outcomes[i]; o.err == nil && !bytes.Equal(o.body, want) {
			o.err = fmt.Errorf("stream differs from offline reproduction (%d vs %d bytes)",
				len(o.body), len(want))
		}
	}
	return first, nil
}
