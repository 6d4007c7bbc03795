package campaign

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/silicon"
	"repro/internal/workloads"
)

// TestRaceConcurrentCampaigns exercises the engine under maximum
// concurrency pressure: several campaigns run simultaneously, each sharded
// across many workers, with deep-undervolt setups that trip the crash and
// hang recovery paths (watchdog reset, reboot, setup re-application).
// The CI job runs this package under -race; any shared mutable state
// between workers or campaigns shows up here.
func TestRaceConcurrentCampaigns(t *testing.T) {
	core0 := silicon.CoreID{}
	nominal := core.NominalSetup(core0)
	deep := nominal
	deep.PMDVoltage = 0.76 // well below logic Vcrit: every run crashes or hangs
	g := Grid{
		Name: "race",
		Benches: []workloads.Profile{
			mustProfile(t, "mcf"),
			mustProfile(t, "gcc"),
		},
		Setups:      []core.Setup{nominal, deep},
		Repetitions: 3,
	}

	const campaigns = 3
	reports := make([]*GridReport, campaigns)
	errs := make([]error, campaigns)
	var wg sync.WaitGroup
	for i := 0; i < campaigns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = RunGrid(Config{Workers: 8, Seed: 11}, g)
		}(i)
	}
	wg.Wait()

	for i := 0; i < campaigns; i++ {
		if errs[i] != nil {
			t.Fatalf("campaign %d: %v", i, errs[i])
		}
		if reports[i].Stats.Recoveries == 0 {
			t.Fatalf("campaign %d exercised no crash/hang recovery", i)
		}
	}
	// Concurrent campaigns with the same seed must not disturb each other.
	for i := 1; i < campaigns; i++ {
		if !reflect.DeepEqual(reports[0].Records, reports[i].Records) {
			t.Errorf("campaign %d records differ from campaign 0 under concurrency", i)
		}
	}
}

// TestRaceFigureShards stresses the heterogeneous shard path (fresh boards
// next to cached boards) concurrently with another campaign on the same
// corner.
func TestRaceFigureShards(t *testing.T) {
	bench := mustProfile(t, "namd")
	mk := func(name string, fresh bool) Shard[int] {
		return Shard[int]{
			Name:  name,
			Board: Board{Corner: silicon.TTT, Fresh: fresh},
			Run: func(ctx *Ctx) (int, error) {
				cfg := core.DefaultVminConfig(bench, core.NominalSetup(ctx.Server.Chip().WeakestCore()))
				cfg.Repetitions = 1
				cfg.Seed = ctx.Seed
				res, err := ctx.Framework.VminSearch(cfg)
				if err != nil {
					return 0, err
				}
				return len(res.Records), nil
			},
		}
	}
	shards := []Shard[int]{
		mk("mix/a", false), mk("mix/b", true), mk("mix/c", false),
		mk("mix/d", true), mk("mix/e", false), mk("mix/f", false),
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Run(Config{Workers: 6, Seed: 5}, shards); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}
