package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/silicon"
	"repro/internal/workloads"
	"repro/internal/xgene"
)

func newFramework(t *testing.T, corner silicon.Corner, seed uint64) (*Framework, *xgene.Server) {
	t.Helper()
	srv, err := xgene.NewServer(xgene.Options{Corner: corner, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	fw, err := NewFramework(srv)
	if err != nil {
		t.Fatal(err)
	}
	return fw, srv
}

func TestNewFrameworkNilTarget(t *testing.T) {
	if _, err := NewFramework(nil); err == nil {
		t.Error("nil target accepted")
	}
}

func TestSetupValidateAndApply(t *testing.T) {
	fw, srv := newFramework(t, silicon.TTT, 1)
	_ = fw
	s := NominalSetup(silicon.AllCores()...)
	if err := s.Validate(); err != nil {
		t.Fatalf("nominal setup invalid: %v", err)
	}
	s.PMDVoltage = 0.915
	s.PMDFreqHz[0] = silicon.ReducedFreqHz
	s.TREFP = 2283 * time.Millisecond
	if err := s.Apply(srv); err != nil {
		t.Fatal(err)
	}
	if srv.PMDVoltage() != 0.915 {
		t.Error("voltage not applied")
	}
	if f, _ := srv.PMDFreq(0); f != silicon.ReducedFreqHz {
		t.Error("frequency not applied")
	}
	if srv.TREFP() != 2283*time.Millisecond {
		t.Error("TREFP not applied")
	}

	bad := NominalSetup() // no cores
	if err := bad.Validate(); err == nil {
		t.Error("setup without cores accepted")
	}
	bad2 := NominalSetup(silicon.AllCores()...)
	bad2.TREFP = 0
	if err := bad2.Validate(); err == nil {
		t.Error("zero TREFP accepted")
	}
}

func TestExecuteRunCleanAtNominal(t *testing.T) {
	fw, _ := newFramework(t, silicon.TTT, 1)
	p, _ := workloads.ByName("milc")
	var logged []RunRecord
	fw.AppendTo(&logged)
	rec, err := fw.ExecuteRun(p, NominalSetup(silicon.AllCores()...), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Outcome != xgene.OutcomeOK {
		t.Errorf("outcome = %v", rec.Outcome)
	}
	if rec.Recovered {
		t.Error("clean run flagged as recovered")
	}
	if fw.Elapsed() != rec.SimTime {
		t.Error("elapsed time not accumulated")
	}
	if len(logged) != 1 || !reflect.DeepEqual(logged[0], rec) {
		t.Errorf("AppendTo slice holds %+v, want the one returned record", logged)
	}
}

func TestExecuteRunRecoversFromCrash(t *testing.T) {
	fw, srv := newFramework(t, silicon.TTT, 1)
	p, _ := workloads.ByName("cactusADM")
	setup := NominalSetup(silicon.AllCores()...)
	setup.PMDVoltage = 0.800 // deep undervolt: guaranteed logic failure
	rec, err := fw.ExecuteRun(p, setup, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Outcome != xgene.OutcomeCrash && rec.Outcome != xgene.OutcomeHang {
		t.Fatalf("outcome = %v, want crash/hang", rec.Outcome)
	}
	if !rec.Recovered {
		t.Error("crash not flagged as recovered")
	}
	if !srv.Booted() {
		t.Error("framework left the server down")
	}
	// A follow-up run must work (framework re-applies the setup).
	rec2, err := fw.ExecuteRun(p, NominalSetup(silicon.AllCores()...), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Outcome != xgene.OutcomeOK {
		t.Errorf("post-recovery run outcome = %v", rec2.Outcome)
	}
}

func TestHangCostsWatchdogTimeout(t *testing.T) {
	fw, _ := newFramework(t, silicon.TTT, 1)
	p, _ := workloads.ByName("cactusADM")
	setup := NominalSetup(silicon.AllCores()...)
	setup.PMDVoltage = 0.800
	// Run repetitions until we observe a hang (30% of logic failures).
	sawHang := false
	for rep := 0; rep < 40 && !sawHang; rep++ {
		rec, err := fw.ExecuteRun(p, setup, rep, uint64(rep))
		if err != nil {
			t.Fatal(err)
		}
		if rec.Outcome == xgene.OutcomeHang {
			sawHang = true
			if rec.SimTime < fw.WatchdogTimeout {
				t.Errorf("hang sim time %v below watchdog timeout %v", rec.SimTime, fw.WatchdogTimeout)
			}
		}
	}
	if !sawHang {
		t.Error("no hang observed in 40 deep-undervolt runs")
	}
}

func TestCampaignShape(t *testing.T) {
	fw, _ := newFramework(t, silicon.TTT, 1)
	benches := []workloads.Profile{}
	for _, n := range []string{"mcf", "milc"} {
		p, err := workloads.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		benches = append(benches, p)
	}
	setups := []Setup{NominalSetup(silicon.AllCores()...)}
	recs, err := fw.Campaign(benches, setups, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2*1*3 {
		t.Fatalf("campaign produced %d records, want 6", len(recs))
	}
	sums := Summarize(recs)
	if len(sums) != 2 {
		t.Fatalf("summaries = %d, want 2", len(sums))
	}
	for _, s := range sums {
		if s.Total != 3 || s.ByOutcome[xgene.OutcomeOK] != 3 {
			t.Errorf("summary %+v, want 3 clean runs", s)
		}
	}
}

func TestCampaignValidation(t *testing.T) {
	fw, _ := newFramework(t, silicon.TTT, 1)
	p, _ := workloads.ByName("mcf")
	if _, err := fw.Campaign(nil, []Setup{NominalSetup(silicon.AllCores()...)}, 1, 1); err == nil {
		t.Error("empty benchmark list accepted")
	}
	if _, err := fw.Campaign([]workloads.Profile{p}, nil, 1, 1); err == nil {
		t.Error("empty setup list accepted")
	}
	if _, err := fw.Campaign([]workloads.Profile{p}, []Setup{NominalSetup(silicon.AllCores()...)}, 0, 1); err == nil {
		t.Error("zero repetitions accepted")
	}
}

func TestVminConfigValidate(t *testing.T) {
	p, _ := workloads.ByName("mcf")
	good := DefaultVminConfig(p, NominalSetup(silicon.AllCores()...))
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	c := good
	c.StepV = 0
	if err := c.Validate(); err == nil {
		t.Error("zero step accepted")
	}
	c = good
	c.FloorV = 1.0
	if err := c.Validate(); err == nil {
		t.Error("floor above start accepted")
	}
	c = good
	c.Repetitions = 0
	if err := c.Validate(); err == nil {
		t.Error("zero repetitions accepted")
	}
}

func TestVminSearchRobustCoreMCF(t *testing.T) {
	// The headline Fig. 4 point: mcf on the TTT chip's most robust core
	// reaches 860 mV — a >12% voltage (>23% squared) guardband.
	fw, srv := newFramework(t, silicon.TTT, 1)
	p, _ := workloads.ByName("mcf")
	robust := srv.Chip().MostRobustCore()
	cfg := DefaultVminConfig(p, NominalSetup(robust))
	res, err := fw.VminSearch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SafeVminV < 0.855 || res.SafeVminV > 0.870 {
		t.Errorf("mcf safe Vmin = %v, want ~0.860", res.SafeVminV)
	}
	if res.FirstFailV == 0 {
		t.Error("search reached the floor without failures")
	}
	if res.FirstFailV >= res.SafeVminV {
		t.Error("first failure at or above safe Vmin")
	}
	if res.GuardbandV < 0.100 {
		t.Errorf("guardband = %v, want > 100 mV", res.GuardbandV)
	}
	if len(res.FailureOutcomes) == 0 {
		t.Error("no failure outcomes recorded")
	}
	if len(res.Records) == 0 {
		t.Error("no records retained")
	}
}

func TestVminSearchWorkloadDependence(t *testing.T) {
	// cactusADM (high power) must have a higher Vmin than mcf (memory
	// bound) on the same core — the Fig. 4 workload spread.
	fw, srv := newFramework(t, silicon.TTT, 1)
	robust := srv.Chip().MostRobustCore()
	mcf, _ := workloads.ByName("mcf")
	cactus, _ := workloads.ByName("cactusADM")

	rm, err := fw.VminSearch(DefaultVminConfig(mcf, NominalSetup(robust)))
	if err != nil {
		t.Fatal(err)
	}
	rc, err := fw.VminSearch(DefaultVminConfig(cactus, NominalSetup(robust)))
	if err != nil {
		t.Fatal(err)
	}
	if rc.SafeVminV <= rm.SafeVminV {
		t.Errorf("cactusADM Vmin (%v) should exceed mcf Vmin (%v)", rc.SafeVminV, rm.SafeVminV)
	}
	if spread := rc.SafeVminV - rm.SafeVminV; spread < 0.015 || spread > 0.035 {
		t.Errorf("workload Vmin spread = %v, want ~25 mV", spread)
	}
}

func TestVminSearchFloorWithoutFailure(t *testing.T) {
	// With a floor just below nominal nothing fails; the search must
	// report the floor as safe and no failure voltage.
	fw, _ := newFramework(t, silicon.TTT, 1)
	p, _ := workloads.ByName("mcf")
	cfg := DefaultVminConfig(p, NominalSetup(silicon.CoreID{PMD: 3, Core: 1}))
	cfg.FloorV = 0.970
	res, err := fw.VminSearch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstFailV != 0 {
		t.Errorf("unexpected failure at %v", res.FirstFailV)
	}
	if res.SafeVminV > 0.9701 || res.SafeVminV < 0.9699 {
		t.Errorf("safe Vmin = %v, want the 0.970 floor", res.SafeVminV)
	}
}

func TestSummarizeGroupsByVoltage(t *testing.T) {
	recs := []RunRecord{
		{Benchmark: "a", Setup: Setup{PMDVoltage: 0.98}, Outcome: xgene.OutcomeOK},
		{Benchmark: "a", Setup: Setup{PMDVoltage: 0.98}, Outcome: xgene.OutcomeCE},
		{Benchmark: "a", Setup: Setup{PMDVoltage: 0.90}, Outcome: xgene.OutcomeCrash},
		{Benchmark: "b", Setup: Setup{PMDVoltage: 0.98}, Outcome: xgene.OutcomeOK},
	}
	sums := Summarize(recs)
	if len(sums) != 3 {
		t.Fatalf("got %d summaries, want 3", len(sums))
	}
	for _, s := range sums {
		switch {
		case s.Benchmark == "a" && s.Voltage == 0.98:
			if s.Total != 2 || s.ByOutcome[xgene.OutcomeCE] != 1 {
				t.Errorf("bad summary %+v", s)
			}
		case s.Benchmark == "a" && s.Voltage == 0.90:
			if s.ByOutcome[xgene.OutcomeCrash] != 1 {
				t.Errorf("bad summary %+v", s)
			}
		}
	}
}

func TestRoundMV(t *testing.T) {
	if RoundMV(0.86499999) != 0.865 {
		t.Errorf("roundMV drift: %v", RoundMV(0.86499999))
	}
	if RoundMV(0.98) != 0.98 {
		t.Error("roundMV changed an exact value")
	}
}
