package guardband

import (
	"strings"
	"testing"

	"repro/internal/silicon"
	"repro/internal/xgene"
)

func TestAttributeFailuresAllCores(t *testing.T) {
	res, err := AttributeFailures(DefaultSeed, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != silicon.NumCores {
		t.Fatalf("attributed %d cores, want %d", len(res.Cores), silicon.NumCores)
	}
	for _, c := range res.Cores {
		// SRAM gives up at or before logic on every core: the fabricated
		// lead is 2-5 mV, shifted slightly by the small droop difference
		// between the two power-matched viruses.
		if c.SRAMLeadMV < 0 || c.SRAMLeadMV > 8 {
			t.Errorf("%s: SRAM lead %.0f mV outside [0, 8]", c.Core, c.SRAMLeadMV)
		}
		if !cacheModesOnly(c) {
			t.Errorf("%s: cache virus failure modes %v not SRAM-style", c.Core, c.CacheOutcomes)
		}
		if !logicModesOnly(c) {
			t.Errorf("%s: ALU virus failure modes %v not pipeline-style", c.Core, c.LogicOutcomes)
		}
		if c.CacheVminMV < c.LogicVminMV {
			t.Errorf("%s: cache Vmin %.0f below logic Vmin %.0f", c.Core, c.CacheVminMV, c.LogicVminMV)
		}
	}
	out := res.Table().String()
	if !strings.Contains(out, "pmd0.c0") || !strings.Contains(out, "SRAM lead") {
		t.Error("table rendering incomplete")
	}
}

func TestAttributeFailuresSingleCore(t *testing.T) {
	id := silicon.CoreID{PMD: 2, Core: 1}
	res, err := AttributeFailures(DefaultSeed, 2, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 1 || res.Cores[0].Core != id.String() {
		t.Fatalf("unexpected cores: %+v", res.Cores)
	}
}

// cacheOutcomeSet classifies outcome names as cache-style.
var cacheOutcomeSet = map[string]bool{
	xgene.OutcomeCE.String():  true,
	xgene.OutcomeUE.String():  true,
	xgene.OutcomeSDC.String(): true,
}

// cacheModesOnly reports whether a core's cache-virus failure modes were
// exclusively SRAM-style (no direct crash at the boundary).
func cacheModesOnly(c CoreAttribution) bool {
	if len(c.CacheOutcomes) == 0 {
		return false
	}
	for k := range c.CacheOutcomes {
		if !cacheOutcomeSet[k] {
			return false
		}
	}
	return true
}

// logicModesOnly reports whether a core's ALU-virus failures were
// exclusively pipeline-style (crash/hang).
func logicModesOnly(c CoreAttribution) bool {
	if len(c.LogicOutcomes) == 0 {
		return false
	}
	for k := range c.LogicOutcomes {
		if cacheOutcomeSet[k] {
			return false
		}
	}
	return true
}
