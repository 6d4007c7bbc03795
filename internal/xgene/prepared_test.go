package xgene

import (
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/silicon"
	"repro/internal/simcache"
	"repro/internal/workloads"
)

// withMix returns p with a private copy of its Mix, edited by fn.
func withMix(p workloads.Profile, fn func(isa.Mix)) workloads.Profile {
	mix := make(isa.Mix, len(p.Mix))
	for c, f := range p.Mix {
		mix[c] = f
	}
	fn(mix)
	p.Mix = mix
	return p
}

// TestRunPreparedProfileMatchesFreshServer interleaves, on one server,
// runs of a profile with copies that each differ in one field, and with
// invalid copies. The server keeps the last profile's prepared inputs, so
// every run must still equal the same run on a fresh server, and the
// invalid copies must fail every time they come round.
func TestRunPreparedProfileMatchesFreshServer(t *testing.T) {
	// profileKey lists the Profile fields by hand; a new field must join it.
	if n := reflect.TypeOf(workloads.Profile{}).NumField(); n != 9 {
		t.Fatalf("workloads.Profile has %d fields; extend profileKey and this test", n)
	}
	base, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	var absent isa.Class
	var largest, smallest isa.Class
	for _, c := range isa.Classes() {
		f, ok := base.Mix[c]
		switch {
		case !ok:
			absent = c
		case largest == 0 || f > base.Mix[largest]:
			largest = c
		}
		if ok && (smallest == 0 || f < base.Mix[smallest]) {
			smallest = c
		}
	}
	if absent == 0 || largest == smallest {
		t.Fatal("mcf's mix cannot be edited the way this test needs")
	}

	variants := map[string]workloads.Profile{
		"base": base,
		"mix fraction": withMix(base, func(m isa.Mix) {
			m[largest] -= 0.003
			m[smallest] += 0.003
		}),
		"mix class added": withMix(base, func(m isa.Mix) {
			m[largest] -= 0.004
			m[absent] = 0.004
		}),
		"mix class removed": withMix(base, func(m isa.Mix) {
			m[largest] += m[smallest]
			delete(m, smallest)
		}),
	}
	p := base
	p.Stream.FootprintBytes *= 2
	variants["stream"] = p
	p = base
	p.Mem.HotFraction /= 2
	variants["mem"] = p
	p = base
	p.ResonantCurrentA += 0.25
	variants["resonant current"] = p
	p = base
	p.Duration *= 3
	variants["duration"] = p
	p = base
	p.Name += "-copy"
	variants["name"] = p
	invalid := map[string]workloads.Profile{
		"zero duration": func() workloads.Profile { p := base; p.Duration = 0; return p }(),
		"unknown class": withMix(base, func(m isa.Mix) { m[isa.Class(99)] = 0 }),
	}
	for name, v := range variants {
		if err := v.Validate(); err != nil {
			t.Fatalf("variant %q is invalid: %v", name, err)
		}
	}

	order := []string{"base", "base", "mix fraction", "base", "mix class added", "base",
		"zero duration", "base", "mix class removed", "mix class removed", "stream", "base",
		"mem", "unknown class", "resonant current", "base", "duration", "name", "base",
		"zero duration", "base", "unknown class", "unknown class", "base"}
	shared := newTTT(t)
	// A lowered rail makes the outcome depend on the droop, and hence on
	// the prepared mean current.
	const railV = 0.90
	if err := shared.SetPMDVoltage(railV); err != nil {
		t.Fatal(err)
	}
	for i, name := range order {
		prof, valid := variants[name]
		if !valid {
			prof = invalid[name]
		}
		spec := RunSpec{Workload: prof, Cores: silicon.AllCores(), Seed: uint64(100 + i)}
		got, gotErr := shared.Run(spec)
		fresh := newTTT(t)
		if err := fresh.SetPMDVoltage(railV); err != nil {
			t.Fatal(err)
		}
		want, wantErr := fresh.Run(spec)
		if !valid {
			if gotErr == nil || wantErr == nil {
				t.Fatalf("run %d (%s): invalid profile ran (errs %v, %v)", i, name, gotErr, wantErr)
			}
			continue
		}
		if gotErr != nil || wantErr != nil {
			t.Fatalf("run %d (%s): %v / %v", i, name, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d (%s): shared server %+v, fresh server %+v", i, name, got, want)
		}
		if !shared.Booted() {
			shared.Reboot()
			if err := shared.SetPMDVoltage(railV); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRunRepeatedProfileSkipsLookup pins what a repeated profile costs:
// no allocation and no simulate-memo lookup. The profile is an edited
// copy of a built-in one, so its counters come from the memo, not the
// table.
func TestRunRepeatedProfileSkipsLookup(t *testing.T) {
	s := newTTT(t)
	p, err := workloads.ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	p.Stream.FootprintBytes *= 2
	spec := allCoresSpec(p, 1)
	if _, err := s.Run(spec); err != nil {
		t.Fatal(err)
	}
	before := simcache.CountersStats()
	allocs := testing.AllocsPerRun(100, func() {
		spec.Seed++
		if _, err := s.Run(spec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("repeated profile allocates %.1f objects/run, want 0", allocs)
	}
	if after := simcache.CountersStats(); after != before {
		t.Errorf("repeated profile touched the simulate memo: %+v -> %+v", before, after)
	}
}
