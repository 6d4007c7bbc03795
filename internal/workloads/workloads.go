// Package workloads defines behavioural profiles for every benchmark the
// paper characterizes: ten SPEC CPU2006 programs (Fig. 4/5), the NAS
// parallel benchmarks (Fig. 6), the four Rodinia HPC applications used for
// the DRAM experiments (Fig. 8), the stencil kernel of the access-pattern
// scheduling study, and the end-to-end Jammer detector (Fig. 9).
//
// A profile captures the features the guardband experiments actually depend
// on — instruction mix (which sets average supply current and throughput),
// memory-locality structure, resident data behaviour in DRAM, resonant
// current content, and sustained memory bandwidth — not the licensed
// benchmark codes themselves. Values are behavioural calibrations chosen so
// the characterization framework reproduces the paper's figures; they are
// inputs of the reproduction in the same sense the real binaries were
// inputs of the original study.
package workloads

import (
	"fmt"
	"time"

	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/microarch"
	"repro/internal/silicon"
)

// Suite identifies the benchmark suite a profile belongs to.
type Suite int

const (
	// SPEC is SPEC CPU2006.
	SPEC Suite = iota + 1
	// NAS is the NAS Parallel Benchmarks.
	NAS
	// Rodinia is the Rodinia HPC suite.
	Rodinia
	// Synthetic marks crafted kernels (stencil, microbenchmarks).
	Synthetic
	// Application marks end-to-end applications (the Jammer detector).
	Application
)

// String names the suite.
func (s Suite) String() string {
	switch s {
	case SPEC:
		return "SPEC2006"
	case NAS:
		return "NAS"
	case Rodinia:
		return "Rodinia"
	case Synthetic:
		return "synthetic"
	case Application:
		return "application"
	default:
		return fmt.Sprintf("Suite(%d)", int(s))
	}
}

// Profile is the behavioural description of one benchmark.
type Profile struct {
	Name  string
	Suite Suite
	// Mix is the instruction-class distribution (drives current draw,
	// IPC and the droop base term).
	Mix isa.Mix
	// Stream describes cache-level memory locality.
	Stream microarch.StreamSpec
	// Mem describes DRAM-resident data behaviour for retention scans.
	Mem dram.WorkloadMem
	// ResonantCurrentA is the workload's supply-current content at the PDN
	// resonant frequency (amperes). Real programs have little; only
	// crafted dI/dt viruses approach the ~4.4 A square-wave reference.
	ResonantCurrentA float64
	// CacheStress reports whether the program exercises cache SRAM hard
	// enough to expose low-voltage SRAM weakness before logic fails.
	CacheStress bool
	// DRAMBandwidthGBs is the sustained full-system memory bandwidth of
	// the paper's 8-core deployment (drives DRAM access power in Fig. 8b).
	DRAMBandwidthGBs float64
	// Duration is the nominal single-run time at 2.4 GHz, used by the
	// campaign scheduler and watchdog sizing.
	Duration time.Duration
}

// AvgCurrentA returns the cycle-weighted mean supply current of the
// profile's instruction mix.
func (p Profile) AvgCurrentA() float64 { return p.Mix.AvgCurrentA() }

// DroopInput assembles the silicon droop-model input for this profile
// running with the given number of active full-speed cores.
func (p Profile) DroopInput(activeFastCores int) silicon.DroopInput {
	return silicon.DroopInput{
		AvgCurrentA:      p.AvgCurrentA(),
		ResonantCurrentA: p.ResonantCurrentA,
		ActiveFastCores:  activeFastCores,
	}
}

// Validate checks internal consistency of the profile.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workloads: empty profile name")
	}
	if err := p.Mix.Validate(); err != nil {
		return fmt.Errorf("workloads: %s mix: %w", p.Name, err)
	}
	if err := p.Stream.Validate(); err != nil {
		return fmt.Errorf("workloads: %s stream: %w", p.Name, err)
	}
	if err := p.Mem.Validate(); err != nil {
		return fmt.Errorf("workloads: %s mem: %w", p.Name, err)
	}
	if p.ResonantCurrentA < 0 {
		return fmt.Errorf("workloads: %s negative resonant current", p.Name)
	}
	if p.DRAMBandwidthGBs < 0 {
		return fmt.Errorf("workloads: %s negative bandwidth", p.Name)
	}
	if p.Duration <= 0 {
		return fmt.Errorf("workloads: %s non-positive duration", p.Name)
	}
	return nil
}

// stream is a shorthand constructor for StreamSpec literals.
func stream(footMB int64, seq, stride, random float64, strideB int64, hotFrac float64, hotKB int64) microarch.StreamSpec {
	return microarch.StreamSpec{
		FootprintBytes: footMB << 20,
		SeqFrac:        seq,
		StrideFrac:     stride,
		RandomFrac:     random,
		StrideBytes:    strideB,
		HotFrac:        hotFrac,
		HotBytes:       hotKB << 10,
	}
}

// mem is a shorthand constructor for WorkloadMem literals.
func mem(footGB float64, hot float64, reuse time.Duration, randFrac float64) dram.WorkloadMem {
	return dram.WorkloadMem{
		FootprintBytes: int64(footGB * float64(1<<30)),
		HotFraction:    hot,
		ReuseInterval:  reuse,
		RandomDataFrac: randFrac,
	}
}

// specProfiles holds the ten SPEC CPU2006 programs of Fig. 4. The mixes
// are calibrated (jointly with internal/silicon's droop constants) so the
// measured Vmin on the TTT chip's most robust core spans 860-885 mV with
// mcf at the bottom (memory-stalled, low current) and cactusADM at the top
// (dense FP/SIMD, high current) — the workload-dependence the paper reports.
var specProfiles = []Profile{
	{
		Name: "mcf", Suite: SPEC,
		Mix: isa.Mix{
			isa.IntALU: 0.30, isa.Branch: 0.12, isa.LoadL1: 0.30,
			isa.LoadL2: 0.08, isa.LoadDRAM: 0.08, isa.Store: 0.12,
		},
		Stream:           stream(1700, 0.1, 0.2, 0.7, 256, 0.3, 256),
		Mem:              mem(1.7, 0.25, 400*time.Millisecond, 0.55),
		ResonantCurrentA: 0.10,
		CacheStress:      true,
		DRAMBandwidthGBs: 18,
		Duration:         70 * time.Second,
	},
	{
		Name: "lbm", Suite: SPEC,
		Mix: isa.Mix{
			isa.FPALU: 0.22, isa.FPSIMD: 0.08, isa.LoadL1: 0.28,
			isa.LoadDRAM: 0.05, isa.Store: 0.22, isa.IntALU: 0.10, isa.Branch: 0.05,
		},
		Stream:           stream(400, 0.8, 0.1, 0.1, 1024, 0, 0),
		Mem:              mem(0.4, 0.6, 150*time.Millisecond, 0.75),
		ResonantCurrentA: 0.15,
		CacheStress:      true,
		DRAMBandwidthGBs: 24,
		Duration:         60 * time.Second,
	},
	{
		Name: "bwaves", Suite: SPEC,
		Mix: isa.Mix{
			isa.FPALU: 0.25, isa.FPSIMD: 0.05, isa.LoadL1: 0.30,
			isa.LoadL2: 0.06, isa.LoadDRAM: 0.04, isa.Store: 0.15,
			isa.IntALU: 0.10, isa.Branch: 0.05,
		},
		Stream:           stream(900, 0.7, 0.2, 0.1, 512, 0, 0),
		Mem:              mem(0.9, 0.5, 200*time.Millisecond, 0.8),
		ResonantCurrentA: 0.12,
		CacheStress:      true,
		DRAMBandwidthGBs: 16,
		Duration:         90 * time.Second,
	},
	{
		Name: "milc", Suite: SPEC,
		Mix: isa.Mix{
			isa.FPALU: 0.30, isa.LoadL1: 0.25, isa.LoadL2: 0.08,
			isa.LoadDRAM: 0.03, isa.Store: 0.12, isa.IntALU: 0.15, isa.Branch: 0.07,
		},
		Stream:           stream(680, 0.5, 0.3, 0.2, 384, 0.2, 512),
		Mem:              mem(0.68, 0.4, 300*time.Millisecond, 0.85),
		ResonantCurrentA: 0.14,
		CacheStress:      true,
		DRAMBandwidthGBs: 12,
		Duration:         75 * time.Second,
	},
	{
		Name: "gcc", Suite: SPEC,
		Mix: isa.Mix{
			isa.IntALU: 0.35, isa.IntMul: 0.05, isa.Branch: 0.15,
			isa.LoadL1: 0.25, isa.LoadL2: 0.05, isa.LoadDRAM: 0.015, isa.Store: 0.135,
		},
		Stream:           stream(120, 0.3, 0.2, 0.5, 128, 0.5, 1024),
		Mem:              mem(0.12, 0.6, 100*time.Millisecond, 0.6),
		ResonantCurrentA: 0.18,
		CacheStress:      true,
		DRAMBandwidthGBs: 5,
		Duration:         45 * time.Second,
	},
	{
		Name: "leslie3d", Suite: SPEC,
		Mix: isa.Mix{
			isa.FPALU: 0.30, isa.FPSIMD: 0.12, isa.LoadL1: 0.28,
			isa.LoadL2: 0.05, isa.LoadDRAM: 0.02, isa.Store: 0.13,
			isa.IntALU: 0.06, isa.Branch: 0.04,
		},
		Stream:           stream(130, 0.7, 0.2, 0.1, 768, 0, 0),
		Mem:              mem(0.13, 0.5, 250*time.Millisecond, 0.8),
		ResonantCurrentA: 0.20,
		CacheStress:      true,
		DRAMBandwidthGBs: 10,
		Duration:         80 * time.Second,
	},
	{
		Name: "dealII", Suite: SPEC,
		Mix: isa.Mix{
			isa.FPALU: 0.35, isa.FPSIMD: 0.15, isa.LoadL1: 0.25,
			isa.LoadL2: 0.03, isa.Store: 0.10, isa.IntALU: 0.08, isa.Branch: 0.04,
		},
		Stream:           stream(90, 0.4, 0.3, 0.3, 256, 0.4, 2048),
		Mem:              mem(0.09, 0.7, 120*time.Millisecond, 0.7),
		ResonantCurrentA: 0.25,
		CacheStress:      true,
		DRAMBandwidthGBs: 4,
		Duration:         65 * time.Second,
	},
	{
		Name: "gromacs", Suite: SPEC,
		Mix: isa.Mix{
			isa.FPALU: 0.38, isa.FPSIMD: 0.20, isa.LoadL1: 0.22,
			isa.Store: 0.08, isa.IntALU: 0.08, isa.Branch: 0.04,
		},
		Stream:           stream(30, 0.5, 0.3, 0.2, 128, 0.6, 512),
		Mem:              mem(0.03, 0.8, 60*time.Millisecond, 0.65),
		ResonantCurrentA: 0.28,
		CacheStress:      true,
		DRAMBandwidthGBs: 2,
		Duration:         55 * time.Second,
	},
	{
		Name: "namd", Suite: SPEC,
		Mix: isa.Mix{
			isa.FPALU: 0.32, isa.FPSIMD: 0.30, isa.LoadL1: 0.20,
			isa.Store: 0.08, isa.IntALU: 0.06, isa.Branch: 0.04,
		},
		Stream:           stream(45, 0.4, 0.4, 0.2, 192, 0.5, 1024),
		Mem:              mem(0.045, 0.8, 70*time.Millisecond, 0.7),
		ResonantCurrentA: 0.30,
		CacheStress:      true,
		DRAMBandwidthGBs: 2.5,
		Duration:         85 * time.Second,
	},
	{
		Name: "cactusADM", Suite: SPEC,
		Mix: isa.Mix{
			isa.FPALU: 0.15, isa.FPSIMD: 0.70, isa.LoadL1: 0.08,
			isa.Store: 0.03, isa.IntALU: 0.03, isa.Branch: 0.01,
		},
		Stream:           stream(180, 0.6, 0.3, 0.1, 512, 0, 0),
		Mem:              mem(0.18, 0.6, 150*time.Millisecond, 0.8),
		ResonantCurrentA: 0.30,
		CacheStress:      true,
		DRAMBandwidthGBs: 7,
		Duration:         95 * time.Second,
	},
}

// nasProfiles models the NAS parallel benchmarks of Fig. 6.
var nasProfiles = []Profile{
	nasProfile("bt", 0.28, 0.16, 0.24, 0.02, 0.20),
	nasProfile("cg", 0.12, 0.04, 0.34, 0.05, 0.12),
	nasProfile("ep", 0.40, 0.22, 0.12, 0.00, 0.30),
	nasProfile("ft", 0.30, 0.14, 0.26, 0.03, 0.22),
	nasProfile("is", 0.06, 0.00, 0.36, 0.05, 0.10),
	nasProfile("lu", 0.26, 0.12, 0.26, 0.02, 0.18),
	nasProfile("mg", 0.22, 0.10, 0.30, 0.04, 0.16),
	nasProfile("sp", 0.28, 0.14, 0.26, 0.02, 0.20),
}

// nasProfile builds a NAS profile from its FP, SIMD, load and DRAM-miss
// intensities; remaining fractions fill with integer work.
func nasProfile(name string, fp, simd, l1, dramFrac, resA float64) Profile {
	store := 0.10
	branch := 0.05
	intFrac := 1 - fp - simd - l1 - dramFrac - store - branch
	return Profile{
		Name: name, Suite: NAS,
		Mix: isa.Mix{
			isa.FPALU: fp, isa.FPSIMD: simd, isa.LoadL1: l1,
			isa.LoadDRAM: dramFrac, isa.Store: store,
			isa.IntALU: intFrac, isa.Branch: branch,
		},
		Stream:           stream(600, 0.6, 0.2, 0.2, 512, 0.2, 1024),
		Mem:              mem(0.6, 0.5, 200*time.Millisecond, 0.75),
		ResonantCurrentA: resA,
		CacheStress:      true,
		DRAMBandwidthGBs: 8,
		Duration:         60 * time.Second,
	}
}

// rodiniaProfiles models the four Rodinia applications of the DRAM study
// (Fig. 8). Their DRAM-side behaviour is what matters there: nw touches a
// large footprint with little reuse at low bandwidth (so refresh dominates
// its DRAM power: the 27.3% saving), while kmeans streams at very high
// bandwidth (access power dominates: only 9.4%).
var rodiniaProfiles = []Profile{
	{
		Name: "backprop", Suite: Rodinia,
		Mix: isa.Mix{
			isa.FPALU: 0.30, isa.FPSIMD: 0.10, isa.LoadL1: 0.28,
			isa.LoadL2: 0.04, isa.LoadDRAM: 0.02, isa.Store: 0.14,
			isa.IntALU: 0.08, isa.Branch: 0.04,
		},
		Stream:           stream(2048, 0.6, 0.2, 0.2, 512, 0.3, 4096),
		Mem:              mem(4, 0.40, 300*time.Millisecond, 0.70),
		ResonantCurrentA: 0.16,
		CacheStress:      true,
		DRAMBandwidthGBs: 20,
		Duration:         50 * time.Second,
	},
	{
		Name: "kmeans", Suite: Rodinia,
		Mix: isa.Mix{
			isa.FPALU: 0.24, isa.LoadL1: 0.30, isa.LoadL2: 0.06,
			isa.LoadDRAM: 0.05, isa.Store: 0.12, isa.IntALU: 0.16, isa.Branch: 0.07,
		},
		Stream:           stream(6144, 0.8, 0.1, 0.1, 1024, 0.1, 2048),
		Mem:              mem(6, 0.70, 80*time.Millisecond, 0.50),
		ResonantCurrentA: 0.12,
		CacheStress:      true,
		DRAMBandwidthGBs: 50,
		Duration:         40 * time.Second,
	},
	{
		Name: "nw", Suite: Rodinia,
		Mix: isa.Mix{
			isa.IntALU: 0.34, isa.Branch: 0.10, isa.LoadL1: 0.30,
			isa.LoadL2: 0.06, isa.LoadDRAM: 0.02, isa.Store: 0.18,
		},
		Stream:           stream(8192, 0.3, 0.5, 0.2, 2048, 0.05, 1024),
		Mem:              mem(8, 0.10, 800*time.Millisecond, 0.60),
		ResonantCurrentA: 0.10,
		CacheStress:      true,
		DRAMBandwidthGBs: 5,
		Duration:         55 * time.Second,
	},
	{
		Name: "srad", Suite: Rodinia,
		Mix: isa.Mix{
			isa.FPALU: 0.32, isa.FPSIMD: 0.08, isa.LoadL1: 0.26,
			isa.LoadL2: 0.05, isa.LoadDRAM: 0.02, isa.Store: 0.14,
			isa.IntALU: 0.09, isa.Branch: 0.04,
		},
		Stream:           stream(5120, 0.7, 0.2, 0.1, 768, 0.2, 2048),
		Mem:              mem(5, 0.45, 250*time.Millisecond, 0.60),
		ResonantCurrentA: 0.14,
		CacheStress:      true,
		DRAMBandwidthGBs: 14,
		Duration:         45 * time.Second,
	},
}

// stencilProfile is the 3D stencil kernel of the access-pattern scheduling
// case study (ref [12], Section IV.C).
var stencilProfile = Profile{
	Name: "stencil3d", Suite: Synthetic,
	Mix: isa.Mix{
		isa.FPALU: 0.30, isa.FPSIMD: 0.10, isa.LoadL1: 0.30,
		isa.LoadL2: 0.05, isa.LoadDRAM: 0.02, isa.Store: 0.15,
		isa.IntALU: 0.05, isa.Branch: 0.03,
	},
	Stream:           stream(4096, 0.8, 0.15, 0.05, 4096, 0, 0),
	Mem:              mem(4, 0.9, 500*time.Millisecond, 0.85),
	ResonantCurrentA: 0.15,
	CacheStress:      true,
	DRAMBandwidthGBs: 22,
	Duration:         40 * time.Second,
}

// jammerProfile is the end-to-end SDR jammer-detector application of
// Fig. 9 (4 parallel instances saturating CPU; modest DRAM bandwidth, so
// refresh relaxation saves a third of DRAM power).
var jammerProfile = Profile{
	Name: "jammer-detector", Suite: Application,
	Mix: isa.Mix{
		isa.FPALU: 0.28, isa.FPSIMD: 0.18, isa.LoadL1: 0.26,
		isa.LoadL2: 0.03, isa.Store: 0.12, isa.IntALU: 0.09, isa.Branch: 0.04,
	},
	Stream:           stream(512, 0.7, 0.2, 0.1, 256, 0.5, 4096),
	Mem:              mem(0.5, 0.85, 40*time.Millisecond, 0.9),
	ResonantCurrentA: 0.18,
	CacheStress:      true,
	DRAMBandwidthGBs: 0.8,
	Duration:         time.Hour, // continuously running service
}

func cloneProfiles(src []Profile) []Profile {
	out := make([]Profile, len(src))
	copy(out, src)
	return out
}

// SPEC2006 returns the ten SPEC CPU2006 profiles of Fig. 4.
func SPEC2006() []Profile { return cloneProfiles(specProfiles) }

// NASSuite returns the NAS benchmark profiles of Fig. 6.
func NASSuite() []Profile { return cloneProfiles(nasProfiles) }

// RodiniaSuite returns the Rodinia profiles of Fig. 8.
func RodiniaSuite() []Profile { return cloneProfiles(rodiniaProfiles) }

// Stencil returns the stencil kernel profile.
func Stencil() Profile { return stencilProfile }

// Jammer returns the jammer-detector application profile.
func Jammer() Profile { return jammerProfile }

// Fig5Mix returns the eight-benchmark multi-programmed workload of Fig. 5:
// bwaves, cactusADM, dealII, gromacs, leslie3d, mcf, milc, namd.
func Fig5Mix() []Profile {
	names := []string{"bwaves", "cactusADM", "dealII", "gromacs", "leslie3d", "mcf", "milc", "namd"}
	out := make([]Profile, 0, len(names))
	for _, n := range names {
		p, err := ByName(n)
		if err != nil {
			// The mix names are package constants; a failure here is a
			// programming error caught by tests.
			panic(err)
		}
		out = append(out, p)
	}
	return out
}

// All returns every defined profile.
func All() []Profile {
	out := make([]Profile, 0, len(specProfiles)+len(nasProfiles)+len(rodiniaProfiles)+2)
	out = append(out, specProfiles...)
	out = append(out, nasProfiles...)
	out = append(out, rodiniaProfiles...)
	out = append(out, stencilProfile, jammerProfile)
	return out
}

// ByName looks a profile up by benchmark name. It searches the tables in
// place, in All's order, without building All: the daemon looks up every
// benchmark of every submission twice (validation and resolution).
func ByName(name string) (Profile, error) {
	for _, table := range [...][]Profile{specProfiles, nasProfiles, rodiniaProfiles, {stencilProfile, jammerProfile}} {
		for i := range table {
			if table[i].Name == name {
				return table[i], nil
			}
		}
	}
	return Profile{}, fmt.Errorf("workloads: unknown benchmark %q", name)
}
