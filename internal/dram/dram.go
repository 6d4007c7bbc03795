// Package dram models the X-Gene2 server's DDR3 memory system at the level
// the paper's retention experiments require: 72 Micron-class 4 Gbit devices
// (4 DIMMs x 2 ranks x 9 devices, the ninth per rank carrying ECC), each
// with 8 banks of 64K rows, whose weakest cells fail to retain data when
// the refresh period is relaxed far beyond the nominal 64 ms.
//
// Cell retention is modelled with the power-law tail observed in retention
// studies (Liu et al., ISCA 2013): the probability a cell retains for less
// than t grows as t^beta. Temperature accelerates leakage exponentially
// (retention shrinks e-fold every theta degrees), and the stored data
// pattern matters through cell orientation (true- vs anti-cells only leak
// when they hold the charged state) and bitline/neighbour coupling. The
// constants are calibrated so a 35x-relaxed refresh at 50 degC leaves
// roughly two hundred weak locations per bank across the 72 chips and
// seventeen-fold more at 60 degC, matching Table I, while nominal refresh
// leaves none — the guardband the paper measures.
//
// Only tail cells are materialized (a few per bank per device); the other
// ~3*10^11 healthy cells never fail under any condition the experiments
// reach, so they are represented implicitly. Even the tail is fetched
// lazily: a Module materializes it on its first scan or WeakCellCount, so
// a server only ever run at nominal refresh never pays for it.
//
// A scan visits only the weak cells that can fail. Coupling stress is
// clamped to [0,1], sensitivity lies in [0,1] and VRT divides retention
// by at most VRTFactor, so at refresh period T and temperature t a cell
// can lose data only if its Ret40 is below
// T * e^((t-RefTempC)/ThetaC) * (1+CouplingStrength) * VRTFactor.
// worstCaseRet40 computes that bound, padded by a relative 1e-12 so float
// rounding never excludes a cell the exact test would fail, and
// ExpectedFailureUpperBound integrates the tail CDF up to the same value.
// Each fabric carries a retention index — per bank, its lowest Ret40, the
// indices of its weakest eighth in ascending Ret40 order and the
// positions of its VRT cells, under one byte per weak cell — built under
// sync.Once on the fabric's first scan, never at fabrication, so modules
// that are never scanned do not pay for it. The index turns a set of
// per-DIMM bounds into its candidates: a bank whose lowest Ret40 is at or
// above the bound is skipped without touching its cells, a bank whose
// candidates all fall in its weakest eighth visits just those, and any
// other bank is walked linearly. The bounds depend only on the refresh
// period and the DIMM temperatures, so the fabric keeps the last
// enumeration, a list of each candidate's coordinates, cell key and VRT
// ordinal, and a scan at the same bounds (every run of a campaign on a warm
// board) iterates that list and nothing else. A list longer than
// weakTotal/8 is not kept, so it costs at most 4 bytes per weak cell.
// Each scan draws one bit of its dram/vrt stream per VRT cell in storage
// order; the draws of VRT cells that are not candidates are skipped at
// the generator's register speed, without computing its output. At
// ambient temperature and the paper's 35x-relaxed refresh ~47 of the
// ~240k cells are candidates, in ~45 of the 576 banks, and a scan costs a
// few microseconds; at 60 degC all cells are candidates and each scan
// walks them. Either way every candidate goes through the exact per-cell
// test and results match an exhaustive scan byte for byte.
package dram

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simcache"
	"repro/internal/xrand"
)

// Geometry describes the memory-system topology.
type Geometry struct {
	DIMMs          int
	RanksPerDIMM   int
	DevicesPerRank int // includes the ECC device
	BanksPerDevice int
	RowsPerBank    int
	ColsPerRow     int
	BitsPerCol     int // device data width (x8 parts)
}

// Devices returns the total device (chip) count.
func (g Geometry) Devices() int { return g.DIMMs * g.RanksPerDIMM * g.DevicesPerRank }

// BitsPerBank returns the number of cells in one bank of one device.
func (g Geometry) BitsPerBank() int64 {
	return int64(g.RowsPerBank) * int64(g.ColsPerRow) * int64(g.BitsPerCol)
}

// TotalBits returns the number of cells in the whole memory system.
func (g Geometry) TotalBits() int64 {
	return g.BitsPerBank() * int64(g.BanksPerDevice) * int64(g.Devices())
}

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	if g.DIMMs <= 0 || g.RanksPerDIMM <= 0 || g.DevicesPerRank <= 0 ||
		g.BanksPerDevice <= 0 || g.RowsPerBank <= 0 || g.ColsPerRow <= 0 || g.BitsPerCol <= 0 {
		return errors.New("dram: all geometry fields must be positive")
	}
	if g.DevicesPerRank*g.BitsPerCol != 72 {
		return fmt.Errorf("dram: rank width %d bits, SECDED layout requires 72",
			g.DevicesPerRank*g.BitsPerCol)
	}
	return nil
}

// RetentionModel holds the calibrated retention-physics constants.
type RetentionModel struct {
	// DensityA is the tail coefficient: P(retention@RefTempC < t) = A * t^Beta.
	DensityA float64
	// Beta is the power-law tail exponent.
	Beta float64
	// ThetaC is the temperature constant: retention shrinks e-fold per
	// ThetaC degrees above RefTempC.
	ThetaC float64
	// RefTempC is the temperature at which cell retention values are stored.
	RefTempC float64
	// TailCapS is the largest retention (seconds, at RefTempC) materialized
	// as an explicit weak cell; conditions needing longer-retention cells to
	// fail are outside the model's calibrated envelope.
	TailCapS float64
	// CouplingStrength scales how much a worst-case neighbour pattern
	// reduces effective retention (retention / (1 + strength*stress)).
	CouplingStrength float64
	// VRTFraction is the fraction of weak cells showing variable retention
	// time: they toggle between their base retention and VRTFactor x less,
	// run to run.
	VRTFraction float64
	// VRTFactor is the retention reduction in the VRT-active state.
	VRTFactor float64
}

// Config assembles a full memory-system model description.
type Config struct {
	Geometry  Geometry
	Retention RetentionModel
	// NominalTREFP is the manufacturer refresh period.
	NominalTREFP time.Duration
}

// DefaultConfig returns the paper's memory system: 32 GB of DDR3 as
// 4 DIMMs x 2 ranks x (8+1) x8 4Gbit devices, with retention physics
// calibrated to Table I (see package comment).
func DefaultConfig() Config {
	return Config{
		Geometry: Geometry{
			DIMMs:          4,
			RanksPerDIMM:   2,
			DevicesPerRank: 9,
			BanksPerDevice: 8,
			RowsPerBank:    65536,
			ColsPerRow:     1024,
			BitsPerCol:     8,
		},
		Retention: RetentionModel{
			DensityA:         2.8e-11,
			Beta:             2.5,
			ThetaC:           8.72,
			RefTempC:         40,
			TailCapS:         60,
			CouplingStrength: 0.35,
			VRTFraction:      0.02,
			VRTFactor:        2.0,
		},
		NominalTREFP: 64 * time.Millisecond,
	}
}

// Validate checks the whole configuration.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	r := c.Retention
	if r.DensityA <= 0 || r.Beta <= 0 || r.ThetaC <= 0 || r.TailCapS <= 0 {
		return errors.New("dram: retention model constants must be positive")
	}
	if r.CouplingStrength < 0 || r.VRTFraction < 0 || r.VRTFraction > 1 || r.VRTFactor < 1 {
		return errors.New("dram: coupling/VRT parameters out of range")
	}
	if c.NominalTREFP <= 0 {
		return errors.New("dram: non-positive nominal refresh period")
	}
	return nil
}

// WeakCell is one materialized tail cell of a device bank.
// The floats come first and the narrow fields pack behind them, so a cell
// takes 32 bytes rather than 40.
type WeakCell struct {
	// Ret40 is the cell's retention time in seconds at the model's
	// reference temperature, under a benign (uncoupled) neighbourhood.
	Ret40 float64
	// CoupleSens in [0,1] scales the cell's sensitivity to neighbour
	// coupling stress.
	CoupleSens float64
	Row        uint32
	Col        uint16
	Bit        uint8
	// TrueCell is true when the cell stores logical 1 as charge (so it can
	// only leak — and fail — while holding a 1). Anti-cells are the
	// opposite.
	TrueCell bool
	// VRT marks a variable-retention-time cell.
	VRT bool
}

// bank holds the weak-cell population of one device bank.
type bank struct {
	weak []WeakCell
}

// device is one DRAM chip.
type device struct {
	banks []bank
}

// fabric is the immutable product of fabrication: the materialized
// weak-cell population of every device. It is a pure function of
// (config, seed) and is never written after fabricate returns, so every
// Module of the same population — across servers, workers and campaigns —
// shares one fabric through the process-wide fab pool below.
type fabric struct {
	// devices indexed [dimm][rank][dev].
	devices   [][][]*device
	weakTotal int

	// index is the retention-ordered scan index, built on the first scan
	// (see scanIndex); fabrication never touches it.
	indexOnce sync.Once
	index     []bankIndex
	// cands is the candidate list of the last scan's bounds (see
	// collectFailures), shared by every Module of the population.
	cands atomic.Pointer[candidateList]
}

// fabKey identifies a fabric. Config is a plain value type (geometry ints,
// retention floats, a duration), so the whole key is comparable.
type fabKey struct {
	cfg  Config
	seed uint64
}

// fabPoolCap bounds the fab pool: a fleet campaign's distinct boards are
// at most a few dozen, and one 32 GB-class fabric holds ~240k weak cells
// (~8 MB), so the bound keeps worst-case retention far below what the
// per-worker Server caches used to pin anyway.
const fabPoolCap = 32

var fabPool = simcache.NewMemo[fabKey, *fabric](fabPoolCap)

// Module is the full fabricated memory system: a shared immutable fabric
// plus this module's mutable testbed state (per-DIMM temperatures).
type Module struct {
	cfg  Config
	seed uint64
	// fab is fetched from the fab pool on the module's first scan or
	// WeakCellCount (see fabric), never at construction.
	fabOnce sync.Once
	fab     *fabric
	// dimmTempC is the current regulated temperature of each DIMM.
	dimmTempC []float64
	// bound memoizes the last ExpectedFailureUpperBound answer.
	bound atomic.Pointer[failureBound]
}

// NewModule returns the memory system of (config, seed). It validates the
// config but fabricates nothing: the weak-cell population is a pure
// function of (config, seed), materialized at most once per process per
// (config, seed) by the module's first scan or WeakCellCount, and every
// further module of the same population shares it. A module that is only
// run at nominal refresh — whose ExpectedFailureUpperBound rules out the
// scan — never fabricates.
func NewModule(cfg Config, seed uint64) (*Module, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Module{
		cfg:       cfg,
		seed:      seed,
		dimmTempC: make([]float64, cfg.Geometry.DIMMs),
	}
	for d := range m.dimmTempC {
		m.dimmTempC[d] = 30 // ambient until the testbed sets a target
	}
	return m, nil
}

// fabric returns the module's weak-cell population, fetching it from the
// fab pool on first use. fabricate cannot fail on a validated config, so
// the pool never reports an error here.
func (m *Module) fabric() *fabric {
	m.fabOnce.Do(func() {
		m.fab, _ = fabPool.Get(fabKey{cfg: m.cfg, seed: m.seed}, func() (*fabric, error) {
			return fabricate(m.cfg, m.seed), nil
		})
	})
	return m.fab
}

// FabStats exposes the fab pool's traffic (misses = fabrications actually
// performed) for tests and benchmarks.
func FabStats() simcache.Stats { return fabPool.Stats() }

// FabReset empties the fab pool (tests and cold-path benchmarks).
func FabReset() { fabPool.Reset() }

// fabricate materializes the weak-cell population of a validated config.
// Every device draws from its own dev/<dimm>/<rank>/<device> stream, so
// devices are fabricated on GOMAXPROCS goroutines, each claiming device
// numbers from one counter, and the fabric is the same bit for bit at any
// parallelism.
func fabricate(cfg Config, seed uint64) *fabric {
	root := xrand.New(seed).Split("dram/fab")
	g := cfg.Geometry
	r := cfg.Retention

	// Expected weak cells per device bank: bits * A * TailCap^Beta.
	lambda := float64(g.BitsPerBank()) * r.DensityA * math.Pow(r.TailCapS, r.Beta)
	// The tail sampler's exponent is loop-invariant, so the per-cell
	// inverse-CDF draw u^(1/Beta) reduces to exp(invBeta*log(u)) — the
	// same decomposition math.Pow performs internally, minus Pow's
	// per-call special-case handling for the general (x, y) domain, which
	// the sampler's u in (0,1), fixed positive exponent never needs.
	invBeta := 1 / r.Beta

	// Bank-address-dependent density variation shared across devices
	// (array layout/peripheral differences by bank position); this is the
	// systematic component behind Table I's bank-to-bank spread that
	// survives averaging over 72 chips.
	bankIdxRng := root.Split("bankidx")
	bankIdxMult := make([]float64, g.BanksPerDevice)
	for i := range bankIdxMult {
		bankIdxMult[i] = math.Exp(bankIdxRng.NormMS(0, 0.04))
	}
	var weak atomic.Int64
	fabDevice := func(di, ri, vi int) *device {
		dev := &device{banks: make([]bank, g.BanksPerDevice)}
		devRng := root.Split(fmt.Sprintf("dev/%d/%d/%d", di, ri, vi))
		for bi := range dev.banks {
			// Per-device random density variation on top of the shared
			// bank-index component and Poisson statistics.
			mult := bankIdxMult[bi] * math.Exp(devRng.NormMS(0, 0.06))
			n := devRng.Poisson(lambda * mult)
			cells := make([]WeakCell, n)
			for k := range cells {
				// Inverse-CDF sample of the t^beta tail on (0, cap].
				ret := r.TailCapS * math.Exp(invBeta*math.Log(devRng.Float64()))
				cells[k] = WeakCell{
					Row:        uint32(devRng.Intn(g.RowsPerBank)),
					Col:        uint16(devRng.Intn(g.ColsPerRow)),
					Bit:        uint8(devRng.Intn(g.BitsPerCol)),
					Ret40:      ret,
					TrueCell:   devRng.Bool(),
					CoupleSens: devRng.Float64(),
					VRT:        devRng.Float64() < r.VRTFraction,
				}
			}
			dev.banks[bi] = bank{weak: cells}
			weak.Add(int64(n))
		}
		return dev
	}

	f := &fabric{devices: make([][][]*device, g.DIMMs)}
	for di := range f.devices {
		f.devices[di] = make([][]*device, g.RanksPerDIMM)
		for ri := range f.devices[di] {
			f.devices[di][ri] = make([]*device, g.DevicesPerRank)
		}
	}
	// Device i is (dimm, rank, device) in row-major order. The calling
	// goroutine is one of the workers.
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < g.Devices(); i = int(next.Add(1) - 1) {
			vi := i % g.DevicesPerRank
			ri := i / g.DevicesPerRank % g.RanksPerDIMM
			di := i / (g.DevicesPerRank * g.RanksPerDIMM)
			f.devices[di][ri][vi] = fabDevice(di, ri, vi)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), g.Devices()); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	f.weakTotal = int(weak.Load())
	return f
}

// Config returns the module's configuration.
func (m *Module) Config() Config { return m.cfg }

// WeakCellCount returns the total number of materialized tail cells.
func (m *Module) WeakCellCount() int { return m.fabric().weakTotal }

// SetDIMMTemp sets the regulated temperature of one DIMM (both ranks).
func (m *Module) SetDIMMTemp(dimm int, tempC float64) error {
	if dimm < 0 || dimm >= len(m.dimmTempC) {
		return fmt.Errorf("dram: DIMM %d out of range", dimm)
	}
	if tempC < -20 || tempC > 120 {
		return fmt.Errorf("dram: temperature %v degC out of modelled range", tempC)
	}
	m.dimmTempC[dimm] = tempC
	return nil
}

// SetAllTemps sets every DIMM to the same temperature.
func (m *Module) SetAllTemps(tempC float64) error {
	for d := range m.dimmTempC {
		if err := m.SetDIMMTemp(d, tempC); err != nil {
			return err
		}
	}
	return nil
}

// DIMMTemp returns the current temperature of a DIMM.
func (m *Module) DIMMTemp(dimm int) (float64, error) {
	if dimm < 0 || dimm >= len(m.dimmTempC) {
		return 0, fmt.Errorf("dram: DIMM %d out of range", dimm)
	}
	return m.dimmTempC[dimm], nil
}

// EffectiveRetention returns a cell's retention time (seconds) at the given
// temperature and coupling stress, in the given VRT state.
func (m *Module) EffectiveRetention(c WeakCell, tempC, stress float64, vrtActive bool) float64 {
	r := m.cfg.Retention
	ret := c.Ret40 * math.Exp(-(tempC-r.RefTempC)/r.ThetaC)
	ret /= 1 + r.CouplingStrength*c.CoupleSens*clamp01(stress)
	if c.VRT && vrtActive {
		ret /= r.VRTFactor
	}
	return ret
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
