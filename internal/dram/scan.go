package dram

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/ecc"
	"repro/internal/xrand"
)

// ExpectedFailureUpperBound returns a cheap analytic over-estimate of the
// expected number of manifested retention failures for a full-memory scan
// at the given refresh period and the hottest current DIMM temperature,
// assuming worst-case pattern stress everywhere. Callers (the execution
// engine) use it to skip the cell-level scan when the bound is negligible —
// which is every CPU campaign at nominal refresh.
func (m *Module) ExpectedFailureUpperBound(trefp time.Duration) float64 {
	r := m.cfg.Retention
	maxTemp := m.dimmTempC[0]
	for _, t := range m.dimmTempC[1:] {
		if t > maxTemp {
			maxTemp = t
		}
	}
	// The tail CDF is A * x^beta, evaluated at the same retention bound
	// the scan prefilters with.
	p := r.DensityA * math.Pow(m.worstCaseRet40(trefp, maxTemp), r.Beta)
	return p * float64(m.cfg.Geometry.TotalBits())
}

// retBoundSlack widens worstCaseRet40 by a relative 1e-12, far more than
// the handful of roundings by which the bound's product and
// EffectiveRetention's quotient can disagree, so float error can never
// drop a cell the exact test would fail.
const retBoundSlack = 1 + 1e-12

// worstCaseRet40 bounds the reference-temperature retention of any cell
// that can fail a scan at refresh period trefp and temperature tempC. A
// cell fails when its effective retention
//
//	Ret40 * e^(-(T-RefTempC)/theta) / ((1 + coupling*sens*stress) * vrt)
//
// drops below the test interval, which never exceeds trefp. Stress is
// clamped to [0,1], sens lies in [0,1] and the VRT divisor is at most
// VRTFactor, so only cells with Ret40 below the returned value can fail.
func (m *Module) worstCaseRet40(trefp time.Duration, tempC float64) float64 {
	r := m.cfg.Retention
	return trefp.Seconds() * math.Exp((tempC-r.RefTempC)/r.ThetaC) *
		(1 + r.CouplingStrength) * r.VRTFactor * retBoundSlack
}

// CellAddr is the full address of a failed cell.
type CellAddr struct {
	DIMM, Rank, Device, Bank int
	Row                      uint32
	Col                      uint16
	Bit                      uint8
}

// String formats the address for logs.
func (a CellAddr) String() string {
	return fmt.Sprintf("dimm%d.r%d.d%d.b%d[row=%d col=%d bit=%d]",
		a.DIMM, a.Rank, a.Device, a.Bank, a.Row, a.Col, a.Bit)
}

// ScanResult reports the outcome of one full write-wait-read campaign.
type ScanResult struct {
	// Failures lists every unique cell whose data flipped during the scan.
	Failures []CellAddr
	// PerBank counts unique failed locations by bank index, aggregated
	// across all devices (Table I's view of the data).
	PerBank []int
	// CE, UE and SDC count the ECC outcome of every corrupted codeword.
	CE, UE, SDC int
	// ScannedBits is the number of cells covered by the scan.
	ScannedBits int64
	// BER is raw bit failures / scanned bits (before correction).
	BER float64
}

// ScanPattern runs a DPBench over the entire memory system: write the
// pattern, idle for the refresh period at each DIMM's regulated
// temperature, read back, and classify every corrupted 72-bit codeword
// through the real SECDED decoder. runSeed drives run-to-run variation
// (VRT state); the same (module, pattern, trefp, runSeed) reproduces the
// identical result.
func (m *Module) ScanPattern(p Pattern, trefp time.Duration, runSeed uint64) (*ScanResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if trefp <= 0 {
		return nil, errors.New("dram: non-positive refresh period")
	}
	fails := m.collectFailures(p, trefp, runSeed, nil)
	res := m.buildResult(fails, m.cfg.Geometry.TotalBits(), runSeed)
	return res, nil
}

// WorkloadMem describes the memory behaviour of a real application, the
// features that determine its retention-error exposure (Fig. 8a).
type WorkloadMem struct {
	// FootprintBytes is the resident data size.
	FootprintBytes int64
	// HotFraction is the fraction of the footprint re-accessed frequently.
	HotFraction float64
	// ReuseInterval is the typical re-access period of hot rows; touching
	// a row restores its charge (implicit refresh), so hot rows only fail
	// if their retention is shorter than this interval.
	ReuseInterval time.Duration
	// RandomDataFrac is the fraction of the footprint holding high-entropy
	// data; the rest is zero-ish (calloc'd buffers, sparse structures).
	RandomDataFrac float64
}

// Validate reports parameter errors.
func (w WorkloadMem) Validate() error {
	if w.FootprintBytes <= 0 {
		return errors.New("dram: non-positive footprint")
	}
	if w.HotFraction < 0 || w.HotFraction > 1 || w.RandomDataFrac < 0 || w.RandomDataFrac > 1 {
		return errors.New("dram: fractions must be in [0,1]")
	}
	if w.ReuseInterval < 0 {
		return errors.New("dram: negative reuse interval")
	}
	return nil
}

// ScanWorkload evaluates retention errors manifested in a workload's
// memory during execution under the given refresh period. Only cells
// inside the workload footprint can corrupt its output; hot rows are
// implicitly refreshed by accesses.
func (m *Module) ScanWorkload(w WorkloadMem, trefp time.Duration, runSeed uint64) (*ScanResult, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if trefp <= 0 {
		return nil, errors.New("dram: non-positive refresh period")
	}
	total := m.cfg.Geometry.TotalBits()
	footBits := w.FootprintBytes * 8
	if footBits > total {
		footBits = total
	}
	footFrac := float64(footBits) / float64(total)

	fails := m.collectFailures(Pattern{Kind: RandomPattern, Rounds: 1, Seed: runSeed}, trefp, runSeed, &workloadFilter{
		mem:      w,
		footFrac: footFrac,
		seed:     runSeed,
	})
	res := m.buildResult(fails, footBits, runSeed)
	return res, nil
}

// workloadFilter restricts a scan to a workload's footprint and models its
// data contents and access recency.
type workloadFilter struct {
	mem      WorkloadMem
	footFrac float64
	seed     uint64
}

// collectFailures is the shared scan core. When wf is nil the scan covers
// all memory with the given pattern; otherwise the workload filter decides
// residency, stored data and effective refresh per cell.
//
// Only cells below the DIMM's worstCaseRet40 bound can fail, so each bank
// is served from the fabric's retention index: a bank with no cell below
// the bound is skipped, a bank whose candidates all lie in its indexed
// low-retention share visits just those, in the bank's storage order, and
// any other bank is walked linearly. Either way every candidate goes
// through the exact per-cell test, failures come out in storage order, and
// each VRT cell consumes the same draw of the dram/vrt stream it would in
// a walk over every cell, so the result does not depend on the path.
func (m *Module) collectFailures(p Pattern, trefp time.Duration, runSeed uint64, wf *workloadFilter) []CellAddr {
	g := m.cfg.Geometry
	fab := m.fabric()
	idx := fab.scanIndex()
	vrt := vrtStream{rng: xrand.New(runSeed).Split("dram/vrt")}
	trefpS := trefp.Seconds()

	var fails []CellAddr
	var cand []int32
	flat := 0
	for di := 0; di < g.DIMMs; di++ {
		temp := m.dimmTempC[di]
		bound := m.worstCaseRet40(trefp, temp)
		for ri := 0; ri < g.RanksPerDIMM; ri++ {
			for vi := 0; vi < g.DevicesPerRank; vi++ {
				dev := fab.devices[di][ri][vi]
				for bi := range dev.banks {
					weak := dev.banks[bi].weak
					bx := &idx[flat]
					flat++
					if bound <= bx.minRet {
						// No cell of the bank is a candidate. Most banks
						// end here, reading only the index.
						continue
					}
					n := sort.Search(len(bx.low), func(i int) bool {
						return weak[bx.low[i]].Ret40 >= bound
					})
					if n < len(bx.low) {
						// Every cell outside low retains at least as long
						// as low[n], which is at or above the bound.
						cand = append(cand[:0], bx.low[:n]...)
						slices.Sort(cand)
						for _, ci := range cand {
							c := &weak[ci]
							vrtActive := false
							if c.VRT {
								k, _ := slices.BinarySearch(bx.vrt, ci)
								vrtActive = vrt.at(bx.vrtBase + k)
							}
							if m.cellFails(p, wf, cellKey(di, ri, vi, bi, c), c, temp, trefpS, vrtActive) {
								fails = append(fails, cellAddr(di, ri, vi, bi, c))
							}
						}
						continue
					}
					ord := bx.vrtBase
					for ci := range weak {
						c := &weak[ci]
						if c.Ret40 < bound {
							vrtActive := c.VRT && vrt.at(ord)
							if m.cellFails(p, wf, cellKey(di, ri, vi, bi, c), c, temp, trefpS, vrtActive) {
								fails = append(fails, cellAddr(di, ri, vi, bi, c))
							}
						}
						if c.VRT {
							ord++
						}
					}
				}
			}
		}
	}
	return fails
}

func cellAddr(dimm, rank, dev, bankIdx int, c *WeakCell) CellAddr {
	return CellAddr{DIMM: dimm, Rank: rank, Device: dev, Bank: bankIdx, Row: c.Row, Col: c.Col, Bit: c.Bit}
}

// sparseShare sets the indexed share of each bank: its 1/sparseShare
// lowest-retention cells. Candidates within that share are sorted back
// into storage order and visited alone, which costs less than walking
// every cell; a bank with more candidates is walked linearly.
const sparseShare = 8

// cellFails runs the exact failure test on one weak cell: the workload
// model when wf is set, otherwise every round of the pattern.
func (m *Module) cellFails(p Pattern, wf *workloadFilter, key uint64, c *WeakCell, temp, trefpS float64, vrtActive bool) bool {
	if wf != nil {
		return m.workloadCellFails(wf, key, c, temp, trefpS, vrtActive)
	}
	for round := 0; round < p.Rounds; round++ {
		// A cell only leaks while holding its charged state: true-cells
		// charged storing 1, anti-cells charged storing 0.
		if p.storedBit(key, c, round) != c.TrueCell {
			continue
		}
		if m.EffectiveRetention(*c, temp, p.stress(key, c, round), vrtActive) < trefpS {
			return true
		}
	}
	return false
}

// vrtStream hands out the dram/vrt stream's draws by ordinal: draw k
// belongs to the k-th VRT cell in scan order. Ordinals must be requested
// in increasing order; the draws of skipped cells are consumed unseen.
type vrtStream struct {
	rng  *xrand.Stream
	next int
}

func (s *vrtStream) at(ord int) bool {
	for ; s.next < ord; s.next++ {
		s.rng.Uint64()
	}
	s.next++
	return s.rng.Bool()
}

// bankIndex orders a bank's weakest cells by retention so a scan can find
// the cells that can fail at its refresh period and temperature by binary
// search. It costs under one byte per weak cell.
type bankIndex struct {
	// low lists the indices of the bank's len/sparseShare lowest-Ret40
	// cells in ascending Ret40 order.
	low []int32
	// vrt lists the indices of the bank's VRT cells, ascending.
	vrt []int32
	// vrtBase is the dram/vrt ordinal of the bank's first VRT cell.
	vrtBase int
	// minRet is the lowest Ret40 in the bank (+Inf when it has no weak
	// cells). A bound at or below it rules out the whole bank without
	// touching its cells.
	minRet float64
}

// scanIndex returns the fabric's retention index, one bankIndex per bank
// in scan order (dimm, rank, device, bank), building it on first use.
// Fabrics that are never scanned (every CPU campaign at nominal refresh)
// never pay for it.
func (f *fabric) scanIndex() []bankIndex {
	f.indexOnce.Do(func() { f.index = buildScanIndex(f) })
	return f.index
}

func buildScanIndex(f *fabric) []bankIndex {
	var idx []bankIndex
	var order []int32
	vrtBase := 0
	for _, ranks := range f.devices {
		for _, devs := range ranks {
			for _, dev := range devs {
				for _, b := range dev.banks {
					bx := bankIndex{vrtBase: vrtBase, minRet: math.Inf(1)}
					order = order[:0]
					for i, c := range b.weak {
						order = append(order, int32(i))
						bx.minRet = min(bx.minRet, c.Ret40)
						if c.VRT {
							bx.vrt = append(bx.vrt, int32(i))
						}
					}
					slices.SortFunc(order, func(a, c int32) int {
						return cmp.Compare(b.weak[a].Ret40, b.weak[c].Ret40)
					})
					bx.low = append([]int32(nil), order[:len(order)/sparseShare]...)
					vrtBase += len(bx.vrt)
					idx = append(idx, bx)
				}
			}
		}
	}
	return idx
}

// workloadCellFails decides whether a weak cell corrupts workload data.
func (m *Module) workloadCellFails(wf *workloadFilter, key uint64, c *WeakCell, temp, trefpS float64, vrtActive bool) bool {
	// Residency: is this cell inside the workload's footprint?
	if hash01(key^0x5bd1e995) >= wf.footFrac {
		return false
	}
	// Stored data: high-entropy region stores either bit with p=0.5 and
	// imposes sampled coupling stress; zero region stores 0 with baseline
	// stress.
	var stored bool
	var stress float64
	if hash01(key^0x7fb5d329^wf.seed) < wf.mem.RandomDataFrac {
		stored = hash01(key^0x1b873593^wf.seed) < 0.5
		stress = hash01(key ^ 0x85ebca6b ^ wf.seed)
	} else {
		stored = false
		stress = 0.15
	}
	if stored != c.TrueCell {
		return false
	}
	// Access recency: hot rows are implicitly refreshed at the reuse
	// interval; cold rows wait the full refresh period.
	interval := trefpS
	if hash01(key^0xc2b2ae35) < wf.mem.HotFraction {
		reuse := wf.mem.ReuseInterval.Seconds()
		if reuse > 0 && reuse < interval {
			interval = reuse
		}
	}
	return m.EffectiveRetention(*c, temp, stress, vrtActive) < interval
}

// buildResult aggregates failures into Table-I/Fig-8 form and pushes every
// corrupted codeword through the real SECDED decoder.
func (m *Module) buildResult(fails []CellAddr, scannedBits int64, runSeed uint64) *ScanResult {
	g := m.cfg.Geometry
	res := &ScanResult{
		Failures:    fails,
		PerBank:     make([]int, g.BanksPerDevice),
		ScannedBits: scannedBits,
	}
	for _, f := range fails {
		res.PerBank[f.Bank]++
	}
	if scannedBits > 0 {
		res.BER = float64(len(fails)) / float64(scannedBits)
	}

	// Group failures into 72-bit codewords: one codeword per
	// (dimm, rank, bank, row, col) spanning the 9 devices of the rank.
	type cwKey struct {
		dimm, rank, bank int
		row              uint32
		col              uint16
	}
	// Codewords are taken in first-failure order, so each draws the same
	// dataRng value on every run.
	cwIdx := make(map[cwKey]int, len(fails))
	byCW := make([][]CellAddr, 0, len(fails))
	for _, f := range fails {
		k := cwKey{f.DIMM, f.Rank, f.Bank, f.Row, f.Col}
		i, ok := cwIdx[k]
		if !ok {
			i = len(byCW)
			cwIdx[k] = i
			byCW = append(byCW, nil)
		}
		byCW[i] = append(byCW[i], f)
	}
	dataRng := xrand.New(runSeed).Split("dram/cwdata")
	for _, cells := range byCW {
		switch len(cells) {
		case 1:
			res.CE++
		default:
			// Rebuild the actual codeword and decode: double flips are
			// detected (UE); triple and beyond may alias (SDC).
			golden := dataRng.Uint64()
			cw := ecc.Encode(golden)
			for _, f := range cells {
				pos := f.Device*g.BitsPerCol + int(f.Bit) + 1 // 1-based position
				cw = cw.FlipBit(pos)
			}
			switch _, outcome := ecc.Verify(cw, golden); outcome {
			case ecc.Corrected, ecc.OK:
				// Flips cancelled or aliased to a correctable pattern that
				// restored the data; nothing observable.
				res.CE++
			case ecc.Detected:
				res.UE++
			case ecc.Miscorrected:
				res.SDC++
			}
		}
	}
	return res
}

// UniqueBankSpread returns (max-min)/min over the per-bank unique error
// location counts — the paper's bank-to-bank variation metric.
func (r *ScanResult) UniqueBankSpread() float64 {
	if len(r.PerBank) == 0 {
		return 0
	}
	mn, mx := r.PerBank[0], r.PerBank[0]
	for _, v := range r.PerBank[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if mn == 0 {
		return 0
	}
	return float64(mx-mn) / float64(mn)
}
