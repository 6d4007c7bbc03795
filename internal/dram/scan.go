package dram

import (
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
	maxTemp := m.dimmTempC[0]
	for _, t := range m.dimmTempC[1:] {
		if t > maxTemp {
			maxTemp = t
		}
	}
	// Every run asks, almost always at the same refresh period and
	// temperature as the run before; the last answer is kept.
	if b := m.bound.Load(); b != nil && b.trefp == trefp && b.tempC == maxTemp {
		return b.val
	}
	// The tail CDF is A * x^beta, evaluated at the same retention bound
	// the scan prefilters with.
	r := m.cfg.Retention
	p := r.DensityA * math.Pow(m.worstCaseRet40(trefp, maxTemp), r.Beta)
	val := p * float64(m.cfg.Geometry.TotalBits())
	m.bound.Store(&failureBound{trefp: trefp, tempC: maxTemp, val: val})
	return val
}

// failureBound is ExpectedFailureUpperBound's answer for one (refresh
// period, hottest DIMM temperature) pair.
type failureBound struct {
	trefp time.Duration
	tempC float64
	val   float64
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
// Only cells below their DIMM's worstCaseRet40 bound can fail, and the
// bounds depend only on the refresh period and the DIMM temperatures, so
// the scan first enumerates the candidates of its bounds and then runs the
// exact per-cell test on each. The fabric keeps the last enumeration
// (fabric.cands), shared by every Module of the population: a scan whose
// bounds match it iterates that list and reads nothing else. On a miss the
// candidates come from the retention index (see walk), are tested as they
// are found and are kept for the next scan, unless there are more than
// weakTotal/sparseShare of them (a hot scan, where every cell is a
// candidate): then only the bounds are kept, marked dense, and every scan
// at them walks the index. Either way candidates are tested in storage
// order, failures come out in storage order, and each VRT cell consumes
// the same draw of the dram/vrt stream it would in a walk over every
// cell, so the result does not depend on the path.
func (m *Module) collectFailures(p Pattern, trefp time.Duration, runSeed uint64, wf *workloadFilter) []CellAddr {
	fab := m.fabric()
	s := scanner{
		m:      m,
		p:      p,
		trefpS: trefp.Seconds(),
		vrt:    vrtStream{rng: xrand.New(runSeed).SplitLabel(vrtLabel)},
	}
	if wf != nil {
		s.wf, s.workload = *wf, true
	}
	// The bounds live on the stack; only a kept list copies them.
	var buf [8]float64
	bounds := buf[:0]
	for _, temp := range m.dimmTempC {
		bounds = append(bounds, m.worstCaseRet40(trefp, temp))
	}
	if cl := fab.cands.Load(); cl != nil && slices.Equal(cl.bounds, bounds) {
		if cl.dense {
			s.walk(fab, bounds)
		} else {
			for i := range cl.list {
				c := &cl.list[i]
				s.visit(c, &fab.devices[c.dimm][c.rank][c.dev].banks[c.bank].weak[c.cell])
			}
		}
		return s.fails
	}
	s.keep, s.limit = true, fab.weakTotal/sparseShare
	s.walk(fab, bounds)
	cl := &candidateList{bounds: slices.Clone(bounds), list: s.list, dense: !s.keep}
	fab.cands.Store(cl)
	return s.fails
}

// candidate is one weak cell a scan must test: its coordinates, its
// cellKey and its dram/vrt ordinal (-1 when it is not a VRT cell).
type candidate struct {
	key                         uint64
	dimm, rank, dev, bank, cell int32
	vrt                         int32
}

// candidateList is the enumeration of one set of per-DIMM bounds: the
// candidates in storage order, or dense when they are too many to keep.
// It is immutable once stored on the fabric.
type candidateList struct {
	bounds []float64
	list   []candidate
	dense  bool
}

// scanner is one scan's state: what it tests against and what it found.
// It holds the workload filter by value, so a scan allocates no filter.
type scanner struct {
	m        *Module
	p        Pattern
	wf       workloadFilter
	workload bool
	trefpS   float64
	vrt      vrtStream
	fails    []CellAddr

	// keep asks visit to collect the candidates into list, up to limit of
	// them; visit clears keep and drops list when there are more.
	keep  bool
	limit int
	list  []candidate
}

// walk finds the candidates of the per-DIMM bounds through the fabric's
// retention index and tests each. A bank with no cell below its bound is
// skipped, a bank whose candidates all lie in its indexed low-retention
// share visits just those, in the bank's storage order, and any other bank
// is walked linearly.
func (s *scanner) walk(fab *fabric, bounds []float64) {
	g := s.m.cfg.Geometry
	idx := fab.scanIndex()
	var sparse []int32
	flat := 0
	for di := 0; di < g.DIMMs; di++ {
		bound := bounds[di]
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
					c := candidate{dimm: int32(di), rank: int32(ri), dev: int32(vi), bank: int32(bi)}
					n := sort.Search(len(bx.low), func(i int) bool {
						return weak[bx.low[i]].Ret40 >= bound
					})
					if n < len(bx.low) {
						// Every cell outside low retains at least as long
						// as low[n], which is at or above the bound.
						sparse = append(sparse[:0], bx.low[:n]...)
						slices.Sort(sparse)
						for _, ci := range sparse {
							wc := &weak[ci]
							c.cell, c.key, c.vrt = ci, cellKey(di, ri, vi, bi, wc), -1
							if wc.VRT {
								k, _ := slices.BinarySearch(bx.vrt, ci)
								c.vrt = int32(bx.vrtBase + k)
							}
							s.visit(&c, wc)
						}
						continue
					}
					ord := bx.vrtBase
					for ci := range weak {
						wc := &weak[ci]
						if wc.Ret40 < bound {
							c.cell, c.key, c.vrt = int32(ci), cellKey(di, ri, vi, bi, wc), -1
							if wc.VRT {
								c.vrt = int32(ord)
							}
							s.visit(&c, wc)
						}
						if wc.VRT {
							ord++
						}
					}
				}
			}
		}
	}
}

// visit runs the exact failure test on candidate c, whose cell is wc:
// the workload model when the scan has one, otherwise every round of the
// pattern. While the scan keeps its candidates it also adds c to the list.
func (s *scanner) visit(c *candidate, wc *WeakCell) {
	if s.keep {
		if len(s.list) == s.limit {
			s.keep, s.list = false, nil
		} else {
			s.list = append(s.list, *c)
		}
	}
	vrtActive := c.vrt >= 0 && s.vrt.at(int(c.vrt))
	temp := s.m.dimmTempC[c.dimm]
	var failed bool
	if s.workload {
		failed = s.m.workloadCellFails(&s.wf, c.key, wc, temp, s.trefpS, vrtActive)
	} else {
		failed = s.m.patternCellFails(&s.p, c.key, wc, temp, s.trefpS, vrtActive)
	}
	if failed {
		s.fails = append(s.fails, CellAddr{
			DIMM: int(c.dimm), Rank: int(c.rank), Device: int(c.dev), Bank: int(c.bank),
			Row: wc.Row, Col: wc.Col, Bit: wc.Bit,
		})
	}
}

// sparseShare sets the indexed share of each bank: its 1/sparseShare
// lowest-retention cells. Candidates within that share are sorted back
// into storage order and visited alone, which costs less than walking
// every cell; a bank with more candidates is walked linearly.
const sparseShare = 8

// patternCellFails reports whether a weak cell loses its data in any
// round of the pattern.
func (m *Module) patternCellFails(p *Pattern, key uint64, c *WeakCell, temp, trefpS float64, vrtActive bool) bool {
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
// in increasing order. The draws of the VRT cells in between, which are
// not candidates, are skipped with xrand's Advance: the generator's state
// update alone, on registers, about 1.5 ns a draw on a 2-vCPU Xeon. At
// 30 degC and 2283 ms a scan of board 0x5EED_D4A3 uses 3 draws and skips
// ~3300.
type vrtStream struct {
	rng  xrand.Stream
	next int
}

// vrtLabel names the dram/vrt stream; SplitLabel derives it without
// allocating.
var vrtLabel = xrand.NewLabel("dram/vrt")

// at returns the draw of VRT ordinal ord: whether that cell is in its
// low-retention state this scan.
func (s *vrtStream) at(ord int) bool {
	s.rng.Advance(ord - s.next)
	s.next = ord + 1
	return s.rng.Bool()
}

// bankIndex orders a bank's weakest cells by retention so a scan can find
// the cells that can fail at its refresh period and temperature by binary
// search. It costs under one byte per weak cell.
type bankIndex struct {
	// low lists the indices of the bank's len/sparseShare lowest-Ret40
	// cells in ascending (Ret40, index) order. buildScanIndex selects them
	// and sorts only those.
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
	var cells []retCell
	vrtBase := 0
	for _, ranks := range f.devices {
		for _, devs := range ranks {
			for _, dev := range devs {
				for _, b := range dev.banks {
					bx := bankIndex{vrtBase: vrtBase, minRet: math.Inf(1)}
					cells = cells[:0]
					for i, c := range b.weak {
						cells = append(cells, retCell{c.Ret40, int32(i)})
						bx.minRet = min(bx.minRet, c.Ret40)
						if c.VRT {
							bx.vrt = append(bx.vrt, int32(i))
						}
					}
					low := selectLowest(cells, len(cells)/sparseShare)
					slices.SortFunc(low, retCell.compare)
					bx.low = make([]int32, len(low))
					for i, c := range low {
						bx.low[i] = c.i
					}
					vrtBase += len(bx.vrt)
					idx = append(idx, bx)
				}
			}
		}
	}
	return idx
}

// retCell is a weak cell's Ret40 and its index in the bank. Indices are
// unique, so (ret, i) orders a bank's cells totally.
type retCell struct {
	ret float64
	i   int32
}

func (a retCell) less(b retCell) bool {
	return a.ret < b.ret || a.ret == b.ret && a.i < b.i
}

func (a retCell) compare(b retCell) int {
	switch {
	case a.less(b):
		return -1
	case b.less(a):
		return 1
	}
	return 0
}

// selectLowest reorders s in place so its k lowest cells come first, in no
// particular order, and returns them as s[:k]. It is a quickselect with a
// median-of-three pivot, expected linear in len(s).
func selectLowest(s []retCell, k int) []retCell {
	lo, hi := 0, len(s)-1
	// Invariant: s[:lo] holds the lo lowest cells and s[hi+1:] the
	// highest; the boundary k lies in [lo, hi+1].
	for lo < hi {
		mid := lo + (hi-lo)/2
		if s[mid].less(s[lo]) {
			s[lo], s[mid] = s[mid], s[lo]
		}
		if s[hi].less(s[lo]) {
			s[lo], s[hi] = s[hi], s[lo]
		}
		if s[mid].less(s[hi]) {
			s[mid], s[hi] = s[hi], s[mid]
		}
		// s[hi] is now the median of the three; partition around it.
		p := lo
		for i := lo; i < hi; i++ {
			if s[i].less(s[hi]) {
				s[p], s[i] = s[i], s[p]
				p++
			}
		}
		s[p], s[hi] = s[hi], s[p]
		switch {
		case p == k:
			return s[:k]
		case p < k:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
	return s[:k]
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
