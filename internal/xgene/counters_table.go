// Code generated by "go test ./internal/xgene/ -run TestCountersTable -update-golden"; DO NOT EDIT.

package xgene

import (
	"repro/internal/isa"
	"repro/internal/microarch"
)

// builtinCounters maps the simulation input of every built-in workload
// profile (workloads.All) to microarch.Simulate of it at simInstructions
// and simSeed. Mix fractions are in class order: nop add mul fadd fmla.v ldr.l1 ldr.l2 ldr.mem str b.
var builtinCounters = map[simKey]microarch.Counters{
	// backprop
	{
		mix:    [isa.NumClasses]float64{0, 0.08, 0, 0.3, 0.1, 0.28, 0.04, 0.02, 0.14, 0.04},
		stream: microarch.StreamSpec{FootprintBytes: 2147483648, SeqFrac: 0.6, StrideFrac: 0.2, RandomFrac: 0.2, StrideBytes: 512, HotFrac: 0.3, HotBytes: 4194304, CodeFootprintBytes: 0},
	}: {Instructions: 200000, Cycles: 1897998, MemAccesses: 95504, L1DHits: 50551, L2Hits: 328, L3Hits: 1865, DRAMAccesses: 42760, Fetches: 200000, L1IHits: 199872, L1IMisses: 128},
	// bt
	{
		mix:    [isa.NumClasses]float64{0, 0.1499999999999999, 0, 0.28, 0.16, 0.24, 0, 0.02, 0.1, 0.05},
		stream: microarch.StreamSpec{FootprintBytes: 629145600, SeqFrac: 0.6, StrideFrac: 0.2, RandomFrac: 0.2, StrideBytes: 512, HotFrac: 0.2, HotBytes: 1048576, CodeFootprintBytes: 0},
	}: {Instructions: 200000, Cycles: 1467444, MemAccesses: 71957, L1DHits: 38152, L2Hits: 455, L3Hits: 1535, DRAMAccesses: 31815, Fetches: 200000, L1IHits: 199872, L1IMisses: 128},
	// bwaves
	{
		mix:    [isa.NumClasses]float64{0, 0.1, 0, 0.25, 0.05, 0.3, 0.06, 0.04, 0.15, 0.05},
		stream: microarch.StreamSpec{FootprintBytes: 943718400, SeqFrac: 0.7, StrideFrac: 0.2, RandomFrac: 0.1, StrideBytes: 512, HotFrac: 0, HotBytes: 0, CodeFootprintBytes: 0},
	}: {Instructions: 200000, Cycles: 1825501, MemAccesses: 109897, L1DHits: 67624, L2Hits: 98, L3Hits: 898, DRAMAccesses: 41277, Fetches: 200000, L1IHits: 199872, L1IMisses: 128},
	// cactusADM
	{
		mix:    [isa.NumClasses]float64{0, 0.03, 0, 0.15, 0.7, 0.08, 0, 0, 0.03, 0.01},
		stream: microarch.StreamSpec{FootprintBytes: 188743680, SeqFrac: 0.6, StrideFrac: 0.3, RandomFrac: 0.1, StrideBytes: 512, HotFrac: 0, HotBytes: 0, CodeFootprintBytes: 0},
	}: {Instructions: 200000, Cycles: 602182, MemAccesses: 21956, L1DHits: 11513, L2Hits: 123, L3Hits: 199, DRAMAccesses: 10121, Fetches: 200000, L1IHits: 199872, L1IMisses: 128},
	// cg
	{
		mix:    [isa.NumClasses]float64{0, 0.3, 0, 0.12, 0.04, 0.34, 0, 0.05, 0.1, 0.05},
		stream: microarch.StreamSpec{FootprintBytes: 629145600, SeqFrac: 0.6, StrideFrac: 0.2, RandomFrac: 0.2, StrideBytes: 512, HotFrac: 0.2, HotBytes: 1048576, CodeFootprintBytes: 0},
	}: {Instructions: 200000, Cycles: 1914875, MemAccesses: 97600, L1DHits: 51646, L2Hits: 617, L3Hits: 2331, DRAMAccesses: 43006, Fetches: 200000, L1IHits: 199872, L1IMisses: 128},
	// dealII
	{
		mix:    [isa.NumClasses]float64{0, 0.08, 0, 0.35, 0.15, 0.25, 0.03, 0, 0.1, 0.04},
		stream: microarch.StreamSpec{FootprintBytes: 94371840, SeqFrac: 0.4, StrideFrac: 0.3, RandomFrac: 0.3, StrideBytes: 256, HotFrac: 0.4, HotBytes: 2097152, CodeFootprintBytes: 0},
	}: {Instructions: 200000, Cycles: 1982738, MemAccesses: 76130, L1DHits: 27059, L2Hits: 754, L3Hits: 4299, DRAMAccesses: 44018, Fetches: 200000, L1IHits: 199872, L1IMisses: 128},
	// ep
	{
		mix:    [isa.NumClasses]float64{0, 0.11, 0, 0.4, 0.22, 0.12, 0, 0, 0.1, 0.05},
		stream: microarch.StreamSpec{FootprintBytes: 629145600, SeqFrac: 0.6, StrideFrac: 0.2, RandomFrac: 0.2, StrideBytes: 512, HotFrac: 0.2, HotBytes: 1048576, CodeFootprintBytes: 0},
	}: {Instructions: 200000, Cycles: 983641, MemAccesses: 43947, L1DHits: 23175, L2Hits: 318, L3Hits: 763, DRAMAccesses: 19691, Fetches: 200000, L1IHits: 199872, L1IMisses: 128},
	// ft
	{
		mix:    [isa.NumClasses]float64{0, 0.1199999999999999, 0, 0.3, 0.14, 0.26, 0, 0.03, 0.1, 0.05},
		stream: microarch.StreamSpec{FootprintBytes: 629145600, SeqFrac: 0.6, StrideFrac: 0.2, RandomFrac: 0.2, StrideBytes: 512, HotFrac: 0.2, HotBytes: 1048576, CodeFootprintBytes: 0},
	}: {Instructions: 200000, Cycles: 1571328, MemAccesses: 77881, L1DHits: 41257, L2Hits: 487, L3Hits: 1724, DRAMAccesses: 34413, Fetches: 200000, L1IHits: 199872, L1IMisses: 128},
	// gcc
	{
		mix:    [isa.NumClasses]float64{0, 0.35, 0.05, 0, 0, 0.25, 0.05, 0.015, 0.135, 0.15},
		stream: microarch.StreamSpec{FootprintBytes: 125829120, SeqFrac: 0.3, StrideFrac: 0.2, RandomFrac: 0.5, StrideBytes: 128, HotFrac: 0.5, HotBytes: 1048576, CodeFootprintBytes: 0},
	}: {Instructions: 200000, Cycles: 2250304, MemAccesses: 89774, L1DHits: 24420, L2Hits: 3389, L3Hits: 15587, DRAMAccesses: 46378, Fetches: 200000, L1IHits: 199872, L1IMisses: 128},
	// gromacs
	{
		mix:    [isa.NumClasses]float64{0, 0.08, 0, 0.38, 0.2, 0.22, 0, 0, 0.08, 0.04},
		stream: microarch.StreamSpec{FootprintBytes: 31457280, SeqFrac: 0.5, StrideFrac: 0.3, RandomFrac: 0.2, StrideBytes: 128, HotFrac: 0.6, HotBytes: 524288, CodeFootprintBytes: 0},
	}: {Instructions: 200000, Cycles: 1274651, MemAccesses: 59939, L1DHits: 26850, L2Hits: 2344, L3Hits: 5388, DRAMAccesses: 25357, Fetches: 200000, L1IHits: 199872, L1IMisses: 128},
	// is
	{
		mix:    [isa.NumClasses]float64{0, 0.37999999999999995, 0, 0.06, 0, 0.36, 0, 0.05, 0.1, 0.05},
		stream: microarch.StreamSpec{FootprintBytes: 629145600, SeqFrac: 0.6, StrideFrac: 0.2, RandomFrac: 0.2, StrideBytes: 512, HotFrac: 0.2, HotBytes: 1048576, CodeFootprintBytes: 0},
	}: {Instructions: 200000, Cycles: 1987960, MemAccesses: 101492, L1DHits: 53571, L2Hits: 614, L3Hits: 2479, DRAMAccesses: 44828, Fetches: 200000, L1IHits: 199872, L1IMisses: 128},
	// jammer-detector
	{
		mix:    [isa.NumClasses]float64{0, 0.09, 0, 0.28, 0.18, 0.26, 0.03, 0, 0.12, 0.04},
		stream: microarch.StreamSpec{FootprintBytes: 536870912, SeqFrac: 0.7, StrideFrac: 0.2, RandomFrac: 0.1, StrideBytes: 256, HotFrac: 0.5, HotBytes: 4194304, CodeFootprintBytes: 0},
	}: {Instructions: 200000, Cycles: 1339021, MemAccesses: 81666, L1DHits: 50344, L2Hits: 458, L3Hits: 2761, DRAMAccesses: 28103, Fetches: 200000, L1IHits: 199872, L1IMisses: 128},
	// kmeans
	{
		mix:    [isa.NumClasses]float64{0, 0.16, 0, 0.24, 0, 0.3, 0.06, 0.05, 0.12, 0.07},
		stream: microarch.StreamSpec{FootprintBytes: 6442450944, SeqFrac: 0.8, StrideFrac: 0.1, RandomFrac: 0.1, StrideBytes: 1024, HotFrac: 0.1, HotBytes: 2097152, CodeFootprintBytes: 0},
	}: {Instructions: 200000, Cycles: 1408552, MemAccesses: 105629, L1DHits: 74050, L2Hits: 183, L3Hits: 781, DRAMAccesses: 30615, Fetches: 200000, L1IHits: 199872, L1IMisses: 128},
	// lbm
	{
		mix:    [isa.NumClasses]float64{0, 0.1, 0, 0.22, 0.08, 0.28, 0, 0.05, 0.22, 0.05},
		stream: microarch.StreamSpec{FootprintBytes: 419430400, SeqFrac: 0.8, StrideFrac: 0.1, RandomFrac: 0.1, StrideBytes: 1024, HotFrac: 0, HotBytes: 0, CodeFootprintBytes: 0},
	}: {Instructions: 200000, Cycles: 1468617, MemAccesses: 109897, L1DHits: 77018, L2Hits: 87, L3Hits: 536, DRAMAccesses: 32256, Fetches: 200000, L1IHits: 199872, L1IMisses: 128},
	// leslie3d
	{
		mix:    [isa.NumClasses]float64{0, 0.06, 0, 0.3, 0.12, 0.28, 0.05, 0.02, 0.13, 0.04},
		stream: microarch.StreamSpec{FootprintBytes: 136314880, SeqFrac: 0.7, StrideFrac: 0.2, RandomFrac: 0.1, StrideBytes: 768, HotFrac: 0, HotBytes: 0, CodeFootprintBytes: 0},
	}: {Instructions: 200000, Cycles: 1612117, MemAccesses: 95738, L1DHits: 58981, L2Hits: 136, L3Hits: 778, DRAMAccesses: 35843, Fetches: 200000, L1IHits: 199872, L1IMisses: 128},
	// lu
	{
		mix:    [isa.NumClasses]float64{0, 0.18999999999999995, 0, 0.26, 0.12, 0.26, 0, 0.02, 0.1, 0.05},
		stream: microarch.StreamSpec{FootprintBytes: 629145600, SeqFrac: 0.6, StrideFrac: 0.2, RandomFrac: 0.2, StrideBytes: 512, HotFrac: 0.2, HotBytes: 1048576, CodeFootprintBytes: 0},
	}: {Instructions: 200000, Cycles: 1538478, MemAccesses: 76020, L1DHits: 40281, L2Hits: 474, L3Hits: 1679, DRAMAccesses: 33586, Fetches: 200000, L1IHits: 199872, L1IMisses: 128},
	// mcf
	{
		mix:    [isa.NumClasses]float64{0, 0.3, 0, 0, 0, 0.3, 0.08, 0.08, 0.12, 0.12},
		stream: microarch.StreamSpec{FootprintBytes: 1782579200, SeqFrac: 0.1, StrideFrac: 0.2, RandomFrac: 0.7, StrideBytes: 256, HotFrac: 0.3, HotBytes: 262144, CodeFootprintBytes: 0},
	}: {Instructions: 200000, Cycles: 3698162, MemAccesses: 116229, L1DHits: 11089, L2Hits: 5484, L3Hits: 16350, DRAMAccesses: 83306, Fetches: 200000, L1IHits: 199872, L1IMisses: 128},
	// mg
	{
		mix:    [isa.NumClasses]float64{0, 0.19000000000000006, 0, 0.22, 0.1, 0.3, 0, 0.04, 0.1, 0.05},
		stream: microarch.StreamSpec{FootprintBytes: 629145600, SeqFrac: 0.6, StrideFrac: 0.2, RandomFrac: 0.2, StrideBytes: 512, HotFrac: 0.2, HotBytes: 1048576, CodeFootprintBytes: 0},
	}: {Instructions: 200000, Cycles: 1742363, MemAccesses: 87710, L1DHits: 46437, L2Hits: 547, L3Hits: 2040, DRAMAccesses: 38686, Fetches: 200000, L1IHits: 199872, L1IMisses: 128},
	// milc
	{
		mix:    [isa.NumClasses]float64{0, 0.15, 0, 0.3, 0, 0.25, 0.08, 0.03, 0.12, 0.07},
		stream: microarch.StreamSpec{FootprintBytes: 713031680, SeqFrac: 0.5, StrideFrac: 0.3, RandomFrac: 0.2, StrideBytes: 384, HotFrac: 0.2, HotBytes: 524288, CodeFootprintBytes: 0},
	}: {Instructions: 200000, Cycles: 2165663, MemAccesses: 95504, L1DHits: 42387, L2Hits: 781, L3Hits: 3252, DRAMAccesses: 49084, Fetches: 200000, L1IHits: 199872, L1IMisses: 128},
	// namd
	{
		mix:    [isa.NumClasses]float64{0, 0.06, 0, 0.32, 0.3, 0.2, 0, 0, 0.08, 0.04},
		stream: microarch.StreamSpec{FootprintBytes: 47185920, SeqFrac: 0.4, StrideFrac: 0.4, RandomFrac: 0.2, StrideBytes: 192, HotFrac: 0.5, HotBytes: 1048576, CodeFootprintBytes: 0},
	}: {Instructions: 200000, Cycles: 1498027, MemAccesses: 55975, L1DHits: 19861, L2Hits: 935, L3Hits: 3211, DRAMAccesses: 31968, Fetches: 200000, L1IHits: 199872, L1IMisses: 128},
	// nw
	{
		mix:    [isa.NumClasses]float64{0, 0.34, 0, 0, 0, 0.3, 0.06, 0.02, 0.18, 0.1},
		stream: microarch.StreamSpec{FootprintBytes: 8589934592, SeqFrac: 0.3, StrideFrac: 0.5, RandomFrac: 0.2, StrideBytes: 2048, HotFrac: 0.05, HotBytes: 1048576, CodeFootprintBytes: 0},
	}: {Instructions: 200000, Cycles: 3400187, MemAccesses: 111888, L1DHits: 29645, L2Hits: 171, L3Hits: 219, DRAMAccesses: 81853, Fetches: 200000, L1IHits: 199872, L1IMisses: 128},
	// sp
	{
		mix:    [isa.NumClasses]float64{0, 0.1499999999999999, 0, 0.28, 0.14, 0.26, 0, 0.02, 0.1, 0.05},
		stream: microarch.StreamSpec{FootprintBytes: 629145600, SeqFrac: 0.6, StrideFrac: 0.2, RandomFrac: 0.2, StrideBytes: 512, HotFrac: 0.2, HotBytes: 1048576, CodeFootprintBytes: 0},
	}: {Instructions: 200000, Cycles: 1538478, MemAccesses: 76020, L1DHits: 40281, L2Hits: 474, L3Hits: 1679, DRAMAccesses: 33586, Fetches: 200000, L1IHits: 199872, L1IMisses: 128},
	// srad
	{
		mix:    [isa.NumClasses]float64{0, 0.09, 0, 0.32, 0.08, 0.26, 0.05, 0.02, 0.14, 0.04},
		stream: microarch.StreamSpec{FootprintBytes: 5368709120, SeqFrac: 0.7, StrideFrac: 0.2, RandomFrac: 0.1, StrideBytes: 768, HotFrac: 0.2, HotBytes: 2097152, CodeFootprintBytes: 0},
	}: {Instructions: 200000, Cycles: 1562790, MemAccesses: 93515, L1DHits: 57726, L2Hits: 260, L3Hits: 1061, DRAMAccesses: 34468, Fetches: 200000, L1IHits: 199872, L1IMisses: 128},
	// stencil3d
	{
		mix:    [isa.NumClasses]float64{0, 0.05, 0, 0.3, 0.1, 0.3, 0.05, 0.02, 0.15, 0.03},
		stream: microarch.StreamSpec{FootprintBytes: 4294967296, SeqFrac: 0.8, StrideFrac: 0.15, RandomFrac: 0.05, StrideBytes: 4096, HotFrac: 0, HotBytes: 0, CodeFootprintBytes: 0},
	}: {Instructions: 200000, Cycles: 1402098, MemAccesses: 103590, L1DHits: 72763, L2Hits: 75, L3Hits: 22, DRAMAccesses: 30730, Fetches: 200000, L1IHits: 199872, L1IMisses: 128},
}
