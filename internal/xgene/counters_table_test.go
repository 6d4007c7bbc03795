package xgene

// The pin of the cache simulator: builtinCounters holds the full Counters
// of every built-in workload profile, and each row must equal a fresh
// microarch.Simulate of its input bit for bit. The hot-path work in
// internal/microarch (flat tag storage, the per-set recency word, the
// repeated-line fast path, reusable hierarchies) may change cost, never
// output: this test is the fence.
//
// Regenerate (only for an intentional model or profile change) with:
//
//	go test ./internal/xgene/ -run TestCountersTable -update-golden

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/microarch"
	"repro/internal/workloads"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite counters_table.go from the current simulator and profiles")

// builtin is the built-in profiles sharing one simulation input.
type builtin struct {
	profile workloads.Profile // the first of them, in workloads.All order
	names   []string
}

// builtinSimKeys groups every built-in profile by its simulation input.
func builtinSimKeys(t *testing.T) map[simKey]*builtin {
	t.Helper()
	keys := make(map[simKey]*builtin)
	for _, p := range workloads.All() {
		k, ok := keyOf(p)
		if !ok {
			t.Fatalf("%s: mix names a class outside the instruction set", p.Name)
		}
		if keys[k.sim] == nil {
			keys[k.sim] = &builtin{profile: p}
		}
		keys[k.sim].names = append(keys[k.sim].names, p.Name)
	}
	return keys
}

// simulate runs the counter simulation of b's profile as the run path
// would on a table miss.
func (b *builtin) simulate(t *testing.T) microarch.Counters {
	t.Helper()
	c, err := microarch.Simulate(b.profile.Mix, b.profile.Stream, simInstructions, simSeed)
	if err != nil {
		t.Fatalf("%v: Simulate: %v", b.names, err)
	}
	return c
}

// TestCountersTable: every built-in profile hits the table, its row equals
// a fresh simulation bit for bit, and no row is left without a profile.
func TestCountersTable(t *testing.T) {
	keys := builtinSimKeys(t)
	if *updateGolden {
		src := renderCountersTable(t, keys)
		if err := os.WriteFile("counters_table.go", src, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote counters_table.go with %d rows", len(keys))
		return
	}
	for k, b := range keys {
		want, ok := builtinCounters[k]
		if !ok {
			t.Errorf("%v: built-in profile misses the table (regenerate with -update-golden)", b.names)
			continue
		}
		if got := b.simulate(t); got != want {
			t.Errorf("%v: counters diverged from the table\n got %+v\nwant %+v", b.names, got, want)
		}
	}
	for k := range builtinCounters {
		if keys[k] == nil {
			t.Errorf("orphaned row: no built-in profile simulates %+v", k)
		}
	}
}

// renderCountersTable simulates every key and renders counters_table.go,
// one row per distinct input, in the order of the first profile name.
func renderCountersTable(t *testing.T, keys map[simKey]*builtin) []byte {
	t.Helper()
	type row struct {
		k simKey
		b *builtin
	}
	rows := make([]row, 0, len(keys))
	for k, b := range keys {
		sort.Strings(b.names)
		rows = append(rows, row{k, b})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].b.names[0] < rows[j].b.names[0] })

	num := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	var b bytes.Buffer
	b.WriteString(`// Code generated by "go test ./internal/xgene/ -run TestCountersTable -update-golden"; DO NOT EDIT.

package xgene

import (
	"repro/internal/isa"
	"repro/internal/microarch"
)

// builtinCounters maps the simulation input of every built-in workload
// profile (workloads.All) to microarch.Simulate of it at simInstructions
// and simSeed. Mix fractions are in class order:`)
	for _, c := range isa.Classes() {
		b.WriteString(" " + c.String())
	}
	b.WriteString(".\nvar builtinCounters = map[simKey]microarch.Counters{\n")
	for _, r := range rows {
		c := r.b.simulate(t)
		mix := make([]string, len(r.k.mix))
		for i, f := range r.k.mix {
			mix[i] = num(f)
		}
		s := r.k.stream
		fmt.Fprintf(&b, "\t// %s\n", strings.Join(r.b.names, ", "))
		fmt.Fprintf(&b, "\t{\n\t\tmix: [isa.NumClasses]float64{%s},\n", strings.Join(mix, ", "))
		fmt.Fprintf(&b, "\t\tstream: microarch.StreamSpec{FootprintBytes: %d, SeqFrac: %s, StrideFrac: %s, RandomFrac: %s, StrideBytes: %d, HotFrac: %s, HotBytes: %d, CodeFootprintBytes: %d},\n",
			s.FootprintBytes, num(s.SeqFrac), num(s.StrideFrac), num(s.RandomFrac), s.StrideBytes, num(s.HotFrac), s.HotBytes, s.CodeFootprintBytes)
		fmt.Fprintf(&b, "\t}: {Instructions: %d, Cycles: %d, MemAccesses: %d, L1DHits: %d, L2Hits: %d, L3Hits: %d, DRAMAccesses: %d, Fetches: %d, L1IHits: %d, L1IMisses: %d},\n",
			c.Instructions, c.Cycles, c.MemAccesses, c.L1DHits, c.L2Hits, c.L3Hits, c.DRAMAccesses, c.Fetches, c.L1IHits, c.L1IMisses)
	}
	b.WriteString("}\n")
	src, err := format.Source(b.Bytes())
	if err != nil {
		t.Fatalf("format generated table: %v\n%s", err, b.Bytes())
	}
	return src
}
