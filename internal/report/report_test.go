package report

import (
	"strings"
	"testing"
)

func TestTableText(t *testing.T) {
	tb := NewTable("Demo", "bench", "vmin")
	tb.AddRowf("mcf", "0.875")
	tb.AddRowf("milc", "880mV")
	out := tb.String()
	if !strings.Contains(out, "Demo") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "bench") || !strings.Contains(out, "vmin") {
		t.Error("missing headers")
	}
	if !strings.Contains(out, "mcf") || !strings.Contains(out, "880mV") {
		t.Errorf("missing rows in output:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title + header + sep + 2 rows
		t.Errorf("got %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRowf("1", "two,with comma")
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "a,b") {
		t.Errorf("missing csv header: %q", out)
	}
	if !strings.Contains(out, `"two,with comma"`) {
		t.Errorf("comma cell not quoted: %q", out)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("", "x", "longheader")
	tb.AddRowf("aaaaaa", "b")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines[0]) < len("x  longheader") {
		t.Errorf("header row too short: %q", lines[0])
	}
}

func TestBarChart(t *testing.T) {
	c := NewBarChart("BER")
	c.Unit = "%"
	c.Add("random", 10)
	c.Add("allzero", 5)
	c.Add("none", 0)
	out := c.String()
	if !strings.Contains(out, "BER") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), out)
	}
	// random bar must be longer than allzero bar; zero value draws no bar.
	nRand := strings.Count(lines[1], "#")
	nZero := strings.Count(lines[2], "#")
	nNone := strings.Count(lines[3], "#")
	if nRand <= nZero || nNone != 0 {
		t.Errorf("bar lengths wrong: %d, %d, %d\n%s", nRand, nZero, nNone, out)
	}
}

func TestPctAndMV(t *testing.T) {
	if got := Pct(0.202); got != "20.2%" {
		t.Errorf("Pct(0.202) = %q, want 20.2%%", got)
	}
	if got := MV(0.98); got != "980mV" {
		t.Errorf("MV(0.98) = %q, want 980mV", got)
	}
	if got := MV(0.885); got != "885mV" {
		t.Errorf("MV(0.885) = %q, want 885mV", got)
	}
}
