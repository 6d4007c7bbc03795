package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is the exposition side of the metrics core: WritePrometheus
// renders a registry in the Prometheus text format (version 0.0.4), and
// Lint re-parses an exposition — every line, every sample — so tests can
// pin the format instead of trusting the writer.

// ContentType is the Content-Type of the text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// expoWriter accumulates sample lines for one family.
type expoWriter struct {
	w   *bufio.Writer
	err error
}

func (e *expoWriter) sample(name, labels, value string) {
	if e.err != nil {
		return
	}
	if labels != "" {
		_, e.err = fmt.Fprintf(e.w, "%s{%s} %s\n", name, labels, value)
		return
	}
	_, e.err = fmt.Fprintf(e.w, "%s %s\n", name, value)
}

func uintVal(v uint64) string { return strconv.FormatUint(v, 10) }
func intVal(v int64) string   { return strconv.FormatInt(v, 10) }
func floatVal(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// floatString renders a histogram bound the way Prometheus clients do:
// shortest round-trip representation.
func floatString(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders every registered family — HELP line, TYPE line,
// then the family's samples — in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriter(w)
	ew := &expoWriter{w: bw}
	for _, f := range r.families {
		if ew.err != nil {
			break
		}
		if f.empty != nil && f.empty() {
			continue // no series minted yet; a sampleless family fails lint
		}
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		f.series(ew)
	}
	if ew.err != nil {
		return ew.err
	}
	return bw.Flush()
}

// Lint parses a text exposition and reports the first format violation:
// malformed lines, samples without a preceding TYPE, duplicate family
// declarations, histogram families missing a +Inf bucket or whose
// cumulative bucket counts decrease, or a histogram _count that
// disagrees with its +Inf bucket. A nil error means every line parsed
// and every family is internally consistent — this is what the /metrics
// pin tests call.
func Lint(r io.Reader) error {
	type fam struct {
		typ        string
		sawSamples bool
		// histogram bookkeeping
		lastCum  uint64
		infCount uint64
		sawInf   bool
		count    uint64
		sawCount bool
	}
	families := make(map[string]*fam)
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || !validMetricName(name) {
				return fmt.Errorf("obs: line %d: malformed HELP: %q", lineNo, line)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || !validMetricName(name) {
				return fmt.Errorf("obs: line %d: malformed TYPE: %q", lineNo, line)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fmt.Errorf("obs: line %d: unknown metric type %q", lineNo, typ)
			}
			if _, dup := families[name]; dup {
				return fmt.Errorf("obs: line %d: duplicate metric family %q", lineNo, name)
			}
			families[name] = &fam{typ: typ}
			order = append(order, name)
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("obs: line %d: %w", lineNo, err)
		}
		base, suffix := splitSuffix(name)
		f := families[base]
		if f == nil || (suffix != "" && f.typ != "histogram" && f.typ != "summary") {
			// A histogram suffix on a non-histogram family means the bare
			// name must have been declared instead.
			f = families[name]
			base, suffix = name, ""
		}
		if f == nil {
			return fmt.Errorf("obs: line %d: sample %q has no TYPE declaration", lineNo, name)
		}
		f.sawSamples = true
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fmt.Errorf("obs: line %d: unparseable value %q: %v", lineNo, value, err)
		}
		if f.typ == "histogram" {
			switch suffix {
			case "_bucket":
				le, ok := labelValue(labels, "le")
				if !ok {
					return fmt.Errorf("obs: line %d: histogram bucket without le label: %q", lineNo, line)
				}
				if le != "+Inf" {
					if _, err := strconv.ParseFloat(le, 64); err != nil {
						return fmt.Errorf("obs: line %d: unparseable le bound %q", lineNo, le)
					}
				}
				cum := uint64(v)
				if cum < f.lastCum {
					return fmt.Errorf("obs: line %d: histogram %s buckets not cumulative (%d after %d)", lineNo, base, cum, f.lastCum)
				}
				f.lastCum = cum
				if le == "+Inf" {
					f.sawInf = true
					f.infCount = cum
				}
			case "_count":
				f.sawCount = true
				f.count = uint64(v)
			case "_sum":
			case "":
				return fmt.Errorf("obs: line %d: bare sample %q for histogram family", lineNo, base)
			}
		} else if math.IsNaN(v) {
			return fmt.Errorf("obs: line %d: NaN value for %s", lineNo, name)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("obs: lint read: %w", err)
	}
	sort.Strings(order)
	for _, name := range order {
		f := families[name]
		if !f.sawSamples {
			return fmt.Errorf("obs: family %q declared but has no samples", name)
		}
		if f.typ == "histogram" {
			if !f.sawInf {
				return fmt.Errorf("obs: histogram %q has no +Inf bucket", name)
			}
			if f.sawCount && f.count != f.infCount {
				return fmt.Errorf("obs: histogram %q _count %d != +Inf bucket %d", name, f.count, f.infCount)
			}
		}
	}
	return nil
}

// parseSample splits "name{labels} value" / "name value".
func parseSample(line string) (name, labels, value string, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.IndexByte(rest, '}')
		if j < i {
			return "", "", "", fmt.Errorf("unterminated label set: %q", line)
		}
		labels = rest[i+1 : j]
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		var ok bool
		name, rest, ok = strings.Cut(rest, " ")
		if !ok {
			return "", "", "", fmt.Errorf("sample without value: %q", line)
		}
	}
	if !validMetricName(name) {
		return "", "", "", fmt.Errorf("invalid metric name %q", name)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional trailing timestamp
		return "", "", "", fmt.Errorf("malformed sample: %q", line)
	}
	return name, labels, fields[0], nil
}

// splitSuffix peels a histogram sample suffix off a metric name.
func splitSuffix(name string) (base, suffix string) {
	for _, s := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, s) {
			return strings.TrimSuffix(name, s), s
		}
	}
	return name, ""
}

// labelValue extracts one label's value from a rendered label set.
func labelValue(labels, key string) (string, bool) {
	for _, part := range strings.Split(labels, ",") {
		k, v, ok := strings.Cut(part, "=")
		if !ok || k != key {
			continue
		}
		return strings.Trim(v, `"`), true
	}
	return "", false
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
