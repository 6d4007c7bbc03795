package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// fullRegistry builds a registry exercising every metric kind with data.
func fullRegistry() *Registry {
	r := NewRegistry()
	c := r.Counter("app_requests_total", "requests served")
	c.Add(42)
	g := r.Gauge("app_queue_length", "queued work")
	g.Set(3)
	v := r.CounterVec("app_results_total", "results by kind", "result", "ok", "err")
	v.With("ok").Add(40)
	v.With("err").Add(2)
	h := r.Histogram("app_latency_seconds", "request latency", nil)
	for i := 0; i < 10; i++ {
		h.Observe(time.Duration(i+1) * time.Millisecond)
	}
	return r
}

// TestWritePrometheusLints pins the exposition format: whatever the writer
// produces must pass the package's own strict parser. This is the
// format-validity pin the /metrics tests' Lint calls rely on.
func TestWritePrometheusLints(t *testing.T) {
	var buf bytes.Buffer
	if err := fullRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := Lint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, buf.String())
	}
}

// TestWritePrometheusShape spot-checks the rendered lines.
func TestWritePrometheusShape(t *testing.T) {
	var buf bytes.Buffer
	if err := fullRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP app_requests_total requests served\n",
		"# TYPE app_requests_total counter\n",
		"app_requests_total 42\n",
		"# TYPE app_queue_length gauge\n",
		"app_queue_length 3\n",
		`app_results_total{result="ok"} 40` + "\n",
		`app_results_total{result="err"} 2` + "\n",
		"# TYPE app_latency_seconds histogram\n",
		`app_latency_seconds_bucket{le="+Inf"} 10` + "\n",
		"app_latency_seconds_count 10\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Buckets are cumulative: the 2.5ms bucket holds observations 1..2ms.
	if !strings.Contains(out, `app_latency_seconds_bucket{le="0.0025"} 2`+"\n") {
		t.Errorf("cumulative 2.5ms bucket wrong:\n%s", out)
	}
}

func TestLintRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE":   "orphan_total 3\n",
		"duplicate family":      "# TYPE a_total counter\na_total 1\n# TYPE a_total counter\na_total 2\n",
		"bad value":             "# TYPE a_total counter\na_total banana\n",
		"unterminated labels":   "# TYPE a_total counter\na_total{x=\"y\" 1\n",
		"invalid name":          "# TYPE a_total counter\na_total 1\n2bad 3\n",
		"missing +Inf":          "# TYPE h histogram\nh_bucket{le=\"1\"} 3\nh_sum 1\nh_count 3\n",
		"non-cumulative":        "# TYPE h histogram\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
		"count != +Inf":         "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 5\n",
		"family without sample": "# TYPE a_total counter\n",
		"unknown type":          "# TYPE a_total widget\na_total 1\n",
	}
	for name, in := range cases {
		if err := Lint(strings.NewReader(in)); err == nil {
			t.Errorf("%s: lint accepted %q", name, in)
		}
	}
}

func TestLintAcceptsWellFormed(t *testing.T) {
	in := strings.Join([]string{
		"# HELP a_total things",
		"# TYPE a_total counter",
		"a_total 12",
		"# TYPE g gauge",
		"g -4.5",
		"# TYPE h histogram",
		`h_bucket{le="0.01"} 1`,
		`h_bucket{le="+Inf"} 2`,
		"h_sum 1.5",
		"h_count 2",
		"",
	}, "\n")
	if err := Lint(strings.NewReader(in)); err != nil {
		t.Fatalf("lint rejected well-formed exposition: %v", err)
	}
}
