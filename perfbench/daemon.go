package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// daemon is an in-process campaignd: a serve.Server behind a loopback
// http.Server, exactly as cmd/campaignd wires it.
type daemon struct {
	srv  *serve.Server
	http *http.Server
	done chan error
	base string
}

func startDaemon(storeDir string, cacheMax int) (*daemon, error) {
	srv, err := serve.New(serve.Options{StoreDir: storeDir, CacheMax: cacheMax})
	if err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		srv:  srv,
		http: &http.Server{Handler: srv},
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
	}
	go func() { d.done <- d.http.Serve(ln) }()
	return d, nil
}

// stop drains every admitted campaign, closes the listener and waits for
// the serve goroutine, then releases the store.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	derr := d.srv.Drain(ctx)
	serr := d.http.Shutdown(ctx)
	if err := <-d.done; !errors.Is(err, http.ErrServerClosed) {
		serr = errors.Join(serr, err)
	}
	d.srv.Close()
	return errors.Join(derr, serr)
}

// client is the one closed-loop submitter: POST a spec, tail its stream to
// EOF, confirm the terminal status, then send the next.
type client struct {
	http   *http.Client
	tracer *tracer
	// digest hashes every streamed byte of the timed campaigns in order.
	digest hash.Hash
}

func newClient() *client {
	return &client{
		http:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		digest: sha256.New(),
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// outcome is one campaign as the client saw it.
type outcome struct {
	total       time.Duration
	records     int
	fingerprint string
	// body holds the streamed bytes when the campaign is kept for the
	// offline byte-for-byte check.
	body []byte
	err  error
}

type submitReply struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
	Stream      string `json:"stream"`
	TraceID     string `json:"trace_id"`
}

// run sends one campaign and checks it: 2xx on every request, a stream
// that ends cleanly, status done, and a record count matching the plan.
// Streamed bytes go into the digest when hashed is set.
func (c *client) run(base string, spec serve.Spec, keep, hashed bool) outcome {
	var o outcome
	body, err := json.Marshal(spec)
	if err != nil {
		o.err = err
		return o
	}
	trace := obs.NewTraceID()
	t0 := time.Now()
	req, err := http.NewRequest("POST", base+"/campaigns", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Trace-ID", trace)
	var rep submitReply
	if err := c.do(req, &rep); err != nil {
		o.err = fmt.Errorf("submit: %w", err)
		return o
	}
	t1 := time.Now()
	o.fingerprint = rep.Fingerprint
	if rep.TraceID != "" {
		trace = rep.TraceID
	}

	resp, err := c.http.Get(base + rep.Stream)
	if err != nil {
		o.err = fmt.Errorf("stream: %w", err)
		return o
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		o.err = fmt.Errorf("stream: status %d", resp.StatusCode)
		return o
	}
	var sinks []io.Writer
	var kept bytes.Buffer
	if keep {
		sinks = append(sinks, &kept)
	}
	if hashed {
		sinks = append(sinks, c.digest)
	}
	lines := &lineCounter{}
	sinks = append(sinks, lines)
	_, cerr := io.Copy(io.MultiWriter(sinks...), resp.Body)
	resp.Body.Close()
	t2 := time.Now()
	if cerr != nil {
		o.err = fmt.Errorf("stream: %w", cerr)
		return o
	}
	if lines.partial {
		o.err = errors.New("stream: truncated record line")
		return o
	}
	o.records, o.body = lines.n, kept.Bytes()
	o.total = t2.Sub(t0)

	// An NDJSON stream ends with a bare EOF whether the campaign finished
	// or failed; the campaign's state says which.
	sreq, err := http.NewRequest("GET", base+"/campaigns/"+rep.ID, nil)
	if err != nil {
		o.err = err
		return o
	}
	var view serve.View
	if err := c.do(sreq, &view); err != nil {
		o.err = fmt.Errorf("status: %w", err)
		return o
	}
	t3 := time.Now()
	if view.Status != serve.StatusDone {
		o.err = fmt.Errorf("campaign %s: status %s: %s", rep.ID, view.Status, view.Error)
		return o
	}
	if want := planned(spec, view); o.records != want || view.Records != want {
		o.err = fmt.Errorf("campaign %s: streamed %d records, daemon holds %d, plan %d",
			rep.ID, o.records, view.Records, want)
		return o
	}
	if c.tracer != nil {
		root := c.tracer.add("campaign", 0, trace, t0, t2)
		c.tracer.add("serve.submit", root, trace, t0, t1)
		c.tracer.add("serve.stream", root, trace, t1, t2)
		c.tracer.add("serve.status", 0, trace, t2, t3)
	}
	return o
}

// planned is a campaign's expected record count: the full grid for an
// exhaustive spec; for an adaptive one, the runs the engine reports it
// executed (each executed run emits exactly one record).
func planned(spec serve.Spec, view serve.View) int {
	if spec.Strategy == serve.StrategyAdaptive {
		return view.Runs
	}
	return len(spec.Benches) * len(spec.VoltagesMV) * spec.Repetitions
}

// do sends req and decodes a 2xx JSON reply into v.
func (c *client) do(req *http.Request, v any) error {
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// lineCounter counts complete NDJSON lines and notes a torn last line.
type lineCounter struct {
	n       int
	partial bool
}

func (l *lineCounter) Write(p []byte) (int, error) {
	if len(p) > 0 {
		l.n += bytes.Count(p, []byte{'\n'})
		l.partial = p[len(p)-1] != '\n'
	}
	return len(p), nil
}

// scrape reads the daemon's /metrics into name -> value. Labeled series
// keep their label set in the name; only unlabeled ones are used here.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	return out, nil
}
