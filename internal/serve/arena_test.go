package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"testing"

	"repro/internal/workloads"
)

// fig4TestSpec is the paper's Fig. 4 grid (10 SPEC benches x 5 voltages x
// 2 repetitions = 100 records) on one board, seeded by seed.
func fig4TestSpec(seed uint64) Spec {
	var benches []string
	for _, p := range workloads.SPEC2006() {
		benches = append(benches, p.Name)
	}
	return Spec{
		Seed:        seed,
		BoardSeed:   0x5EED_F164,
		Benches:     benches,
		VoltagesMV:  []float64{980, 960, 940, 920, 900},
		Repetitions: 2,
	}
}

// checkArenaFits fails unless a finished campaign retains exactly its
// stream: the arena's bytes are the stream, its capacity is within a tenth
// of them, and the record index has exactly one entry per record.
func checkArenaFits(t *testing.T, c *Campaign, stream []byte, records int) {
	t.Helper()
	c.mu.Lock()
	lines, ends := c.lines, c.ends
	c.mu.Unlock()
	if !bytes.Equal(lines, stream) {
		t.Fatalf("%s: arena (%d bytes) is not the streamed bytes (%d)", c.id, len(lines), len(stream))
	}
	if cap(lines) > len(stream)+len(stream)/10 {
		t.Errorf("%s: arena cap %d for %d stream bytes, want within 10%%", c.id, cap(lines), len(stream))
	}
	if len(ends) != records || cap(ends) != records {
		t.Errorf("%s: record index len %d cap %d, want both %d", c.id, len(ends), cap(ends), records)
	}
}

// TestRetainedArenaFits is the memory gate of the line arena: Fig. 4
// campaigns run to done retain their stream in one arena within a tenth of
// its size, indexed by exactly one end offset per record, and a campaign
// hydrated from its segment after a restart holds the same form.
func TestRetainedArenaFits(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := storeServer(t, dir, Options{})
	streams := map[string][]byte{}
	for seed := uint64(1); seed <= 3; seed++ {
		spec := fig4TestSpec(seed)
		sr := submit(t, ts1, spec, http.StatusAccepted)
		got := streamBytes(t, ts1, sr.ID)
		checkArenaFits(t, s1.lookup(sr.ID), got, expectedRecords(spec))
		streams[sr.Fingerprint] = got
	}
	ts1.Close()
	s1.Close()

	s2, _ := storeServer(t, dir, Options{})
	for seed := uint64(1); seed <= 3; seed++ {
		spec := fig4TestSpec(seed)
		c, cached, err := s2.Submit(spec, "", "")
		if err != nil || !cached {
			t.Fatalf("resubmit after restart: cached=%v err=%v", cached, err)
		}
		checkArenaFits(t, c, streams[c.fingerprint], expectedRecords(spec))
	}
}

// TestStreamBytesCounted: campaignd_stream_bytes_total grows by exactly the
// body a subscriber receives, for an NDJSON stream and for an SSE stream,
// whose terminal done event counts too.
func TestStreamBytesCounted(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	sr := submit(t, ts, testSpec(2), http.StatusAccepted)
	before := s.metrics.streamBytes.Value()
	body := streamBytes(t, ts, sr.ID)
	if got := s.metrics.streamBytes.Value() - before; got != uint64(len(body)) {
		t.Errorf("NDJSON stream: counter grew %d, body is %d bytes", got, len(body))
	}

	before = s.metrics.streamBytes.Value()
	req, _ := http.NewRequest("GET", ts.URL+"/campaigns/"+sr.ID+"/stream", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(body, []byte("event: done\ndata: {\"status\":\"done\"}\n\n")) {
		t.Fatalf("SSE stream does not end with the done event: %q", body[max(0, len(body)-64):])
	}
	if got := s.metrics.streamBytes.Value() - before; got != uint64(len(body)) {
		t.Errorf("SSE stream: counter grew %d, body is %d bytes", got, len(body))
	}
}

// TestServedFig4Allocs bounds the allocations of one warm Fig. 4 campaign
// served in-process, from Submit to the end of its stream, at one worker:
// admission, the queue, the engine's runs and line renders, the arena, the
// journal and segment commit, and the stream's read of the finished
// arena. Each run submits a new fingerprint on the same board. Measured on
// Go 1.24: 539-541. The slack of 30 absorbs toolchain drift and pool misses
// after a GC; one more allocation per record (100 records) or per shard
// (50 shards) fails it.
func TestServedFig4Allocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the plain build's")
	}
	s, err := New(Options{StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := fig4TestSpec(0)
	spec.Workers = 1
	run := func() {
		spec.Seed++
		c, cached, err := s.Submit(spec, "", "")
		if err != nil || cached {
			t.Fatalf("submit: cached %v, err %v", cached, err)
		}
		c.mu.Lock()
		for !c.status.terminal() {
			c.cond.Wait()
		}
		c.mu.Unlock()
		if _, ends, status := c.next(context.Background(), 0); status != StatusDone || len(ends) != 100 {
			t.Fatalf("campaign %s with %d records, want done with 100", status, len(ends))
		}
	}
	run() // warm: fabricate the board
	const bound = 541 + 30
	allocs := testing.AllocsPerRun(10, run)
	t.Logf("served Fig. 4 campaign: %.0f allocs", allocs)
	if allocs > bound {
		t.Errorf("a served warm Fig. 4 campaign allocates %.0f objects, want <= %d", allocs, bound)
	}
}
