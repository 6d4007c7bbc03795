package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// postCampaign is submit for client goroutines: it reports failures as
// errors instead of stopping the test.
func postCampaign(ts *httptest.Server, spec Spec) (submitResponse, error) {
	var sr submitResponse
	body, err := json.Marshal(spec)
	if err != nil {
		return sr, err
	}
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return sr, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return sr, fmt.Errorf("submit status %d: %s", resp.StatusCode, msg)
	}
	return sr, json.NewDecoder(resp.Body).Decode(&sr)
}

// TestConcurrentSubmittersAndTailers drives the daemon over HTTP the way
// a fleet of clients does. At concurrency 2, four submitters of distinct
// specs and two submitters of one identical spec race, and two NDJSON
// tailers per submission follow each stream live. No submission may fail,
// every tail must be byte-identical to its spec's run on a serial server,
// and the identical spec must be characterized exactly once, so the server
// runs one grid and one grid's records per fingerprint.
func TestConcurrentSubmittersAndTailers(t *testing.T) {
	shared := testSpec(2)
	specs := []Spec{shared, shared}
	for i := 0; i < 4; i++ {
		spec := testSpec(1 + i%2)
		spec.Seed = uint64(11 + i)
		specs = append(specs, spec)
	}
	distinct := specs[1:]

	// The reference: each distinct spec alone on a one-campaign server,
	// run by one engine worker.
	want := make(map[uint64][]byte)
	_, ref := newTestServer(t, Options{})
	for _, spec := range distinct {
		spec.Workers = 1
		want[spec.Seed] = streamBytes(t, ref, submit(t, ref, spec, http.StatusAccepted).ID)
	}

	_, ts := newTestServer(t, Options{Concurrency: 2})
	const tailers = 2
	ids := make([]string, len(specs))
	tails := make([][tailers][]byte, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sr, err := postCampaign(ts, spec)
			if err != nil {
				t.Errorf("submitter %d: %v", i, err)
				return
			}
			ids[i] = sr.ID
			var tw sync.WaitGroup
			for j := 0; j < tailers; j++ {
				tw.Add(1)
				go func() {
					defer tw.Done()
					tail, err := tailCampaign(ts, sr.ID)
					if err != nil {
						t.Errorf("submitter %d tailer %d: %v", i, j, err)
					}
					tails[i][j] = tail
				}()
			}
			tw.Wait()
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for i, spec := range specs {
		for j, got := range tails[i] {
			if !bytes.Equal(got, want[spec.Seed]) {
				t.Errorf("submitter %d (seed %d) tailer %d: %d stream bytes differ from the serial run's %d",
					i, spec.Seed, j, len(got), len(want[spec.Seed]))
			}
		}
	}
	if ids[0] != ids[1] {
		t.Errorf("identical specs got campaigns %s and %s, want one", ids[0], ids[1])
	}
	stats := serverStats(t, ts)
	if stats.Submissions != len(specs) || stats.CacheHits != 1 || stats.GridsRun != len(distinct) {
		t.Errorf("stats: %d submissions, %d cache hits, %d grids run; want %d, 1, %d",
			stats.Submissions, stats.CacheHits, stats.GridsRun, len(specs), len(distinct))
	}
	runs := metricValue(t, scrapeMetrics(t, ts.URL), "campaign_runs_total")
	if wantRuns := len(distinct) * expectedRecords(shared); int(runs) != wantRuns {
		t.Errorf("campaign_runs_total = %v, want %d", runs, wantRuns)
	}
}
