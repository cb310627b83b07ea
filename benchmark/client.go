package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"time"

	"gpar/internal/graph"
	"gpar/internal/serve"
)

// sample is one operation a client issued.
type sample struct {
	start time.Time
	dur   time.Duration
	bytes int  // response body size
	ok    bool // 2xx and the answer check passed
}

// recorder collects one operation class's samples.
type recorder struct {
	samples  []sample
	firstErr string
}

func (r *recorder) add(s sample, err error) {
	r.samples = append(r.samples, s)
	if err != nil && r.firstErr == "" {
		r.firstErr = err.Error()
	}
}

// window returns the operations that finished inside the measured phase:
// their latencies in milliseconds at nominal machine speed (each divided by
// the slowness of the step it finished in), their response sizes, and the
// attempted and failed counts.
func (r *recorder) window(ph *phase) (latMs, sizes []float64, attempted, failed int) {
	for _, s := range r.samples {
		end := s.start.Add(s.dur)
		if end.Before(ph.from) || !end.Before(ph.to) {
			continue
		}
		attempted++
		if !s.ok {
			failed++
			continue
		}
		latMs = append(latMs, float64(s.dur.Nanoseconds())/1e6/ph.slowAt(end))
		sizes = append(sizes, float64(s.bytes))
	}
	return latMs, sizes, attempted, failed
}

// identifyAnswer is the part of POST /v1/identify's response the benchmark
// checks.
type identifyAnswer struct {
	Identified []graph.NodeID `json:"identified"`
	Count      int            `json:"count"`
	Rules      []struct {
		Key     string `json:"key"`
		Matches int    `json:"matches"`
		Applied bool   `json:"applied"`
		Cached  bool   `json:"cached"`
	} `json:"rules"`
}

// api is a keep-alive HTTP client bound to one daemon.
type api struct {
	hc   *http.Client
	base string
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 8},
		Timeout:   2 * time.Minute,
	}
}

// post sends body and returns the status and the whole response body.
func (a api) post(path string, body []byte) (int, []byte, error) {
	resp, err := a.hc.Post(a.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// identify posts one identify request. rule < 0 asks for the whole set Σ.
func identifyBody(keys []string, rule int) []byte {
	if rule < 0 {
		return []byte(fmt.Sprintf(`{"eta":%g}`, eta))
	}
	return []byte(fmt.Sprintf(`{"rules":[%q],"eta":%g}`, keys[rule], eta))
}

// identify issues one request, times it, and — when refs is non-nil —
// checks the answer: per-rule match counts and applied flags, and the full
// identified ID list, against the in-process reference.
func (a api) identify(keys []string, rule int, refs []ruleRef, sigma []graph.NodeID) (sample, error) {
	body := identifyBody(keys, rule)
	s := sample{start: time.Now()}
	code, data, err := a.post("/v1/identify", body)
	s.dur = time.Since(s.start)
	s.bytes = len(data)
	if err != nil {
		return s, err
	}
	if code != http.StatusOK {
		return s, fmt.Errorf("identify: HTTP %d: %s", code, truncate(data))
	}
	var ans identifyAnswer
	if err := json.Unmarshal(data, &ans); err != nil {
		return s, fmt.Errorf("identify: %w", err)
	}
	if refs != nil {
		if err := checkIdentify(&ans, rule, refs, sigma); err != nil {
			return s, err
		}
	}
	s.ok = true
	return s, nil
}

// checkIdentify compares one identify answer with the reference.
func checkIdentify(ans *identifyAnswer, rule int, refs []ruleRef, sigma []graph.NodeID) error {
	want := refs
	wantIDs := sigma
	if rule >= 0 {
		want = refs[rule : rule+1]
		wantIDs = nil
		if want[0].applied {
			wantIDs = want[0].matches
		}
	}
	if len(ans.Rules) != len(want) {
		return fmt.Errorf("identify: %d rules answered, want %d", len(ans.Rules), len(want))
	}
	for i, r := range ans.Rules {
		if r.Key != want[i].key || r.Matches != len(want[i].matches) || r.Applied != want[i].applied {
			return fmt.Errorf("identify: rule %s: matches=%d applied=%v, reference %s matches=%d applied=%v",
				r.Key, r.Matches, r.Applied, want[i].key, len(want[i].matches), want[i].applied)
		}
	}
	if ans.Count != len(wantIDs) || !slices.Equal(ans.Identified, wantIDs) {
		return fmt.Errorf("identify: identified %d IDs, reference %d (or the lists differ)", ans.Count, len(wantIDs))
	}
	return nil
}

// delta posts one mutation batch and returns the server's report.
func (a api) delta(req serve.DeltaRequest) (sample, *serve.DeltaResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return sample{}, nil, err
	}
	s := sample{start: time.Now()}
	code, data, err := a.post("/v1/graph/delta", body)
	s.dur = time.Since(s.start)
	s.bytes = len(data)
	if err != nil {
		return s, nil, err
	}
	if code != http.StatusAccepted {
		return s, nil, fmt.Errorf("delta: HTTP %d: %s", code, truncate(data))
	}
	var dr serve.DeltaResponse
	if err := json.Unmarshal(data, &dr); err != nil {
		return s, nil, fmt.Errorf("delta: %w", err)
	}
	s.ok = true
	return s, &dr, nil
}

// mineJob submits one mine job and polls it to a terminal state. The sample
// spans submit to done.
func (a api) mineJob(p serve.MineParams) (sample, *serve.Job, error) {
	body, err := json.Marshal(p)
	if err != nil {
		return sample{}, nil, err
	}
	s := sample{start: time.Now()}
	code, data, err := a.post("/v1/mine", body)
	if err != nil {
		return s, nil, err
	}
	if code != http.StatusAccepted {
		return s, nil, fmt.Errorf("mine: HTTP %d: %s", code, truncate(data))
	}
	var job serve.Job
	if err := json.Unmarshal(data, &job); err != nil {
		return s, nil, fmt.Errorf("mine: %w", err)
	}
	for {
		time.Sleep(2 * time.Millisecond)
		if code, err := getJSON(a.hc, a.base+"/v1/jobs/"+job.ID, &job); err != nil || code != http.StatusOK {
			return s, nil, fmt.Errorf("mine: poll %s: HTTP %d: %v", job.ID, code, err)
		}
		switch job.Status {
		case serve.JobDone:
			s.dur = time.Since(s.start)
			s.ok = true
			return s, &job, nil
		case serve.JobFailed, serve.JobCanceled, serve.JobDeadline:
			s.dur = time.Since(s.start)
			return s, &job, fmt.Errorf("mine: %s ended %s: %s", job.ID, job.Status, job.Error)
		}
	}
}

// ruleKeys fetches the served rule keys in index order.
func (a api) ruleKeys() ([]string, error) {
	var rr serve.RulesResponse
	if code, err := getJSON(a.hc, a.base+"/v1/rules", &rr); err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/rules: HTTP %d: %v", code, err)
	}
	keys := make([]string, len(rr.Rules))
	for i, r := range rr.Rules {
		keys[i] = r.Key
	}
	return keys, nil
}

// stats fetches GET /stats.
func (a api) stats() (*serve.StatsResponse, error) {
	var st serve.StatsResponse
	if code, err := getJSON(a.hc, a.base+"/stats", &st); err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("GET /stats: HTTP %d: %v", code, err)
	}
	return &st, nil
}

func truncate(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(bytes.TrimSpace(b))
}
