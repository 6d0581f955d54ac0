package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"catsim/internal/dram"
	"catsim/internal/engine"
	"catsim/internal/sim"
)

// testJob is the canonical small job the lifecycle tests submit: epochs
// on, small enough to finish fast, big enough to produce several samples.
func testJob() JobRequest {
	return JobRequest{
		Scheme:   "drcat:counters=64,levels=11",
		Workload: "black",
		Cores:    2,
		Requests: 2000,
		Scale:    0.01,
		Seed:     7,
		Epochs:   8,
	}
}

// newTestServer builds, starts and tears down a server around its
// httptest front end.
func newTestServer(t *testing.T, o Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	return s, startTestServer(t, s)
}

// startTestServer starts a built server behind an httptest front end and
// tears both down when the test ends.
func startTestServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return ts
}

// submit POSTs a job and decodes the submission response.
func submit(t testing.TB, ts *httptest.Server, req JobRequest, wantCode int) jobStatus {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("POST /v1/jobs = %d, want %d (body: %s)", resp.StatusCode, wantCode, raw)
	}
	var st jobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("decoding submission response %q: %v", raw, err)
	}
	return st
}

// streamBody fetches a job's full NDJSON stream to completion.
func streamBody(t testing.TB, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET stream = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q, want application/x-ndjson", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// parseStream decodes an NDJSON stream into its samples and final line.
func parseStream(t *testing.T, body []byte) (samples []engine.Sample, result *sim.Result, errMsg string) {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var line struct {
			Sample *engine.Sample  `json:"sample"`
			Result json.RawMessage `json:"result"`
			Error  string          `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Sample != nil:
			if result != nil || errMsg != "" {
				t.Fatal("sample after the terminal line")
			}
			samples = append(samples, *line.Sample)
		case line.Result != nil:
			result = &sim.Result{}
			if err := json.Unmarshal(line.Result, result); err != nil {
				t.Fatal(err)
			}
		case line.Error != "":
			errMsg = line.Error
		default:
			t.Fatalf("empty stream line %q", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples, result, errMsg
}

// TestJobLifecycle is the tentpole contract: POST → stream → result, with
// the streamed samples and final result byte-identical to a direct
// sim.Run of the same config.
func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	req := testJob()
	st := submit(t, ts, req, http.StatusAccepted)
	if st.State != "queued" || st.Cached {
		t.Errorf("fresh submission = %+v, want queued/uncached", st)
	}

	samples, result, errMsg := parseStream(t, streamBody(t, ts, st.ID))
	if errMsg != "" {
		t.Fatalf("stream failed: %s", errMsg)
	}
	if result == nil {
		t.Fatal("stream ended without a result line")
	}
	if len(samples) == 0 {
		t.Fatal("stream carried no epoch samples")
	}

	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(*result)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("streamed result diverges from direct sim.Run:\n got: %s\nwant: %s", gotJSON, wantJSON)
	}
	sJSON, _ := json.Marshal(samples)
	eJSON, _ := json.Marshal(want.Epochs)
	if !bytes.Equal(sJSON, eJSON) {
		t.Errorf("streamed samples diverge from Result.Epochs (%d vs %d)", len(samples), len(want.Epochs))
	}

	// Status endpoint agrees once done.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.State != "done" || got.Samples != len(samples) {
		t.Errorf("status after completion = %+v", got)
	}

	// A second job differing only in seed lands on the same worker
	// (Workers: 1) and must reuse its pooled run context instead of
	// building a fresh component stack — observable through /v1/stats.
	next := testJob()
	next.Seed = 8
	st2 := submit(t, ts, next, http.StatusAccepted)
	if _, res2, _ := parseStream(t, streamBody(t, ts, st2.ID)); res2 == nil {
		t.Fatal("second job did not complete")
	}
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["engine_runs"] != 2 || stats["jobs"] != 2 {
		t.Errorf("stats after two jobs = %v, want engine_runs=2 jobs=2", stats)
	}
	if stats["context_builds"] < 1 || stats["context_reuses"] < 1 {
		t.Errorf("context pool stats = builds %d, reuses %d; want at least one build and one reuse",
			stats["context_builds"], stats["context_reuses"])
	}
}

// TestRepeatPostServedFromCache: an identical job POSTed twice — even
// spelled with explicit defaults — streams byte-identical NDJSON with the
// second served from the sim.CacheKey-interned job: zero new engine runs.
func TestRepeatPostServedFromCache(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	st1 := submit(t, ts, testJob(), http.StatusAccepted)
	first := streamBody(t, ts, st1.ID)

	if runs := s.EngineRuns(); runs != 1 {
		t.Fatalf("engine runs after first job = %d, want 1", runs)
	}
	respelled := testJob()
	respelled.Threshold = 32768 // the default, spelled out
	respelled.Seed = 7
	st2 := submit(t, ts, respelled, http.StatusOK)
	if !st2.Cached || st2.ID != st1.ID {
		t.Fatalf("second POST = %+v, want cached attach to %s", st2, st1.ID)
	}
	second := streamBody(t, ts, st2.ID)
	if !bytes.Equal(first, second) {
		t.Error("replayed stream is not byte-identical to the live stream")
	}
	if runs := s.EngineRuns(); runs != 1 {
		t.Errorf("engine runs after repeat POST = %d, want 1 (no new work)", runs)
	}
}

// TestConcurrentStreamsWhileRunning: a stream attached before the run
// finishes sees the same bytes as one attached after.
func TestConcurrentStreamsWhileRunning(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	req := testJob()
	req.Requests = 4000
	st := submit(t, ts, req, http.StatusAccepted)
	type streamOut struct{ body []byte }
	live := make(chan streamOut)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
		if err != nil {
			live <- streamOut{}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		live <- streamOut{body: b}
	}()
	after := streamBody(t, ts, st.ID) // blocks until done
	liveOut := <-live
	if liveOut.body == nil {
		t.Fatal("live stream failed")
	}
	if !bytes.Equal(liveOut.body, after) {
		t.Error("live stream diverges from post-hoc replay")
	}
}

// TestResultEndpoint: /result blocks until done and returns the bare
// sim.Result JSON.
func TestResultEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	st := submit(t, ts, testJob(), http.StatusAccepted)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result = %d", resp.StatusCode)
	}
	var res sim.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Counts.Activations == 0 {
		t.Error("result carries no activations")
	}
}

// TestPRAProbabilityFromUnscaledThreshold: a pra job without p runs the
// paper's p for its unscaled threshold (0.002 at T=32K, 0.001 at 64K), not
// the p its scaled threshold would select.
func TestPRAProbabilityFromUnscaledThreshold(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for scheme, want := range map[string]string{"pra": "PRA_0.002", "pra:threshold=65536": "PRA_0.001"} {
		st := submit(t, ts, JobRequest{Scheme: scheme, Workload: "black", Requests: 1000}, http.StatusAccepted)
		_, res, errMsg := parseStream(t, streamBody(t, ts, st.ID))
		if res == nil {
			t.Fatalf("%s: job failed: %s", scheme, errMsg)
		}
		if res.SchemeLabel != want {
			t.Errorf("%s: label %s, want %s", scheme, res.SchemeLabel, want)
		}
	}
}

// TestSSEFraming: the same stream framed as server-sent events.
func TestSSEFraming(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	st := submit(t, ts, testJob(), http.StatusAccepted)

	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+st.ID+"/stream", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, "event: sample\ndata: {") {
		t.Error("missing sample events")
	}
	if !strings.HasSuffix(strings.TrimRight(text, "\n"), "}") || !strings.Contains(text, "event: result\ndata: {") {
		t.Error("missing terminal result event")
	}
	// The SSE result payload equals the NDJSON result payload.
	ndSamples, ndResult, _ := parseStream(t, streamBody(t, ts, st.ID))
	wantResult, _ := json.Marshal(ndResult)
	if !strings.Contains(text, "event: result\ndata: "+string(wantResult)+"\n\n") {
		t.Error("SSE result payload diverges from NDJSON result payload")
	}
	if wantFirst, _ := json.Marshal(ndSamples[0]); !strings.Contains(text, "data: "+string(wantFirst)+"\n\n") {
		t.Error("SSE sample payload diverges from NDJSON sample payload")
	}
}

// malformedRequests are POST bodies the server must reject with a 400
// whose error contains want.
var malformedRequests = []struct {
	name string
	body string
	want string // substring of the error body
}{
	{"not json", `{`, "bad request body"},
	{"unknown field", `{"scheme":"sca:counters=16","workload":"black","bogus":1}`, "bogus"},
	{"trailing bytes", `{"scheme":"sca:counters=16","workload":"black","requests":100} garbage`, "after the job object"},
	{"second object", `{"scheme":"sca:counters=16","workload":"black","requests":100}{"workload":"nope"}`, "after the job object"},
	{"missing workload", `{"scheme":"sca:counters=16"}`, "missing workload"},
	{"missing scheme", `{"workload":"black"}`, "missing scheme"},
	{"unknown scheme kind", `{"scheme":"bogus:counters=1","workload":"black"}`, "unknown scheme kind"},
	{"scheme kind listing", `{"scheme":"bogus:counters=1","workload":"black"}`, "valid:"},
	{"bad scheme param", `{"scheme":"sca:bogus=1","workload":"black"}`, `unknown param "bogus"`},
	{"bad param value", `{"scheme":"sca:counters=abc","workload":"black"}`, "want number"},
	{"unknown workload", `{"scheme":"sca:counters=16","workload":"nope"}`, `unknown workload "nope"`},
	{"workload listing", `{"scheme":"sca:counters=16","workload":"nope"}`, "ol-poisson"},
	{"unknown geometry", `{"scheme":"sca:counters=16","workload":"black","geometry":"nope"}`, "unknown preset"},
	{"bad geometry field", `{"scheme":"sca:counters=16","workload":"black","geometry":"ddr5:bogus=1"}`, `unknown field "bogus"`},
	{"geometry bytes overflow", `{"scheme":"sca:counters=16","workload":"black","geometry":"2ch:channels=1Mi,banks=1Mi"}`, "overflows int64"},
	{"geometry bytes at 2^63", `{"scheme":"sca:counters=16","workload":"black","geometry":"2ch:channels=1Gi"}`, "overflows int64"},
	{"geometry banks overflow", `{"scheme":"sca:counters=16","workload":"black","geometry":"2ch:channels=1Gi,ranks=1Gi,rows=1Gi,colbytes=1Gi"}`, "overflows int64"},
	{"geometry too large", `{"scheme":"sca:counters=16","workload":"black","geometry":"2ch:channels=1Ki"}`, "row limit"},
	{"bad scale", `{"scheme":"sca:counters=16","workload":"black","scale":2}`, "scale 2 out of"},
	{"threshold underflow", `{"scheme":"sca:counters=16","workload":"black","threshold":10,"scale":0.01}`, "rounds to zero"},
	{"huge budget", `{"scheme":"sca:counters=16","workload":"black","requests":99999999}`, "out of [1,"},
	{"huge closed-loop total", `{"scheme":"sca:counters=16","workload":"black","cores":4096,"requests":10000000}`, "request job budget"},
	{"huge core count", `{"scheme":"sca:counters=16","workload":"black","cores":4194304}`, "request job budget"},
	{"epoch too short", `{"scheme":"sca:counters=16","workload":"black","epoch_ns":1}`, "shorter than"},
	{"too many epochs", `{"scheme":"sca:counters=16","workload":"black","epochs":1000000000000}`, "shorter than"},
	{"epochs conflict", `{"scheme":"sca:counters=16","workload":"black","epochs":4,"epoch_ns":100}`, "mutually exclusive"},
	{"attacker on closed loop", `{"scheme":"sca:counters=16","workload":"black","attacker":0.5}`, "open-loop"},
	{"shards without affine", `{"scheme":"sca:counters=16","workload":"black","shards":4}`, "channel-affine"},
}

// TestMalformedRequests is the 400-table satellite: every Parse* grammar
// error surfaces as a 400 whose body carries the valid-set listing the
// CLIs print on exit 2.
func TestMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for _, tc := range malformedRequests {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body: %s)", resp.StatusCode, raw)
			}
			var envelope struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(raw, &envelope); err != nil {
				t.Fatalf("400 body %q is not the JSON error envelope: %v", raw, err)
			}
			if !strings.Contains(envelope.Error, tc.want) {
				t.Errorf("error %q missing %q", envelope.Error, tc.want)
			}
		})
	}
}

// FuzzJobRequest decodes arbitrary POST bodies with the submit handler's
// decoder and checks what the server relies on: it never panics; an
// accepted closed-loop job asks for at most maxRequests requests in
// total; and the normalized request, round-tripped through JSON as a
// snapshot persists it, is accepted again with the same sim.CacheKey, so
// snapshot resume rebuilds the same job.
func FuzzJobRequest(f *testing.F) {
	for _, tc := range malformedRequests {
		f.Add(tc.body)
	}
	for _, req := range []JobRequest{
		testJob(),
		{Scheme: "drcat:counters=64,levels=11", Workload: "ol-bursty", Requests: 4000, Attacker: 0.25, Threshold: 1600, Seed: 7, Epochs: 8},
		{Scheme: "sca:counters=16", Workload: "black", Geometry: "ddr5", Cores: 8, Affine: true, Shards: 8, EpochNS: 5000, Oracle: true},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(body))
	}
	f.Fuzz(func(t *testing.T, body string) {
		req, err := decodeJobRequest(strings.NewReader(body))
		if err != nil {
			return
		}
		cfg, err := req.Config()
		if err != nil {
			return
		}
		if cfg.OpenLoop == nil && int64(cfg.Cores)*int64(cfg.RequestsPerCore) > maxRequests {
			t.Fatalf("accepted %d cores × %d requests, above %d", cfg.Cores, cfg.RequestsPerCore, maxRequests)
		}
		persisted, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		again, err := decodeJobRequest(bytes.NewReader(persisted))
		if err != nil {
			t.Fatalf("normalized request %s does not decode: %v", persisted, err)
		}
		cfg2, err := again.Config()
		if err != nil {
			t.Fatalf("normalized request %s rejected: %v", persisted, err)
		}
		if k1, k2 := sim.CacheKey(cfg), sim.CacheKey(cfg2); k1 != k2 {
			t.Fatalf("cache key changed across normalization:\n%s\n%s", k1, k2)
		}
	})
}

// TestGeometryLimitAdmitsPresets: the tracked-row bound rejects oversized
// geometries only, never a registered preset.
func TestGeometryLimitAdmitsPresets(t *testing.T) {
	for _, p := range dram.Geometries() {
		req := JobRequest{Scheme: "sca:counters=16", Workload: "black", Geometry: p.Name}
		if _, err := req.Config(); err != nil {
			t.Errorf("preset %s rejected: %v", p.Name, err)
		}
	}
}

// TestUnknownJob404 covers the job-miss paths.
func TestUnknownJob404(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for _, path := range []string{"/v1/jobs/jdeadbeef", "/v1/jobs/jdeadbeef/stream", "/v1/jobs/jdeadbeef/result"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestQueueFull503: with no workers started, a bounded queue rejects the
// overflow POST with 503 — and forgets it, so a retry can succeed.
func TestQueueFull503(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately not Started: jobs stay queued.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := submit(t, ts, testJob(), http.StatusAccepted)
	second := testJob()
	second.Seed = 99
	body, _ := json.Marshal(second)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow POST = %d, want 503 (body: %s)", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "queue full") {
		t.Errorf("503 body %q should name the full queue", raw)
	}
	// The rejected job left no residue: the store only holds the first.
	if n := len(s.store.jobs()); n != 1 {
		t.Errorf("store holds %d jobs after rejection, want 1", n)
	}

	// Start drains the queue; once the worker has taken the first job,
	// the retry lands. A retry sent right after Start could still find
	// the queue full.
	s.Start()
	if _, result, _ := parseStream(t, streamBody(t, ts, first.ID)); result == nil {
		t.Fatal("queued job did not complete")
	}
	st := submit(t, ts, second, http.StatusAccepted)
	if _, result, _ := parseStream(t, streamBody(t, ts, st.ID)); result == nil {
		t.Error("retried job did not complete")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Error(err)
	}
}

// TestFailedJobStreams: a config that validates but fails at run time
// surfaces as a failed state and a terminal error line. Scheme
// construction happens inside sim.Run, not at POST validation, so an SCA
// counter count that does not divide the rows per bank is accepted at
// submission and fails in the worker.
func TestFailedJobStreams(t *testing.T) {
	req := JobRequest{Scheme: "sca:counters=7", Workload: "black", Requests: 100}
	cfg, err := req.Config()
	if err != nil {
		t.Fatalf("config should pass static validation, got %v", err)
	}
	if _, err := sim.Run(cfg); err == nil {
		t.Fatal("config runs fine; the late-failure fixture needs updating")
	}
	_, ts := newTestServer(t, Options{Workers: 1})
	st := submit(t, ts, req, http.StatusAccepted)
	_, result, errMsg := parseStream(t, streamBody(t, ts, st.ID))
	if result != nil || errMsg == "" {
		t.Errorf("failing job streamed result=%v err=%q, want terminal error", result, errMsg)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("result of failed job = %d, want 500", resp.StatusCode)
	}
}

// TestPanickingJobFailsAndWorkerSurvives: a run that panics mid-run
// (injected through the server's run seam, from inside the pooled run)
// fails its job with the panic text and a terminal stream error line, and
// the single worker then completes a normal job on a freshly built
// context: the panicking run's context never went back to the pool.
func TestPanickingJobFailsAndWorkerSurvives(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	const faultSeed = 666
	run := s.run
	s.run = func(cfg sim.Config) (sim.Result, error) {
		if cfg.Seed == faultSeed {
			cfg.OnSample = func(engine.Sample) { panic("injected fault") }
		}
		return run(cfg)
	}
	ts := startTestServer(t, s)

	bad := testJob()
	bad.Seed = faultSeed
	st := submit(t, ts, bad, http.StatusAccepted)
	_, result, errMsg := parseStream(t, streamBody(t, ts, st.ID))
	if result != nil || !strings.Contains(errMsg, "injected fault") {
		t.Fatalf("panicking job streamed result=%v err=%q, want a terminal error naming the panic", result, errMsg)
	}
	j := s.store.jobs()[0]
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	if state != StateFailed {
		t.Errorf("panicking job state = %v, want failed", state)
	}

	good := testJob()
	st = submit(t, ts, good, http.StatusAccepted)
	_, result, errMsg = parseStream(t, streamBody(t, ts, st.ID))
	if result == nil {
		t.Fatalf("job after the panic did not complete: %s", errMsg)
	}
	cfg, err := good.Config()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(*result)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("job after the panic diverges from direct sim.Run:\n got: %s\nwant: %s", gotJSON, wantJSON)
	}
	if builds, reuses := s.ContextStats(); builds != 2 || reuses != 0 {
		t.Errorf("context pool builds %d, reuses %d; want 2 and 0 (the panicking run's context dropped)", builds, reuses)
	}
}

// TestDrainFinishesInFlightJob: Close lets the in-flight job finish, so a
// stream attached to it ends with its result and /result returns 200,
// while the job queued behind it ends its stream with the shutdown error.
// A POST during the drain gets 503. The run seam holds the first job
// after its first sample until Close has begun.
func TestDrainFinishesInFlightJob(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sampled, release := make(chan struct{}), make(chan struct{})
	hold := sync.OnceFunc(func() { close(sampled); <-release })
	run := s.run
	s.run = func(cfg sim.Config) (sim.Result, error) {
		onSample := cfg.OnSample
		cfg.OnSample = func(smp engine.Sample) { onSample(smp); hold() }
		return run(cfg)
	}
	ts := startTestServer(t, s)
	releaseHeld := sync.OnceFunc(func() { close(release) })
	// On an early failure, let the job finish and stop the server, so the
	// front end's teardown does not wait on the open streams.
	defer func() {
		releaseHeld()
		s.Close(context.Background())
	}()

	held := testJob()
	held.Requests, held.Epochs = 50000, 64
	heldID := submit(t, ts, held, http.StatusAccepted).ID
	select {
	case <-sampled:
	case <-time.After(30 * time.Second):
		t.Fatal("held job never streamed its first sample")
	}
	queuedID := submit(t, ts, testJob(), http.StatusAccepted).ID

	get := func(path string) *http.Response {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	heldStream := bufio.NewReader(get(heldID + "/stream").Body)
	first, err := heldStream.ReadBytes('\n')
	if err != nil || !bytes.HasPrefix(first, []byte(`{"sample":`)) {
		t.Fatalf("held stream's first line = %q, %v; want a sample", first, err)
	}
	queuedStream := get(queuedID + "/stream").Body
	type reply struct {
		code int
		body []byte
	}
	heldResult := make(chan reply, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + heldID + "/result")
		if err != nil {
			t.Error(err)
			heldResult <- reply{}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		heldResult <- reply{resp.StatusCode, body}
	}()

	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		closed <- s.Close(ctx)
	}()
	// A repeat POST is a cache hit (200) until Close begins, then 503.
	body, _ := json.Marshal(held)
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if !strings.Contains(string(raw), "server shutting down") {
				t.Errorf("503 during the drain = %s, want the shutdown error", raw)
			}
			break
		}
		if resp.StatusCode != http.StatusOK || time.Now().After(deadline) {
			t.Fatalf("POST during the drain = %d (body: %s), want 200 until Close begins, then 503", resp.StatusCode, raw)
		}
	}
	releaseHeld()

	cfg, err := held.Config()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	rest, err := io.ReadAll(heldStream)
	if err != nil {
		t.Fatal(err)
	}
	samples, result, errMsg := parseStream(t, append(first, rest...))
	if result == nil {
		t.Fatalf("held stream ended with %q after %d samples, want its result", errMsg, len(samples))
	}
	if gotJSON, _ := json.Marshal(*result); !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("held stream's result diverges from direct sim.Run:\n got: %s\nwant: %s", gotJSON, wantJSON)
	}
	if got, want := len(samples), len(want.Epochs); got != want || got < 2 {
		t.Errorf("held stream carried %d samples, want all %d (at least 2)", got, want)
	}
	if r := <-heldResult; r.code != http.StatusOK || !bytes.Equal(bytes.TrimSpace(r.body), wantJSON) {
		t.Errorf("held /result = %d %s, want 200 with the direct sim.Run result", r.code, r.body)
	}
	queued, err := io.ReadAll(queuedStream)
	if err != nil {
		t.Fatal(err)
	}
	if samples, result, errMsg := parseStream(t, queued); len(samples) != 0 || result != nil ||
		errMsg != "server shutting down before the job ran" {
		t.Errorf("queued stream = %d samples, result %v, error %q; want only the shutdown error", len(samples), result, errMsg)
	}
	if err := <-closed; err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestShardedJobStreams: a sharded job streams the deterministically
// merged sample order (the sim-layer contract, end to end over HTTP).
func TestShardedJobStreams(t *testing.T) {
	req := testJob()
	req.Geometry = "4ch"
	req.Affine = true
	req.Shards = 4
	seqReq := testJob()
	seqReq.Geometry = "4ch"
	seqReq.Affine = true

	_, ts := newTestServer(t, Options{Workers: 2})
	shSt := submit(t, ts, req, http.StatusAccepted)
	seqSt := submit(t, ts, seqReq, http.StatusAccepted)
	shSamples, shRes, _ := parseStream(t, streamBody(t, ts, shSt.ID))
	seqSamples, seqRes, _ := parseStream(t, streamBody(t, ts, seqSt.ID))
	if shRes == nil || seqRes == nil {
		t.Fatal("jobs did not complete")
	}
	a, _ := json.Marshal(shSamples)
	b, _ := json.Marshal(seqSamples)
	if !bytes.Equal(a, b) {
		t.Error("sharded stream order diverges from sequential")
	}
}

// TestPooledOracleMatchesItsJob: one worker's pooled run context serves a
// protection job on 16Ki-row banks, then a job on the default geometry
// without the oracle, then the same job with it. The third job must build
// an oracle for its own geometry rather than reuse the first job's, and
// return what a direct sim.Run does.
func TestPooledOracleMatchesItsJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	jobs := []JobRequest{
		{Scheme: "sca:counters=64", Workload: "black", Oracle: true, Geometry: "2ch:rows=16Ki"},
		{Scheme: "sca:counters=64", Workload: "black", Geometry: "2ch"},
		{Scheme: "sca:counters=64", Workload: "black", Oracle: true, Geometry: "2ch"},
	}
	var last *sim.Result
	for i, req := range jobs {
		st := submit(t, ts, req, http.StatusAccepted)
		_, res, errMsg := parseStream(t, streamBody(t, ts, st.ID))
		if res == nil {
			t.Fatalf("job %d failed: %s", i, errMsg)
		}
		last = res
	}
	cfg, err := jobs[2].Config()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(*last)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("pooled protection job diverges from direct sim.Run:\n got: %s\nwant: %s", gotJSON, wantJSON)
	}
}
