package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"catsim/internal/server"
	"catsim/internal/sim"
)

// The server-ol workload: an in-process catsim-server (one worker) behind
// a real HTTP listener, driven by a client limited to two connections.
// Phase A is open-loop — Poisson arrivals at serverRate jobs/s, each timed
// from when it was due — and phase B is closed-loop: two connections
// submitting a fixed batch back to back.

const (
	serverRate    = 40.0                   // phase A arrivals per second
	serverClients = 2                      // client connections (and load goroutines)
	latencyLimit  = 250 * time.Millisecond // phase B jobs count only within it
	serverSeedGap = 1 << 20                // job seeds of one benchmark seed
)

// serverJob is the job every phase submits, with its own seed: DRCAT_64 on
// the bursty open-loop cohort with a double-sided attacker tenant, 20000
// requests streamed as 8 epochs of NDJSON.
func serverJob(seed uint64) server.JobRequest {
	return server.JobRequest{Scheme: "drcat:counters=64,levels=11", Workload: "ol-bursty",
		Attacker: 0.25, Requests: 20000, Epochs: 8, Seed: seed}
}

// svc is a running server with its listener and rate-limited client.
type svc struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
}

// startServer builds, starts and exposes a server and waits for its first
// healthy /healthz: the server-ol set-up step.
func startServer() (*svc, error) {
	srv, err := server.New(server.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	srv.Start()
	tr := &http.Transport{MaxConnsPerHost: serverClients, MaxIdleConnsPerHost: serverClients}
	s := &svc{srv: srv, ts: httptest.NewServer(srv.Handler()), client: &http.Client{Transport: tr}}
	resp, err := s.client.Get(s.ts.URL + "/healthz")
	if err != nil {
		s.close()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.close()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	return s, nil
}

// close stops the listener, the client's connections and the server's
// workers, waiting for each.
func (s *svc) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	s.srv.Close(context.Background())
}

// outcome is one job as the client saw it. Only a digest of the stream
// is kept: a finished job's stream replays byte-identically, so the few
// checks that need the bytes fetch them again.
type outcome struct {
	due, start          time.Time // when it was due and when the client began it
	posted, first, done time.Time // POST returned, first stream line, terminal line
	cached              bool
	streamURL           string
	sum                 [sha256.Size]byte // of every stream line
	err                 error
}

// latencyMS is the job's latency from its due time; a failed job never
// completes, so it misses every limit.
func (o *outcome) latencyMS() float64 {
	if o.err != nil {
		return math.Inf(1)
	}
	return float64(o.done.Sub(o.due)) / 1e6
}

// submit POSTs one job and reads its NDJSON stream to the terminal line.
func (s *svc) submit(req server.JobRequest, o *outcome) {
	o.start = time.Now()
	body, err := json.Marshal(req)
	if err != nil {
		o.err = err
		return
	}
	resp, err := s.client.Post(s.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return
	}
	var st struct {
		Cached bool   `json:"cached"`
		Stream string `json:"stream"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	o.posted = time.Now()
	if err != nil || (resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK) {
		o.err = fmt.Errorf("submit: %s (%v)", resp.Status, err)
		return
	}
	o.cached, o.streamURL = st.Cached, s.ts.URL+st.Stream
	o.sum, _, o.err = s.stream(o.streamURL, &o.first)
	o.done = time.Now()
}

// stream reads a job's NDJSON stream to its terminal line, noting when the
// first line arrived (when first is non-nil), and returns the digest of
// every line and the terminal line, which must carry the result.
func (s *svc) stream(url string, first *time.Time) (sum [sha256.Size]byte, terminal []byte, err error) {
	resp, err := s.client.Get(url)
	if err != nil {
		return sum, nil, err
	}
	defer resp.Body.Close()
	h := sha256.New()
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadBytes('\n')
		if len(line) > 0 {
			if first != nil && first.IsZero() {
				*first = time.Now()
			}
			h.Write(line)
			terminal = line
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return sum, nil, err
		}
	}
	h.Sum(sum[:0])
	if !bytes.HasPrefix(terminal, []byte(`{"result":`)) {
		return sum, nil, fmt.Errorf("stream ended without a result: %s", bytes.TrimSpace(terminal))
	}
	return sum, terminal, nil
}

// openLoop submits jobs[i] at t0+due[i] from serverClients goroutines. A
// job waits for a free connection when both are busy, and that wait counts
// in its latency. late is the largest timer overshoot of a connection that
// was idle at a job's due time.
func (s *svc) openLoop(jobs []server.JobRequest, due []time.Duration) (out []outcome, late time.Duration) {
	out = make([]outcome, len(jobs))
	t0 := time.Now()
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < serverClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				at := t0.Add(due[i])
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
					mu.Lock()
					late = max(late, time.Since(at))
					mu.Unlock()
				}
				out[i].due = at
				s.submit(jobs[i], &out[i])
			}
		}()
	}
	wg.Wait()
	return out, late
}

// closedLoop submits jobs back to back from serverClients goroutines; each
// job is due when its connection frees up.
func (s *svc) closedLoop(jobs []server.JobRequest) []outcome {
	out := make([]outcome, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serverClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				out[i].due = time.Now()
				s.submit(jobs[i], &out[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// phaseA builds one segment's open-loop schedule of at most limit jobs
// within a window: Poisson arrivals at serverRate drawn from the seed and
// segment; every 8th job re-submits the job 4 positions earlier, which
// must be served from the server's cache.
func phaseA(seed uint64, segment int, window time.Duration, limit int) ([]server.JobRequest, []time.Duration) {
	rng := rand.New(rand.NewPCG(seed, uint64(segment)))
	var jobs []server.JobRequest
	var due []time.Duration
	for at := time.Duration(0); len(jobs) < limit; {
		at += time.Duration(rng.ExpFloat64() / serverRate * float64(time.Second))
		if at >= window {
			break
		}
		k := len(jobs)
		if k%8 == 7 {
			jobs = append(jobs, jobs[k-4])
		} else {
			jobs = append(jobs, serverJob(seed*serverSeedGap+uint64(segment*4096+k)+1))
		}
		due = append(due, at)
	}
	return jobs, due
}

// checkJobs counts every job as an operation, checks that re-submitted
// jobs replayed their original's stream byte for byte, and that sampled
// jobs' streamed results equal a direct sim.Run of the same request.
func (b *bench) checkJobs(s *svc, jobs []server.JobRequest, out []outcome, samples int) {
	first := map[server.JobRequest]int{}
	var distinct []int
	for i := range out {
		b.op(out[i].err)
		if out[i].err != nil {
			continue
		}
		if j, ok := first[jobs[i]]; ok {
			b.check(out[i].cached && out[i].sum == out[j].sum,
				"job %d: re-submission of job %d was not a byte-identical cache hit", i, j)
			continue
		}
		first[jobs[i]] = i
		distinct = append(distinct, i)
	}
	for k := 0; k < samples && len(distinct) > 0; k++ {
		i := distinct[k*len(distinct)/samples]
		b.op(b.checkResult(s, jobs[i], &out[i]))
	}
}

// checkResult re-reads a finished job's stream, which must replay the
// original bytes and end with the Result a direct sim.Run produces.
func (b *bench) checkResult(s *svc, req server.JobRequest, o *outcome) error {
	sum, terminal, err := s.stream(o.streamURL, nil)
	if err != nil {
		return err
	}
	if sum != o.sum {
		return fmt.Errorf("%s: replayed stream differs from the live one", o.streamURL)
	}
	cfg, err := req.Config()
	if err != nil {
		return err
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	want, err := json.Marshal(&res)
	if err != nil {
		return err
	}
	var line struct{ Result json.RawMessage }
	if err := json.Unmarshal(terminal, &line); err != nil {
		return err
	}
	if !bytes.Equal(line.Result, want) {
		return fmt.Errorf("%s: served result differs from a direct sim.Run", o.streamURL)
	}
	return nil
}

// server-ol runs serverRounds rounds, each one phase A segment and one
// phase B batch, so that both phases sample the whole window rather than
// one stretch of it. A segment is open-loop Poisson arrivals at serverRate
// over its share of 75% of the window; each phase A latency percentile
// pools the faster half of the segments by that percentile. A batch is serverBatch
// distinct jobs submitted back to back on both connections; phase B
// reports the faster half of the batches. Every segment and batch runs on
// the server its set-up repetitions left running: a server keeps every
// finished job, and a heap that grew over the whole run would make garbage
// collection, and so every timing, depend on how much ran before.
const (
	serverRounds = 8
	serverBatch  = 80
)

func runServerOL(b *bench) error {
	var s *svc
	closeServer := func() {
		if s != nil {
			s.close()
			s = nil
			// Collect the old server's jobs now, untimed, rather than at a
			// moment that depends on when the next one allocates.
			runtime.GC()
		}
	}
	defer closeServer()
	start := func() (func(), error) {
		var err error
		s, err = startServer()
		return nil, err
	}
	// fresh runs setupReps set-ups, each replacing the previous server.
	fresh := func() error {
		for i := 0; i < setupReps; i++ {
			closeServer()
			if err := b.timeSetup(start); err != nil {
				return err
			}
		}
		return nil
	}

	var sums [][sha256.Size]byte
	var segLat [][]float64
	var walls, rates []float64
	var late time.Duration
	batch := make([]server.JobRequest, serverBatch)
	for r := 0; r < serverRounds; r++ {
		if err := fresh(); err != nil {
			return err
		}
		jobs, due := phaseA(b.seed, r, b.seconds*3/4/serverRounds, math.MaxInt)
		out, l := s.openLoop(jobs, due)
		late = max(late, l)
		lat := make([]float64, len(out))
		for i := range out {
			lat[i] = out[i].latencyMS()
			sums = append(sums, out[i].sum)
		}
		segLat = append(segLat, lat)
		b.checkJobs(s, jobs, out, 1)

		if err := fresh(); err != nil {
			return err
		}
		for k := range batch {
			batch[k] = serverJob(b.seed*serverSeedGap + serverSeedGap/2 + uint64(r*serverBatch+k))
		}
		t0 := time.Now()
		out = s.closedLoop(batch)
		wall := time.Since(t0).Seconds()
		walls = append(walls, wall)
		within := 0
		for i := range out {
			if out[i].latencyMS() <= float64(latencyLimit)/1e6 {
				within++
			}
			sums = append(sums, out[i].sum)
		}
		rates = append(rates, float64(within)/wall)
		b.checkJobs(s, batch, out, 0)
	}
	b.markPeakRSS()

	// Each percentile pools the segments in the faster half by that same
	// percentile.
	pooled := func(p float64) []float64 {
		per := make([]float64, len(segLat))
		for i, l := range segLat {
			per[i] = percentile(l, p)
		}
		var lat []float64
		for _, i := range fastHalf(per) {
			lat = append(lat, segLat[i]...)
		}
		return lat
	}
	lat50, lat95 := pooled(50), pooled(95)
	var fastWalls, fastRates []float64
	for _, i := range fastHalf(walls) {
		fastWalls = append(fastWalls, walls[i])
		fastRates = append(fastRates, rates[i])
	}
	wall := median(fastWalls)
	b.set("wall_s", wall)
	b.set("sim_req_per_s", float64(serverBatch*serverJob(0).Requests)/wall)
	b.set("jobs_per_s", median(fastRates))
	b.set("job_p50_ms", percentile(lat50, 50))
	b.set("job_p95_ms", percentile(lat95, 95))
	latencySummary(fmt.Sprintf("server-ol phase A job from due time (faster %d of %d segments by p95)", (len(segLat)+1)/2, len(segLat)), lat95)
	fmt.Fprintf(os.Stderr, "catbench: server-ol phase B: batches of %d jobs, median of the faster half %.3fs; generator late by at most %v\n",
		serverBatch, wall, late)

	h := sha256.New()
	for _, sum := range sums {
		h.Write(sum[:])
	}
	b.setDigest(h)
	return nil
}
