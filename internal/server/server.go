// Package server is the catsim simulation service: a long-running
// HTTP/JSON front end over the deterministic simulation stack. POST
// /v1/jobs accepts a declarative job — scheme spec, geometry spec,
// workload, epoch slicing, shards, seed — validated through the same
// Parse* grammars the CLIs use (bad specs are 400s carrying the valid-set
// listings), enqueues it on a bounded queue drained by a fixed worker
// pool, and GET /v1/jobs/{id}/stream streams each epoch's engine.Sample
// as NDJSON (or SSE) while the run progresses, terminating with the final
// sim.Result.
//
// Jobs are interned by canonical sim.CacheKey: a repeated POST of an
// identical simulation — however differently spelled — returns the same
// job, attaching to the in-flight run or replaying the recorded stream
// byte-identically with zero new engine work. The server periodically
// checkpoints every job to a versioned, checksummed snapshot file, so a
// restart resumes the queue and re-serves finished results without
// recomputation (see snapshot.go for the format and contract).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"catsim/internal/runner"
	"catsim/internal/sim"
)

// ErrBadOptions marks a New failure caused by invalid Options — a usage
// error (cmd/catsim-server exits 2) rather than an environmental one like
// a corrupt snapshot (exit 1).
var ErrBadOptions = errors.New("server: bad options")

// Options configures a Server. The zero value serves with GOMAXPROCS
// workers, a 64-deep queue and no snapshotting.
type Options struct {
	// Workers is the number of simulation workers draining the queue
	// (0 = GOMAXPROCS). Each runs one job at a time to completion.
	Workers int
	// QueueDepth bounds the jobs waiting for a worker (0 = 64). A POST
	// arriving with the queue full is rejected with 503, never blocked.
	QueueDepth int
	// SnapshotPath, when non-empty, is the snapshot file the server
	// restores from at construction (if it exists) and checkpoints to
	// periodically and at Close.
	SnapshotPath string
	// SnapshotInterval is the checkpoint period (0 = 30s; meaningful
	// only with SnapshotPath set).
	SnapshotInterval time.Duration
	// Logf, when non-nil, receives one line per lifecycle event
	// (job accepted, started, finished, snapshot written).
	Logf func(format string, args ...any)
}

// Server is the simulation service. Construct with New, attach Handler to
// an http.Server, call Start to begin draining the queue, and Close to
// shut down gracefully.
type Server struct {
	opts  Options
	store *store
	queue chan *Job
	// resume holds snapshot-restored jobs awaiting re-enqueue at Start.
	resume []*Job

	mux *http.ServeMux
	// contexts pools reusable run contexts across the worker pool, so a
	// worker draining a queue of same-shape jobs (a seed sweep, say)
	// rewinds its warm component stack instead of rebuilding it per job.
	contexts *runner.ContextPool
	// run executes a job's simulation: contexts.Run, or a test's fault
	// injector wrapped around it.
	run        func(sim.Config) (sim.Result, error)
	engineRuns atomic.Int64
	// quit closes when Close begins; stopped once the workers have
	// exited or Close's context has expired.
	quit      chan struct{}
	stopped   chan struct{}
	wg        sync.WaitGroup
	startOnce sync.Once
	closeOnce sync.Once
}

// New builds a Server, restoring state from Options.SnapshotPath if the
// file exists. A corrupt or incompatible snapshot is a loud error: the
// operator decides whether to delete it, never the server.
func New(o Options) (*Server, error) {
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		return nil, fmt.Errorf("%w: need at least one worker, got %d", ErrBadOptions, o.Workers)
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 64
	}
	if o.QueueDepth < 1 {
		return nil, fmt.Errorf("%w: need a positive queue depth, got %d", ErrBadOptions, o.QueueDepth)
	}
	if o.SnapshotInterval == 0 {
		o.SnapshotInterval = 30 * time.Second
	}
	s := &Server{opts: o, store: newStore(), contexts: runner.NewContextPool(),
		quit: make(chan struct{}), stopped: make(chan struct{})}
	s.run = s.contexts.Run
	if o.SnapshotPath != "" {
		if _, err := os.Stat(o.SnapshotPath); err == nil {
			if err := s.loadSnapshot(o.SnapshotPath); err != nil {
				return nil, err
			}
			s.logf("restored %d jobs from %s (%d re-queued)",
				len(s.store.jobs()), o.SnapshotPath, len(s.resume))
		}
	}
	// The queue must at least hold every job the snapshot re-enqueues,
	// or Start would deadlock before the first worker spins up.
	depth := o.QueueDepth
	if len(s.resume) > depth {
		depth = len(s.resume)
	}
	s.queue = make(chan *Job, depth)
	s.routes()
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Start re-enqueues snapshot-restored jobs and launches the worker pool
// and the snapshot ticker. Idempotent.
func (s *Server) Start() {
	s.startOnce.Do(func() {
		for _, j := range s.resume {
			s.queue <- j // capacity reserved in New
		}
		s.resume = nil
		for w := 0; w < s.opts.Workers; w++ {
			s.wg.Add(1)
			go s.worker()
		}
		if s.opts.SnapshotPath != "" {
			s.wg.Add(1)
			go s.snapshotLoop()
		}
	})
}

// Close drains the server: stop accepting jobs (503), let each worker
// finish its in-flight job, then end every waiting stream and /result
// request — with the result for a job that finished, the shutdown error
// for one that did not — and write a final snapshot. Jobs still queued
// persist as queued and resume on the next start. The context bounds how
// long Close waits for in-flight jobs.
func (s *Server) Close(ctx context.Context) error {
	var err error
	s.closeOnce.Do(func() {
		close(s.quit)
		done := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			err = ctx.Err()
		}
		close(s.stopped)
		if s.opts.SnapshotPath != "" {
			if serr := s.SaveSnapshot(s.opts.SnapshotPath); serr != nil && err == nil {
				err = serr
			} else if serr == nil {
				s.logf("final snapshot written to %s", s.opts.SnapshotPath)
			}
		}
	})
	return err
}

// EngineRuns reports how many simulations the server has started — the
// observable the cache-hit tests (and /v1/stats) assert on: a repeated
// POST of an identical job must not move it.
func (s *Server) EngineRuns() int64 { return s.engineRuns.Load() }

// ContextStats reports the run-context pool counters: how many engine
// runs built a fresh context stack versus reusing a pooled one. Under a
// homogeneous job stream (seed sweeps), reuses should dominate.
func (s *Server) ContextStats() (builds, reuses int64) { return s.contexts.Stats() }

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		// Drain-free shutdown: quit wins over further queued work, which
		// stays queued and persists in the final snapshot.
		select {
		case <-s.quit:
			return
		default:
		}
		select {
		case <-s.quit:
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// runJob executes one simulation, streaming each epoch sample into the
// job as it completes. A run that panics fails its job with the panic
// text, so the worker and every queued job survive it; the pooled context
// the run held is dropped with the panic, never reused.
func (s *Server) runJob(j *Job) {
	j.setRunning()
	s.logf("job %s running: %s", j.ID, j.Key)
	cfg := j.cfg
	cfg.OnSample = j.appendSample
	s.engineRuns.Add(1)
	defer func() {
		if p := recover(); p != nil {
			s.logf("job %s panicked: %v", j.ID, p)
			j.fail(fmt.Sprintf("panic: %v", p))
		}
	}()
	res, err := s.run(cfg)
	if err != nil {
		s.logf("job %s failed: %v", j.ID, err)
		j.fail(err.Error())
		return
	}
	s.logf("job %s done: %d epochs", j.ID, len(res.Epochs))
	j.finish(res)
}

func (s *Server) snapshotLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
			if err := s.SaveSnapshot(s.opts.SnapshotPath); err != nil {
				s.logf("snapshot failed: %v", err)
			} else {
				s.logf("snapshot written to %s", s.opts.SnapshotPath)
			}
		}
	}
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
}

// httpError writes a JSON error body: {"error": "..."}.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// jobStatus is the submission/status response body.
type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Cached is true on submission when the POST attached to an existing
	// job instead of enqueueing a new run.
	Cached bool `json:"cached,omitempty"`
	// Samples is how many epoch samples have streamed so far.
	Samples int `json:"samples"`
	// Key is the canonical sim.CacheKey the job is interned under.
	Key    string `json:"key"`
	Stream string `json:"stream"`
	Result string `json:"result"`
	Error  string `json:"error,omitempty"`
}

func statusOf(j *Job, cached bool) jobStatus {
	v := j.view()
	return jobStatus{
		ID: j.ID, State: v.state.String(), Cached: cached,
		Samples: len(v.samples), Key: j.Key,
		Stream: "/v1/jobs/" + j.ID + "/stream",
		Result: "/v1/jobs/" + j.ID + "/result",
		Error:  v.errMsg,
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	select {
	case <-s.quit:
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	default:
	}
	req, err := decodeJobRequest(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	cfg, err := req.Config()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, inserted := s.store.intern(newJob(req, cfg))
	if !inserted {
		// Cross-request cache hit: attach to the existing job (in flight
		// or finished) — no new engine work.
		writeJSON(w, http.StatusOK, statusOf(j, true))
		return
	}
	// The reply describes the job as submitted: once it is queued, an idle
	// worker may start it before the reply is written.
	st := statusOf(j, false)
	select {
	case s.queue <- j:
		s.logf("job %s queued: %s", j.ID, j.Key)
		writeJSON(w, http.StatusAccepted, st)
	default:
		s.store.remove(j)
		httpError(w, http.StatusServiceUnavailable, "job queue full (%d deep): retry later", cap(s.queue))
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.store.jobs()
	out := make([]jobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, statusOf(j, false))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
	}
	return j, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, statusOf(j, false))
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	builds, reuses := s.ContextStats()
	writeJSON(w, http.StatusOK, map[string]int64{
		"jobs":           int64(len(s.store.jobs())),
		"engine_runs":    s.EngineRuns(),
		"queued":         int64(len(s.queue)),
		"context_builds": builds,
		"context_reuses": reuses,
	})
}

// handleStream serves the live (or replayed) epoch feed. NDJSON by
// default; SSE when the client accepts text/event-stream. The stream
// terminates with the final result (or error) line; a client that
// disconnects early just stops receiving — the simulation is unaffected.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	var enc streamEncoder
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		w.Header().Set("Content-Type", "text/event-stream")
		enc = newSSEEncoder(w)
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc = newNDJSONEncoder(w)
	}
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	flush()

	next := 0
	s.watch(r.Context(), j, func(v jobView, stopped bool) bool {
		for ; next < len(v.samples); next++ {
			if err := enc.sample(&v.samples[next]); err != nil {
				return true
			}
			flush()
		}
		switch {
		case v.state == StateDone:
			enc.result(&v.result)
		case v.state == StateFailed:
			enc.fail(v.errMsg)
		case stopped:
			enc.fail(v.shutdownMsg())
		default:
			return false
		}
		flush()
		return true
	})
}

// handleResult blocks until the job reaches a terminal state, then
// returns the final sim.Result as JSON (or 500 with the job's error).
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	s.watch(r.Context(), j, func(v jobView, stopped bool) bool {
		switch {
		case v.state == StateDone:
			writeJSON(w, http.StatusOK, v.result)
		case v.state == StateFailed:
			httpError(w, http.StatusInternalServerError, "%s", v.errMsg)
		case stopped:
			httpError(w, http.StatusServiceUnavailable, "%s", v.shutdownMsg())
		default:
			return false
		}
		return true
	})
}

// shutdownMsg is the error a stream or /result request gets when the
// server stops before the job ends: the job was either still queued or,
// when Close's context expired first, still running.
func (v jobView) shutdownMsg() string {
	if v.state == StateRunning {
		return "server shutting down while the job was running"
	}
	return "server shutting down before the job ran"
}

// watch calls visit with a view of j and again after each change, until
// visit reports it is done or ctx (the client) ends. Once the server has
// stopped, visit gets one last view with stopped set.
func (s *Server) watch(ctx context.Context, j *Job, visit func(v jobView, stopped bool) bool) {
	stopped := false
	for {
		v := j.view()
		if visit(v, stopped) || stopped {
			return
		}
		select {
		case <-v.changed:
		case <-s.stopped:
			stopped = true
		case <-ctx.Done():
			return
		}
	}
}
