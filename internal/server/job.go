package server

import (
	"fmt"
	"hash/fnv"
	"sync"

	"catsim/internal/engine"
	"catsim/internal/sim"
)

// JobState is a job's position in the queued → running → done/failed
// lifecycle.
type JobState int

const (
	// StateQueued: accepted and waiting for a worker.
	StateQueued JobState = iota
	// StateRunning: a worker is executing the simulation.
	StateRunning
	// StateDone: finished; Result (and any epoch samples) are final.
	StateDone
	// StateFailed: the simulation returned an error.
	StateFailed
)

// String returns the wire name used in status JSON and snapshots.
func (s JobState) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	}
	return fmt.Sprintf("JobState(%d)", int(s))
}

func parseJobState(s string) (JobState, error) {
	for st := StateQueued; st <= StateFailed; st++ {
		if st.String() == s {
			return st, nil
		}
	}
	return 0, fmt.Errorf("server: unknown job state %q", s)
}

// Job is one accepted simulation: the canonical unit of the cross-request
// cache. Its identity is the canonical sim.CacheKey of its config, so two
// requests describing the same simulation — however spelled — share one
// Job: the second attaches to the in-flight run, or replays the recorded
// samples and result byte-identically. Mutable state is guarded by mu and
// changes only through update; readers take a view and wait on its
// changed channel. samples is append-only, so a view stays valid.
type Job struct {
	// ID is "j" + the 16-hex FNV-1a of Key — stable across restarts, so a
	// resumed server re-serves the same URLs.
	ID string
	// Key is the canonical sim.CacheKey the job deduplicates on.
	Key string
	// Req is the normalized request the job was built from (what
	// snapshots persist; Config() rebuilds the identical run).
	Req JobRequest

	cfg sim.Config

	mu      sync.Mutex
	changed chan struct{}
	state   JobState
	samples []engine.Sample
	result  sim.Result
	errMsg  string
}

func newJob(req JobRequest, cfg sim.Config) *Job {
	key := sim.CacheKey(cfg)
	return &Job{ID: jobID(key), Key: key, Req: req, cfg: cfg, changed: make(chan struct{})}
}

// jobID derives the stable public identifier from the canonical key.
func jobID(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return fmt.Sprintf("j%016x", h.Sum64())
}

// update applies change under mu, then wakes every waiter: it closes
// changed and makes a new one.
func (j *Job) update(change func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	change()
	close(j.changed)
	j.changed = make(chan struct{})
}

func (j *Job) setRunning() { j.update(func() { j.state = StateRunning }) }

// appendSample records one streamed epoch sample. Runs on the simulation
// goroutine via sim.Config.OnSample.
func (j *Job) appendSample(s engine.Sample) {
	j.update(func() { j.samples = append(j.samples, s) })
}

func (j *Job) finish(res sim.Result) {
	j.update(func() { j.result, j.state = res, StateDone })
}

func (j *Job) fail(msg string) {
	j.update(func() { j.errMsg, j.state = msg, StateFailed })
}

// jobView is one consistent read of a job; changed closes at its next
// change.
type jobView struct {
	samples []engine.Sample
	state   JobState
	result  sim.Result
	errMsg  string
	changed <-chan struct{}
}

func (j *Job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := len(j.samples)
	return jobView{samples: j.samples[:n:n], state: j.state, result: j.result, errMsg: j.errMsg, changed: j.changed}
}

// store indexes jobs by canonical key (the cache) and by public ID (the
// URLs), remembering submission order for listings and snapshots.
type store struct {
	mu    sync.Mutex
	byKey map[string]*Job
	byID  map[string]*Job
	order []*Job
}

func newStore() *store {
	return &store{byKey: map[string]*Job{}, byID: map[string]*Job{}}
}

// intern returns the canonical job for j.Key, inserting j if it is new.
// The boolean reports whether j was inserted (false = an existing job was
// returned instead: the cross-request cache hit).
func (s *store) intern(j *Job) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.byKey[j.Key]; ok {
		return existing, false
	}
	s.byKey[j.Key] = j
	s.byID[j.ID] = j
	s.order = append(s.order, j)
	return j, true
}

// remove forgets a job that was interned but could not be enqueued (the
// queue-full 503 path), so a later POST of the same spec can try again.
func (s *store) remove(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byKey[j.Key] != j {
		return
	}
	delete(s.byKey, j.Key)
	delete(s.byID, j.ID)
	for i, o := range s.order {
		if o == j {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

func (s *store) get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[id]
	return j, ok
}

// jobs returns every job in submission order.
func (s *store) jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, len(s.order))
	copy(out, s.order)
	return out
}
