package server

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"catsim/internal/engine"
	"catsim/internal/sim"
)

// Versioned binary snapshot ("catsimsv" v1): the server's durable state,
// styled after the trace container (trace/filev1.go). Layout:
//
//	magic    "catsimsv"                      (8 bytes)
//	version  uint16 little-endian            (currently 1)
//	payload  JSON-encoded snapshotFile
//	checksum uint64 little-endian FNV-1a over everything before it
//
// The payload persists every job in submission order: done/failed jobs
// with their recorded samples and final result (so a restarted server
// re-serves them byte-identically with zero recomputation), and
// queued/running jobs as "queued" (the simulation is deterministic, so
// re-running from the persisted request reproduces the identical stream).
// Corruption — bad magic, a future version, truncation, a flipped bit —
// is a loud error, never a silently half-restored server.

// SnapshotVersion is the snapshot format version this build reads and
// writes.
const SnapshotVersion = 1

var snapshotMagic = [8]byte{'c', 'a', 't', 's', 'i', 'm', 's', 'v'}

// snapshotJob is one job's durable form.
type snapshotJob struct {
	ID      string          `json:"id"`
	State   string          `json:"state"` // "queued", "done" or "failed"
	Req     JobRequest      `json:"req"`
	Samples []engine.Sample `json:"samples,omitempty"`
	Result  *sim.Result     `json:"result,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// snapshotFile is the payload schema.
type snapshotFile struct {
	Jobs []snapshotJob `json:"jobs"`
}

// writeSnapshot writes f as a snapshot file.
func writeSnapshot(w io.Writer, f *snapshotFile) error {
	payload, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("server: encoding snapshot: %w", err)
	}
	return writeEnvelope(w, payload)
}

// writeEnvelope writes the versioned envelope around a JSON payload.
func writeEnvelope(w io.Writer, payload []byte) error {
	h := fnv.New64a()
	out := io.MultiWriter(w, h)
	if _, err := out.Write(snapshotMagic[:]); err != nil {
		return err
	}
	var ver [2]byte
	binary.LittleEndian.PutUint16(ver[:], SnapshotVersion)
	if _, err := out.Write(ver[:]); err != nil {
		return err
	}
	if _, err := out.Write(payload); err != nil {
		return err
	}
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], h.Sum64())
	_, err := w.Write(sum[:])
	return err
}

// readSnapshot parses and verifies a snapshot file.
func readSnapshot(r io.Reader) (*snapshotFile, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("server: reading snapshot: %w", err)
	}
	if len(data) < len(snapshotMagic)+2+8 {
		return nil, fmt.Errorf("server: truncated snapshot: %d bytes is shorter than any valid snapshot", len(data))
	}
	body, sum := data[:len(data)-8], data[len(data)-8:]
	if [8]byte(body[:8]) != snapshotMagic {
		return nil, fmt.Errorf("server: bad magic %q (not a catsim server snapshot)", body[:8])
	}
	if v := binary.LittleEndian.Uint16(body[8:10]); v != SnapshotVersion {
		return nil, fmt.Errorf("server: unsupported snapshot version %d (this build reads v%d)", v, SnapshotVersion)
	}
	h := fnv.New64a()
	h.Write(body)
	if got, want := h.Sum64(), binary.LittleEndian.Uint64(sum); got != want {
		return nil, fmt.Errorf("server: snapshot checksum mismatch (file %016x, computed %016x): truncated or corrupt", want, got)
	}
	f := &snapshotFile{}
	if err := json.Unmarshal(body[10:], f); err != nil {
		return nil, fmt.Errorf("server: decoding snapshot payload: %w", err)
	}
	return f, nil
}

// snapshotState captures the server's current jobs in durable form.
// Running jobs persist as queued: re-running the deterministic simulation
// from the persisted request reproduces the identical stream, so nothing
// mid-flight is ever lost — only recomputed.
func (s *Server) snapshotState() *snapshotFile {
	f := &snapshotFile{}
	for _, j := range s.store.jobs() {
		v := j.view()
		sj := snapshotJob{ID: j.ID, Req: j.Req}
		switch v.state {
		case StateDone:
			sj.State = StateDone.String()
			sj.Samples = v.samples
			sj.Result = &v.result
		case StateFailed:
			sj.State = StateFailed.String()
			sj.Error = v.errMsg
		default:
			sj.State = StateQueued.String()
		}
		f.Jobs = append(f.Jobs, sj)
	}
	return f
}

// SaveSnapshot atomically writes the server's current state to path
// (write to a temp file in the same directory, fsync, rename), so a crash
// mid-write leaves the previous snapshot intact.
func (s *Server) SaveSnapshot(path string) error {
	f := s.snapshotState()
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := writeSnapshot(tmp, f); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// loadSnapshot restores jobs from a snapshot file into the store,
// returning the jobs that must be (re-)enqueued, in submission order.
// Persisted state is trusted but verified: each job's config is rebuilt
// through the same validation as a live POST, and its recomputed ID must
// match the persisted one — a mismatch means the snapshot was produced by
// an incompatible build, and fails loudly rather than serving wrong
// results under a stale URL.
func (s *Server) loadSnapshot(path string) error {
	file, err := os.Open(path)
	if err != nil {
		return err
	}
	defer file.Close()
	f, err := readSnapshot(file)
	if err != nil {
		return err
	}
	for i := range f.Jobs {
		sj := &f.Jobs[i]
		state, err := parseJobState(sj.State)
		if err != nil {
			return fmt.Errorf("server: snapshot job %s: %w", sj.ID, err)
		}
		if state == StateRunning {
			return fmt.Errorf("server: snapshot job %s: running jobs must be persisted as queued", sj.ID)
		}
		cfg, err := sj.Req.Config()
		if err != nil {
			return fmt.Errorf("server: snapshot job %s: %v", sj.ID, err)
		}
		j := newJob(sj.Req, cfg)
		if j.ID != sj.ID {
			return fmt.Errorf("server: snapshot job %s rebuilds with ID %s: snapshot predates a cache-key change",
				sj.ID, j.ID)
		}
		switch state {
		case StateDone:
			j.samples = append([]engine.Sample(nil), sj.Samples...)
			if sj.Result == nil {
				return fmt.Errorf("server: snapshot job %s: done without a result", sj.ID)
			}
			j.result = *sj.Result
			j.state = StateDone
		case StateFailed:
			j.errMsg = sj.Error
			j.state = StateFailed
		}
		if canonical, inserted := s.store.intern(j); !inserted {
			return fmt.Errorf("server: snapshot job %s duplicates %s", sj.ID, canonical.ID)
		} else if j.state == StateQueued {
			s.resume = append(s.resume, j)
		}
	}
	return nil
}
