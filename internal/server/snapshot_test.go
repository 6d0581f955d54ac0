package server

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"catsim/internal/sim"
)

// failingJob passes static validation but fails once it runs (SCA
// counters must divide the rows per bank, and 7 does not), so it
// persists as a failed job.
func failingJob() JobRequest {
	return JobRequest{Scheme: "sca:counters=7", Workload: "black", Requests: 100}
}

// savedSnapshot returns the snapshot a one-worker server writes when it
// closes after taking reqs: each run to completion when run is set, else
// all still queued, as on a server killed before its workers started.
func savedSnapshot(t testing.TB, run bool, reqs ...JobRequest) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "state.snap")
	s, err := New(Options{Workers: 1, SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if run {
		s.Start()
	}
	ts := httptest.NewServer(s.Handler())
	for _, req := range reqs {
		st := submit(t, ts, req, 202)
		if run {
			streamBody(t, ts, st.ID) // returns once the job is terminal
		}
	}
	ts.Close()
	closeServer(t, s)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// closeServer shuts a server down with a generous bound.
func closeServer(t testing.TB, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestSnapshotReservesDoneJobs is the restart half of the tentpole: a
// finished job snapshotted, the server killed, and a fresh server started
// from the snapshot re-serves the identical stream bytes with zero engine
// runs.
func TestSnapshotReservesDoneJobs(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "state.snap")

	s1, err := New(Options{Workers: 1, SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	ts1 := httptest.NewServer(s1.Handler())
	st := submit(t, ts1, testJob(), 202)
	before := streamBody(t, ts1, st.ID)
	ts1.Close()
	closeServer(t, s1) // final snapshot happens here

	s2, err := New(Options{Workers: 1, SnapshotPath: snap})
	if err != nil {
		t.Fatalf("restart from snapshot: %v", err)
	}
	s2.Start()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer closeServer(t, s2)

	after := streamBody(t, ts2, st.ID)
	if !bytes.Equal(before, after) {
		t.Error("restored stream is not byte-identical to the original")
	}
	if runs := s2.EngineRuns(); runs != 0 {
		t.Errorf("restored server ran the engine %d times re-serving a done job, want 0", runs)
	}
	// And a repeat POST of the same spec is a cache hit on the restored job.
	st2 := submit(t, ts2, testJob(), 200)
	if !st2.Cached || st2.ID != st.ID {
		t.Errorf("POST after restore = %+v, want cached %s", st2, st.ID)
	}
}

// TestSnapshotResumesQueuedJobs: jobs still queued at shutdown are
// re-enqueued on restart and run to the same result a live server would
// have produced.
func TestSnapshotResumesQueuedJobs(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "state.snap")

	s1, err := New(Options{Workers: 1, QueueDepth: 4, SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	// Never started: the POSTed job stays queued, exactly like a server
	// killed before a worker picked it up.
	ts1 := httptest.NewServer(s1.Handler())
	st := submit(t, ts1, testJob(), 202)
	ts1.Close()
	closeServer(t, s1)

	// A reference run on an ordinary server, for the expected bytes.
	_, ref := newTestServer(t, Options{Workers: 1})
	refSt := submit(t, ref, testJob(), 202)
	want := streamBody(t, ref, refSt.ID)

	s2, err := New(Options{Workers: 1, SnapshotPath: snap})
	if err != nil {
		t.Fatalf("restart from snapshot: %v", err)
	}
	if got := s2.store.jobs(); len(got) != 1 || got[0].state != StateQueued {
		t.Fatalf("restored store = %d jobs (state %v), want 1 queued", len(got), got[0].state)
	}
	s2.Start()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer closeServer(t, s2)

	got := streamBody(t, ts2, st.ID)
	if !bytes.Equal(got, want) {
		t.Error("resumed job's stream diverges from a live run")
	}
	if runs := s2.EngineRuns(); runs != 1 {
		t.Errorf("resumed server ran the engine %d times, want 1", runs)
	}
}

// TestSnapshotPersistsFailedJobs: failed state round-trips with its error.
func TestSnapshotPersistsFailedJobs(t *testing.T) {
	req := failingJob()
	if cfg, err := req.Config(); err != nil {
		t.Fatalf("config should pass static validation, got %v", err)
	} else if _, err := sim.Run(cfg); err == nil {
		t.Fatal("config runs fine; the late-failure fixture needs updating")
	}
	snap := filepath.Join(t.TempDir(), "state.snap")
	s1, err := New(Options{Workers: 1, SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	ts1 := httptest.NewServer(s1.Handler())
	st := submit(t, ts1, req, 202)
	_, _, errMsg := parseStream(t, streamBody(t, ts1, st.ID))
	if errMsg == "" {
		t.Fatal("job did not fail")
	}
	ts1.Close()
	closeServer(t, s1)

	s2, err := New(Options{Workers: 1, SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	defer closeServer(t, s2)
	j, ok := s2.store.get(st.ID)
	if !ok || j.state != StateFailed || j.errMsg != errMsg {
		t.Errorf("restored failed job = %v/%q, want failed/%q", j.state, j.errMsg, errMsg)
	}
}

// TestSnapshotCorruptionIsLoud: every corruption mode fails New with a
// descriptive error rather than a silently empty server.
func TestSnapshotCorruptionIsLoud(t *testing.T) {
	dir := t.TempDir()
	good := savedSnapshot(t, true, testJob())

	corrupt := func(name string, data []byte, want string) {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name+".snap")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := New(Options{Workers: 1, SnapshotPath: path})
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("New = %v, want error containing %q", err, want)
			}
		})
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0xff
	corrupt("bitflip", flipped, "checksum mismatch")
	corrupt("truncated", good[:10], "truncated")
	corrupt("badmagic", append([]byte("notasnap"), good[8:]...), "bad magic")
	future := append([]byte(nil), good...)
	future[8], future[9] = 0xff, 0xff // version field
	corrupt("futureversion", future, "unsupported snapshot version")
}

// TestSnapshotMissingFileIsFine: a configured-but-absent snapshot path is
// the normal first boot, not an error.
func TestSnapshotMissingFileIsFine(t *testing.T) {
	s, err := New(Options{Workers: 1, SnapshotPath: filepath.Join(t.TempDir(), "never-written.snap")})
	if err != nil {
		t.Fatalf("New with absent snapshot: %v", err)
	}
	s.Start()
	closeServer(t, s)
}

// TestPeriodicSnapshot: the snapshot loop writes without waiting for
// shutdown.
func TestPeriodicSnapshot(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "state.snap")
	s, err := New(Options{Workers: 1, SnapshotPath: snap, SnapshotInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	st := submit(t, ts, testJob(), 202)
	streamBody(t, ts, st.ID) // wait for completion
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(snap); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic snapshot never appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ts.Close()
	closeServer(t, s)
}

// FuzzReadSnapshot feeds arbitrary bytes to the snapshot reader, raw and
// as the payload of a valid envelope, so the checksum passes and the JSON
// decoding and job restore run. Neither may panic. A server restored from
// the wrapped bytes holds every persisted job, and saving it and
// restoring that file gives back the same jobs.
func FuzzReadSnapshot(f *testing.F) {
	for _, snap := range [][]byte{
		savedSnapshot(f, true, testJob(), failingJob()),
		savedSnapshot(f, false, testJob()),
	} {
		f.Add(snap)
		f.Add(snap[len(snapshotMagic)+2 : len(snap)-8]) // the JSON payload
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		readSnapshot(bytes.NewReader(data))

		var file bytes.Buffer
		if err := writeEnvelope(&file, data); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.snap")
		if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		s1, err := New(Options{Workers: 1, SnapshotPath: path})
		if err != nil {
			return
		}
		persisted, err := readSnapshot(bytes.NewReader(file.Bytes()))
		if err != nil {
			t.Fatalf("server restored from a snapshot the reader rejects: %v", err)
		}
		restored := s1.store.jobs()
		if len(restored) != len(persisted.Jobs) {
			t.Fatalf("restored %d of %d persisted jobs", len(restored), len(persisted.Jobs))
		}
		for i, sj := range persisted.Jobs {
			j := restored[i]
			if j.ID != sj.ID || j.state.String() != sj.State {
				t.Fatalf("persisted job %s/%s restored as %s/%v", sj.ID, sj.State, j.ID, j.state)
			}
			switch j.state {
			case StateDone:
				if len(j.samples) != len(sj.Samples) || !reflect.DeepEqual(j.result, *sj.Result) {
					t.Fatalf("done job %s lost its samples or result", sj.ID)
				}
			case StateFailed:
				if j.errMsg != sj.Error {
					t.Fatalf("failed job %s restored error %q, want %q", sj.ID, j.errMsg, sj.Error)
				}
			}
		}

		resaved := filepath.Join(dir, "resaved.snap")
		if err := s1.SaveSnapshot(resaved); err != nil {
			t.Fatal(err)
		}
		s2, err := New(Options{Workers: 1, SnapshotPath: resaved})
		if err != nil {
			t.Fatalf("restoring a saved snapshot: %v", err)
		}
		again := s2.store.jobs()
		if len(again) != len(restored) {
			t.Fatalf("save and restore kept %d of %d jobs", len(again), len(restored))
		}
		for i, j := range restored {
			k := again[i]
			if k.ID != j.ID || k.state != j.state || k.errMsg != j.errMsg ||
				!reflect.DeepEqual(k.samples, j.samples) || !reflect.DeepEqual(k.result, j.result) {
				t.Fatalf("job %s changed across save and restore", j.ID)
			}
		}
	})
}
