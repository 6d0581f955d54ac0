package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// boot runs the server with the given flags on an ephemeral port,
// returning its base URL and a shutdown func that cancels (the SIGTERM
// path) and waits for exit.
func boot(t *testing.T, args ...string) (string, func() int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan int, 1)
	var stdout, stderr bytes.Buffer
	go func() {
		done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), &stdout, &stderr, ready)
	}()
	select {
	case addr := <-ready:
		return "http://" + addr, func() int {
			cancel()
			select {
			case code := <-done:
				return code
			case <-time.After(60 * time.Second):
				t.Fatal("server did not exit after shutdown")
				return -1
			}
		}
	case code := <-done:
		t.Fatalf("server exited %d before ready (stderr: %s)", code, stderr.String())
		return "", nil
	case <-time.After(30 * time.Second):
		t.Fatal("server never became ready")
		return "", nil
	}
}

const jobBody = `{"scheme":"drcat:counters=64,levels=11","workload":"black","requests":2000,"seed":7,"epochs":8}`

func postJob(t *testing.T, base string, wantCode int) (id string, raw []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(jobBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ = io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("POST = %d, want %d (body: %s)", resp.StatusCode, wantCode, raw)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	return st.ID, raw
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d (body: %s)", url, resp.StatusCode, b)
	}
	return b
}

// TestServeStreamShutdownResume is the command's end-to-end contract:
// serve a job over real TCP, drain on the SIGTERM path, restart from the
// snapshot, and re-serve the identical bytes.
func TestServeStreamShutdownResume(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "state.snap")
	base, shutdown := boot(t, "-workers", "1", "-snapshot", snap)

	if body := getBody(t, base+"/healthz"); !bytes.Contains(body, []byte("ok")) {
		t.Errorf("healthz = %s", body)
	}
	id, _ := postJob(t, base, http.StatusAccepted)
	stream := getBody(t, base+"/v1/jobs/"+id+"/stream")
	if !bytes.Contains(stream, []byte(`"result"`)) {
		t.Fatalf("stream missing terminal result: %s", stream)
	}
	if code := shutdown(); code != 0 {
		t.Fatalf("shutdown exit = %d", code)
	}

	base2, shutdown2 := boot(t, "-workers", "1", "-snapshot", snap)
	defer shutdown2()
	// The restarted server re-serves the same job ID byte-identically and
	// treats a repeat POST as a cache hit.
	if got := getBody(t, base2+"/v1/jobs/"+id+"/stream"); !bytes.Equal(got, stream) {
		t.Error("restored stream is not byte-identical")
	}
	_, raw := postJob(t, base2, http.StatusOK)
	if !bytes.Contains(raw, []byte(`"cached":true`)) {
		t.Errorf("repeat POST after restart = %s, want cached", raw)
	}
}

// TestStreamToResultThenExitZero: a job streamed to its result line, then
// the SIGTERM path exits 0. (The drain itself, with a stream attached to
// the in-flight job and a POST during it, is internal/server's
// TestDrainFinishesInFlightJob.)
func TestStreamToResultThenExitZero(t *testing.T) {
	base, shutdown := boot(t, "-workers", "1")
	id, _ := postJob(t, base, http.StatusAccepted)
	resp, err := http.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte(`"result"`)) {
		t.Errorf("stream cut off without a result: %s", body)
	}
	if code := shutdown(); code != 0 {
		t.Fatalf("shutdown exit = %d", code)
	}
}

// TestDrainExpiryEndsStreamWithTerminalLine: when -drain expires with a
// job still running, the stream attached to it still ends with a JSON
// terminal line, one that does not call the job queued, and the server
// exits 1.
func TestDrainExpiryEndsStreamWithTerminalLine(t *testing.T) {
	base, shutdown := boot(t, "-workers", "1", "-drain", "50ms")
	// 2M requests, which outlive the 50 ms drain many times over.
	const long = `{"scheme":"drcat:counters=64,levels=11","workload":"black","requests":1000000,"seed":7,"epochs":64}`
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(long))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	stream, err := http.Get(base + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	r := bufio.NewReader(stream.Body)
	first, err := r.ReadBytes('\n')
	if err != nil || !bytes.Contains(first, []byte(`"sample"`)) {
		t.Fatalf("first stream line %q (%v), want a sample", first, err)
	}
	rest := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(r)
		rest <- b
	}()

	if code := shutdown(); code != 1 {
		t.Errorf("exit code %d after the drain bound expired, want 1", code)
	}
	var body []byte
	select {
	case body = <-rest:
	case <-time.After(30 * time.Second):
		t.Fatal("stream still open after the server exited")
	}
	lines := bytes.Split(bytes.TrimSpace(append(first, body...)), []byte("\n"))
	var last struct {
		Sample json.RawMessage `json:"sample"`
		Result json.RawMessage `json:"result"`
		Error  string          `json:"error"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || last.Sample != nil || (last.Result == nil && last.Error == "") {
		t.Errorf("stream of %d lines ended with %q, want a JSON result or error line", len(lines), lines[len(lines)-1])
	}
	// The drain cut the job mid-run, so the error must not say it never ran.
	if last.Error == "server shutting down before the job ran" {
		t.Errorf("stream of %d lines on the running job ended with the queued job's error %q", len(lines), last.Error)
	}
}

// TestUsageErrors: flag misuse exits 2 without binding a socket.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus"},
		{"positional"},
		{"-workers", "-3"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr, nil); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
	}
}

// TestCorruptSnapshotExits1: environmental failure is exit 1, not 2.
func TestCorruptSnapshotExits1(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "bad.snap")
	if err := os.WriteFile(snap, []byte("definitely not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-snapshot", snap}, &stdout, &stderr, nil)
	if code != 1 {
		t.Errorf("run with corrupt snapshot = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "truncated") && !strings.Contains(stderr.String(), "bad magic") {
		t.Errorf("stderr %q should name the corruption", stderr.String())
	}
}

// TestPartialHeadersTimeOut: a client that sends part of a request line
// and then stalls is disconnected once the header-read bound passes,
// instead of holding the connection forever.
func TestPartialHeadersTimeOut(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 100 * time.Millisecond
	base, shutdown := boot(t)
	defer shutdown()

	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HT"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The server closes the connection (possibly after a 408); the client
	// deadline only fires if it never does.
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection still open after the header timeout: %v", err)
	}
}
