// Command catsim-server runs the long-running simulation service: a
// bounded job queue in front of the deterministic simulator, with
// per-epoch NDJSON/SSE streaming and durable snapshot/resume.
//
//	catsim-server -addr :8321 -workers 2 -snapshot state.snap
//
// Submit jobs with POST /v1/jobs (see internal/server.JobRequest for the
// body schema), stream epoch samples from GET /v1/jobs/{id}/stream, and
// fetch the final sim.Result from GET /v1/jobs/{id}/result. Identical
// jobs — however spelled — share one run: repeats attach to the in-flight
// simulation or replay the recorded stream byte-identically.
//
// On SIGINT/SIGTERM the server stops accepting jobs (POST returns 503),
// lets the in-flight job finish so attached streams receive their result,
// persists a final snapshot (queued jobs included), and exits. Restarting
// with the same -snapshot path re-serves finished results without
// recomputation and re-enqueues whatever was still waiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"catsim/internal/server"
)

// HTTP connection bounds: a client that never finishes its request
// headers, or an idle keep-alive connection, is closed instead of holding a
// connection forever. There is deliberately no WriteTimeout: epoch streams
// are long-lived.
const idleTimeout = 2 * time.Minute

// readHeaderTimeout is fixed in production; the main-package tests lower it.
var readHeaderTimeout = 10 * time.Second

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run parses args and serves until ctx is cancelled, returning the
// process exit code (2 for usage errors, matching flag's convention).
// When ready is non-nil, the listener's resolved address is sent on it
// once the server is accepting connections — the hook the main-package
// tests (and nothing else) use.
func run(ctx context.Context, args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("catsim-server", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8321", "listen address")
		workers  = fs.Int("workers", 0, "simulation workers (0 = GOMAXPROCS)")
		queue    = fs.Int("queue", 64, "job queue depth (further POSTs get 503)")
		snapshot = fs.String("snapshot", "", "snapshot file path (empty = no durability)")
		interval = fs.Duration("snapshot-interval", 30*time.Second, "periodic snapshot cadence")
		drain    = fs.Duration("drain", 2*time.Minute, "shutdown bound for draining the in-flight job")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return 2
	}

	logger := log.New(stderr, "catsim-server: ", log.LstdFlags)
	srv, err := server.New(server.Options{
		Workers:          *workers,
		QueueDepth:       *queue,
		SnapshotPath:     *snapshot,
		SnapshotInterval: *interval,
		Logf:             logger.Printf,
	})
	if err != nil {
		fmt.Fprintf(stderr, "catsim-server: %v\n", err)
		if errors.Is(err, server.ErrBadOptions) {
			return 2
		}
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "catsim-server: %v\n", err)
		return 1
	}
	srv.Start()

	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	logger.Printf("listening on %s", ln.Addr())
	fmt.Fprintf(stdout, "listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "catsim-server: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	logger.Printf("shutting down: draining in-flight work (bound %s)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Order matters: srv.Close finishes the in-flight job (so attached
	// streams receive their terminal line and return) and writes the final
	// snapshot; hs.Shutdown then waits for those streams' handlers to
	// finish flushing before closing the listener.
	if err := srv.Close(shutdownCtx); err != nil {
		fmt.Fprintf(stderr, "catsim-server: shutdown: %v\n", err)
		hs.Close()
		return 1
	}
	if err := hs.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(stderr, "catsim-server: shutdown: %v\n", err)
		return 1
	}
	logger.Printf("drained; bye")
	return 0
}
