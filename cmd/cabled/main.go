// Command cabled serves Cable debugging sessions over HTTP/JSON, so many
// users (or scripted pipelines) can label trace sets concurrently against
// one process that amortizes lattice construction through its cache.
//
// Usage:
//
//	cabled [-addr :8372] [-request-timeout 30s] [-idle-timeout 30m]
//	       [-cache-size 64] [-snapshot-dir DIR] [-metrics]
//
// The API is versioned under /v1; see API.md at the repository root for
// the endpoint reference and a curl walkthrough. On SIGINT/SIGTERM the
// server stops accepting connections, cancels in-flight lattice builds,
// and exits once drained (or after -shutdown-timeout).
//
// With -snapshot-dir, sessions are persisted across restarts — and
// crashes: every session writes a snapshot at creation, labeling actions
// append to a per-session write-ahead log, and a graceful drain rewrites
// all snapshots. On boot the directory is replayed, so clients resume
// with the session IDs they already hold. See FORMATS.md for the file
// layouts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	var (
		addr            = flag.String("addr", ":8372", "listen address")
		requestTimeout  = flag.Duration("request-timeout", 30*time.Second, "per-request deadline (0 disables); also bounds lattice builds")
		idleTimeout     = flag.Duration("idle-timeout", 30*time.Minute, "evict sessions untouched for this long (0 disables)")
		shutdownTimeout = flag.Duration("shutdown-timeout", 10*time.Second, "grace period for draining on SIGTERM")
		cacheSize       = flag.Int("cache-size", 64, "lattice LRU capacity (0 disables the cache)")
		snapshotDir     = flag.String("snapshot-dir", "", "persist sessions here and restore them on boot (empty disables)")
		metrics         = flag.Bool("metrics", false, "collect metrics; snapshot on exit and live at /v1/metrics")
		cpuprofile      = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile      = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	)
	flag.Parse()
	stop, err := obs.SetupCLI(obs.CLIConfig{Metrics: *metrics, CPUProfile: *cpuprofile, MemProfile: *memprofile})
	if err != nil {
		log.Fatal(err)
	}
	defer stop()
	if err := run(*addr, server.Config{
		RequestTimeout: *requestTimeout,
		IdleTimeout:    *idleTimeout,
		CacheSize:      *cacheSize,
		SnapshotDir:    *snapshotDir,
	}, *shutdownTimeout); err != nil {
		stop()
		log.Fatal(err)
	}
}

func run(addr string, cfg server.Config, shutdownTimeout time.Duration) error {
	// Root context: cancelled on the first SIGINT/SIGTERM. Every request
	// context descends from it via BaseContext, so cancelling it aborts
	// in-flight lattice builds before Shutdown starts draining.
	rootCtx, cancelRoot := context.WithCancel(context.Background())
	defer cancelRoot()

	svc := server.New(cfg)
	if cfg.SnapshotDir != "" {
		n, err := svc.LoadSnapshots(rootCtx)
		if err != nil {
			return fmt.Errorf("restoring sessions: %w", err)
		}
		if n > 0 {
			fmt.Fprintf(os.Stderr, "cabled: restored %d session(s) from %s\n", n, cfg.SnapshotDir)
		}
	}
	go svc.Janitor(rootCtx, 0)

	var fresh newConns
	httpSrv := &http.Server{
		Addr:        addr,
		Handler:     svc.Handler(),
		BaseContext: func(net.Listener) context.Context { return rootCtx },
		ReadTimeout: 2 * time.Minute,
		ConnState:   fresh.track,
	}
	httpSrv.RegisterOnShutdown(fresh.closeAll)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "cabled: listening on %s\n", ln.Addr())

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "cabled: %v, shutting down\n", sig)
	}
	// Cancel builds first so drained handlers return quickly, then drain.
	cancelRoot()
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// Handlers have drained; snapshot every live session so the next boot
	// restores them without replaying the WALs.
	if cfg.SnapshotDir != "" {
		n, err := svc.SaveSnapshots()
		if err != nil {
			return fmt.Errorf("saving sessions: %w", err)
		}
		fmt.Fprintf(os.Stderr, "cabled: saved %d session(s) to %s\n", n, cfg.SnapshotDir)
	}
	fmt.Fprintln(os.Stderr, "cabled: stopped")
	return nil
}

// newConns tracks connections that have not sent a request yet
// (http.StateNew). Shutdown counts such a connection as idle only after 5
// s, so one left by a client's connection pool would hold the drain past
// a shorter -shutdown-timeout, and the exit would skip the final
// snapshots. They carry no acknowledged request, so closeAll, run once
// Shutdown has closed the listeners, closes them, and any connection
// reaching StateNew afterwards is closed on arrival.
type newConns struct {
	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool
}

func (n *newConns) track(c net.Conn, st http.ConnState) {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch {
	case st != http.StateNew:
		delete(n.conns, c)
	case n.closed:
		c.Close()
	default:
		if n.conns == nil {
			n.conns = map[net.Conn]bool{}
		}
		n.conns[c] = true
	}
}

func (n *newConns) closeAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closed = true
	for c := range n.conns {
		c.Close()
	}
}
