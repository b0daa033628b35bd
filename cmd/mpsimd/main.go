// Command mpsimd serves the co-simulation framework as a long-running
// HTTP service: POST sweep jobs, poll their status, fetch artifacts.
// Results and warm-boot snapshots persist in a content-addressed store
// directory, so repeated sweeps — across restarts and across daemons
// sharing the store — are answered without simulating. See
// docs/SERVICE.md for the API.
//
// Usage:
//
//	mpsimd [-addr :8080] [-store DIR] [-sim-workers N] [-queue N]
//	       [-job-timeout 10m] [-log-json]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mpsimd:", err)
		os.Exit(1)
	}
}

// readHeaderTimeout bounds how long a client may take to send request
// headers, so idle or trickling connections cannot hold the daemon's
// connection slots open.
const readHeaderTimeout = 10 * time.Second

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	storeDir := flag.String("store", "mpsimd-store", "result/snapshot store directory")
	workers := flag.Int("sim-workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "bounded backlog of unstarted simulations")
	jobTimeout := flag.Duration("job-timeout", 10*time.Minute, "default per-job timeout")
	logJSON := flag.Bool("log-json", false, "emit structured logs as JSON")
	flag.Parse()

	var h slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		h = slog.NewJSONHandler(os.Stderr, nil)
	}
	log := slog.New(h)

	store, err := service.OpenStore(*storeDir)
	if err != nil {
		return err
	}
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	srv, err := service.New(service.Config{
		Store:      store,
		Workers:    *workers,
		Queue:      *queue,
		JobTimeout: *jobTimeout,
		Logger:     log,
	})
	if err != nil {
		return err
	}

	// SIGINT/SIGTERM: stop accepting, cancel in-flight jobs, exit
	// cleanly. A second signal kills the process the hard way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Info("mpsimd listening", "addr", *addr, "store", *storeDir,
		"sim_workers", *workers, "queue", *queue)

	select {
	case err := <-errc:
		srv.Close()
		return err
	case <-ctx.Done():
		log.Info("shutting down", "reason", "signal")
	}
	stop() // restore default handling: a second signal terminates immediately

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Warn("http shutdown", "err", err)
	}
	srv.Close()
	log.Info("mpsimd stopped")
	return nil
}
