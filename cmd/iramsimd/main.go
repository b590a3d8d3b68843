// Command iramsimd serves the iramsim experiment runner over HTTP:
// simulation as a service. Clients POST runner.Request JSON bodies to
// /v1/runs and stream structured progress back; every run shares one
// on-disk result cache, so a fleet of overlapping requests costs one
// simulation per distinct unit and warm requests are answered without
// simulating at all.
//
//	POST   /v1/runs            submit a run ({"experiments":["fig7"],"quick":true});
//	                           ?stream=1 streams progress and cancels on disconnect
//	GET    /v1/runs            list runs
//	GET    /v1/runs/{id}        run status
//	GET    /v1/runs/{id}/events progress stream (NDJSON, or SSE via Accept)
//	GET    /v1/runs/{id}/output rendered output (blocks until the run finishes)
//	DELETE /v1/runs/{id}        cancel
//	GET    /healthz            liveness (503 while draining)
//	GET    /debug/...          metrics, expvar, pprof
//
// Backpressure is explicit: the run queue is bounded, and a full queue
// answers 429 with Retry-After rather than accepting unbounded work.
// SIGINT/SIGTERM drains gracefully: new submissions get 503, queued and
// in-flight runs finish (up to -drain-timeout, then they are canceled),
// and -metrics is flushed before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/resultstore"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:8351", "listen address")
		cacheDir      = flag.String("result-cache", "", "shared result-cache directory (empty = no cache)")
		cacheMaxBytes = flag.Int64("result-cache-max-bytes", 0, "prune the result cache to this size after each run (0 = unbounded)")
		queueCap      = flag.Int("queue", 8, "pending-run queue capacity (full queue answers 429)")
		maxRuns       = flag.Int("runs", 2, "maximum concurrently executing runs")
		workers       = flag.Int("j", 1, "sweep workers per run")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight runs before canceling them")
		metricsPath   = flag.String("metrics", "", "write the daemon metrics registry as JSON to this file on exit")
	)
	flag.Parse()

	if err := mainErr(*addr, *cacheDir, *cacheMaxBytes, *queueCap, *maxRuns, *workers, *drainTimeout, *metricsPath); err != nil {
		fmt.Fprintf(os.Stderr, "iramsimd: %v\n", err)
		os.Exit(1)
	}
}

func mainErr(addr, cacheDir string, cacheMaxBytes int64, queueCap, maxRuns, workers int,
	drainTimeout time.Duration, metricsPath string) error {
	reg := obs.NewRegistry()
	var store *resultstore.Store
	if cacheDir != "" {
		var err error
		store, err = resultstore.NewStore(cacheDir)
		if err != nil {
			return err
		}
	}
	s := newServer(serverConfig{
		Queue:         queueCap,
		MaxRuns:       maxRuns,
		Workers:       workers,
		Store:         store,
		CacheMaxBytes: cacheMaxBytes,
		Obs:           reg,
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "iramsimd: listening on http://%s (queue=%d runs=%d j=%d cache=%q)\n",
		ln.Addr(), queueCap, maxRuns, workers, cacheDir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err // listener died; nothing to drain
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "iramsimd: %v: draining (timeout %s)\n", got, drainTimeout)
	}

	// Drain: reject new runs (503), let the pipeline empty, then stop
	// accepting connections. Event streams for finished runs close on
	// their own; Close after Shutdown's grace kills stragglers.
	s.drain(drainTimeout)
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		_ = srv.Close()
	}

	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		werr := reg.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("metrics: %w", werr)
		}
		fmt.Fprintf(os.Stderr, "iramsimd: metrics written to %s\n", metricsPath)
	}
	fmt.Fprintln(os.Stderr, "iramsimd: shutdown complete")
	return nil
}
