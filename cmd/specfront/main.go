// Command specfront is the fleet front door: a proxy that routes
// inference traffic across N specserve backends by consistent hashing —
// on model name for /v1/predict (so each model's micro-batcher coalesces)
// and on session ID for /v1/monitor sessions (so smoothing state stays on
// one backend). Backends are health-checked continuously; failed hops
// retry against the next ring replica with backoff, and admission control
// sheds with 429 + Retry-After when every candidate backend's queue depth
// says the fleet is saturated. Front-to-backend hops use the SPB1 binary
// spectrum codec by default (see internal/serve/wire.go).
//
//	specfront -addr :8080 -backends http://127.0.0.1:9081,http://127.0.0.1:9082
//	specfront -backends ... -shed-queue-depth 256 -retries 2 -json-hops
//
// SIGINT/SIGTERM drains in-flight requests before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"specml/internal/front"
	"specml/internal/obs"
	"specml/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		backends  = flag.String("backends", "", "comma-separated specserve base URLs (required)")
		vnodes    = flag.Int("vnodes", 64, "virtual nodes per backend on the hash ring")
		retries   = flag.Int("retries", 0, "max failover attempts beyond the first backend (0 = all remaining)")
		backoff   = flag.Duration("retry-backoff", 25*time.Millisecond, "sleep before the first retry, doubling per attempt")
		healthInt = flag.Duration("health-interval", time.Second, "backend probe period")
		healthTmo = flag.Duration("health-timeout", 2*time.Second, "per-probe timeout")
		failThr   = flag.Int("fail-threshold", 2, "consecutive failures before a backend leaves rotation")
		shed      = flag.Int("shed-queue-depth", 512, "per-backend queued+inflight limit before admission control sheds (-1 = never shed)")
		retryAft  = flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
		hopTmo    = flag.Duration("timeout", 15*time.Second, "per-backend-hop timeout")
		maxBody   = flag.Int64("max-body-bytes", 32<<20, "client request body cap")
		jsonHops  = flag.Bool("json-hops", false, "forward to backends as JSON instead of the SPB1 binary codec")
		drain     = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")
		logFormat = flag.String("log-format", "text", "diagnostic log format: text or json")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat, slog.LevelInfo)
	if err != nil {
		fatal(err)
	}
	if *backends == "" {
		fmt.Fprintln(os.Stderr, "specfront: -backends is required (comma-separated specserve URLs)")
		flag.Usage()
		os.Exit(2)
	}
	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}

	f, err := front.New(front.Config{
		Backends:       urls,
		VNodes:         *vnodes,
		Retries:        *retries,
		RetryBackoff:   *backoff,
		HealthInterval: *healthInt,
		HealthTimeout:  *healthTmo,
		FailThreshold:  *failThr,
		ShedQueueDepth: *shed,
		RetryAfter:     *retryAft,
		RequestTimeout: *hopTmo,
		MaxBodyBytes:   *maxBody,
		JSONHops:       *jsonHops,
		Logger:         logger,
	})
	if err != nil {
		fatal(err)
	}

	httpSrv := serve.NewHTTPServer(*addr, f.Handler())
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "backends", len(urls),
		"binary_hops", !*jsonHops, "shed_queue_depth", *shed)

	select {
	case sig := <-stop:
		logger.Info("signal received, draining", "signal", sig.String())
	case err := <-errc:
		fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Error("http shutdown failed", "err", err)
	}
	if err := f.Close(ctx); err != nil {
		logger.Error("front close failed", "err", err)
	}
	logger.Info("shutdown complete")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "specfront:", err)
	os.Exit(1)
}
