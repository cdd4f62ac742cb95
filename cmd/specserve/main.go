// Command specserve runs the batched concurrent inference server: it loads
// nn.Save-serialized networks from a model directory and serves
// /v1/predict, /v1/monitor sessions with alarm limits, /v1/models hot
// reload and /v1/stats over HTTP/JSON, with all forward passes coalesced
// by a per-model micro-batching dispatcher.
//
//	specserve -train-demo models/         # train a quick MS model to serve
//	specserve -models models/             # serve every models/*.json
//	specserve -models models/ -addr :9090 -max-batch 64 -batch-window 2ms
//
// Example session:
//
//	curl -s localhost:8080/v1/models
//	curl -s -X POST localhost:8080/v1/predict -d '{"model":"ms-demo","intensities":[...]}'
//	curl -s -X POST localhost:8080/v1/monitor -d '{"model":"ms-demo","smoothing":0.5}'
//	curl -s -X POST localhost:8080/v1/monitor/mon-000001/step -d '{"intensities":[...]}'
//
// SIGINT/SIGTERM triggers a graceful shutdown that drains in-flight
// batches before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"specml/internal/core"
	"specml/internal/msim"
	"specml/internal/obs"
	"specml/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		models    = flag.String("models", "", "directory of *.json model files (nn.Save format)")
		maxBatch  = flag.Int("max-batch", 32, "max requests coalesced into one forward pass")
		window    = flag.Duration("batch-window", 5*time.Millisecond, "how long a batch waits for co-travellers")
		workers   = flag.Int("workers", 0, "forward-pass worker count (0 = all cores); results are identical for any value")
		quantize  = flag.Bool("quantize", false, "serve int8-quantized engines (faster forward passes, bounded accuracy drift; responses carry X-Specml-Precision)")
		timeout   = flag.Duration("timeout", 10*time.Second, "per-request dispatcher timeout")
		maxSess   = flag.Int("max-sessions", 256, "max live monitor sessions (-1 = unlimited)")
		sessIdle  = flag.Duration("session-idle-timeout", 30*time.Minute, "expire monitor sessions idle this long (-1s = never)")
		trainDemo = flag.String("train-demo", "", "train a small MS pipeline and write <dir>/ms-demo.json, then exit")
		demoSize  = flag.Int("demo-samples", 400, "with -train-demo: training-corpus size")
		demoTask  = flag.String("demo-task", "", "with -train-demo: comma-separated compound names (default: the full standard task)")
		demoEpoch = flag.Int("demo-epochs", 2, "with -train-demo: training epochs")
		seed      = flag.Uint64("seed", 1, "with -train-demo: training seed")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); off when empty")
		logFormat = flag.String("log-format", "text", "diagnostic log format: text or json")
		drain     = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight batches on shutdown")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat, slog.LevelInfo)
	if err != nil {
		fatal(err)
	}

	if *trainDemo != "" {
		if err := trainDemoModel(logger, *trainDemo, splitTask(*demoTask), *demoSize, *demoEpoch, *seed, *workers); err != nil {
			fatal(err)
		}
		return
	}
	if *models == "" {
		fmt.Fprintln(os.Stderr, "specserve: -models is required (try -train-demo models/ first)")
		flag.Usage()
		os.Exit(2)
	}
	srv, err := serve.New(serve.Config{
		MaxBatch:           *maxBatch,
		BatchWindow:        *window,
		Workers:            *workers,
		Quantize:           *quantize,
		RequestTimeout:     *timeout,
		ModelDir:           *models,
		MaxSessions:        *maxSess,
		SessionIdleTimeout: *sessIdle,
		Logger:             logger,
	})
	if err != nil {
		fatal(err)
	}
	for _, m := range srv.Registry().List() {
		logger.Info("loaded model", "model", m.Name, "in", m.InputLen, "out", m.OutputLen,
			"params", m.Params, "precision", m.Precision)
	}
	httpSrv := serve.NewHTTPServer(*addr, srv.Handler())

	if *pprofAddr != "" {
		// Profiling stays off the API listener so it is never exposed by
		// accident: its own mux on its own (typically loopback) address.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := serve.NewHTTPServer(*pprofAddr, pm).ListenAndServe(); err != nil {
				logger.Error("pprof listener failed", "err", err)
			}
		}()
		logger.Info("pprof listening", "url", fmt.Sprintf("http://%s/debug/pprof/", *pprofAddr))
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "max_batch", *maxBatch, "window", *window, "workers", *workers)

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
	if err := srv.Close(ctx); err != nil {
		logger.Error("drain failed", "err", err)
	}
	logger.Info("shutdown complete")
}

// trainDemoModel runs the laptop-scale MS pipeline end to end and exports
// the trained Table-1 CNN, so a served model exists within seconds of a
// fresh checkout.
func trainDemoModel(logger *slog.Logger, dir string, task []string, samples, epochs int, seed uint64, workers int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	pipe, err := core.NewMSPipeline(core.MSConfig{
		Task:         task,
		TrainSamples: samples,
		Epochs:       epochs,
		Seed:         seed,
		Workers:      workers,
	})
	if err != nil {
		return err
	}
	proto := msim.NewVirtualInstrument(nil, seed+5)
	refs, err := msim.CollectReferences(proto, pipe.LineSimulator(), msim.DefaultAxis(),
		msim.StandardMixtures(pipe.LineSimulator().NumCompounds()), 5)
	if err != nil {
		return err
	}
	if err := pipe.Characterize(refs); err != nil {
		return err
	}
	logger.Info("training demo model", "samples", samples)
	res, err := pipe.Train(os.Stdout)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "ms-demo.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = res.Model.Save(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	logger.Info("wrote demo model", "path", path, "val_mae", res.ValMAE, "serve_with", "specserve -models "+dir)
	return nil
}

// splitTask parses a comma-separated compound list; empty means the
// pipeline's default task.
func splitTask(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "specserve:", err)
	os.Exit(1)
}
