package main

import (
	"math"
	"time"
)

const (
	// serveWarmup is the untimed traffic before a serving window opens.
	serveWarmup = 2 * time.Second
	// hopTimeout bounds one client request on the serving workloads.
	hopTimeout = 15 * time.Second
)

// setupFleet builds the fleet repeatedly (see repeatSetup) and keeps the
// last one; the others are closed.
func setupFleet(spec fleetSpec, traced bool) (fl *fleet, setupS float64, reps int, err error) {
	setupS, reps, err = repeatSetup(func() error {
		if fl != nil {
			fl.close()
		}
		fl, err = newFleet(spec, traced)
		return err
	})
	return fl, setupS, reps, err
}

// serveLayers writes the front.* and serve.* metrics of a traced window.
func serveLayers(rep *report, p *probe) {
	fl := p.fl
	fl.mu.Lock()
	rep.layers["front.self_ms_p50"] = median(fl.selfMs)
	rep.layers["front.hops_per_request"] = share(float64(fl.hops), float64(fl.requests))
	rep.layers["front.shed_share"] = share(float64(fl.shed), float64(fl.requests))
	fl.mu.Unlock()
	rep.layers["front.backend_max_share"] = fl.ledger.maxShare()

	fl.ledger.mu.Lock()
	hops := append([]float64(nil), fl.ledger.hopMs...)
	fl.ledger.mu.Unlock()
	reqP50 := median(hops)
	reqP99, pct := tailPercentile(hops)
	rep.layers["serve.request_ms_p50"] = reqP50
	rep.layers["serve.request_ms_p99"] = reqP99
	rep.note("serve.request_ms_p99 is p%.2f of %d hops", pct, len(hops))

	sum := 0.0
	for _, st := range stageNames {
		mean := p.stages1[st].minus(p.stages0[st]).mean() * 1e3
		rep.layers["serve."+st+"_ms"] = mean
		sum += mean
	}
	meanHop := 0.0
	for _, h := range hops {
		meanHop += h
	}
	meanHop /= math.Max(1, float64(len(hops)))
	rep.layers["serve.unattributed_share"] = 1 - share(sum, meanHop)
	rep.layers["serve.batch_size_mean"] = p.stages1["batch_size"].minus(p.stages0["batch_size"]).mean()
	rep.layers["serve.queue_depth_max"] = p.queuePeak
}

// latencyMetrics sets the serving end-to-end metrics from the timed ops:
// latencies of the 2xx ones, and how many met the limit.
func latencyMetrics(rep *report, p *probe, lat []float64, ok, good, timed int) {
	p50 := median(lat)
	tail, pct := tailPercentile(lat)
	rep.set("throughput_per_s", float64(ok)/p.seconds(), ok)
	rep.set("latency_p50_ms", p50, len(lat))
	rep.note("latency_p99_ms %.6g ms: p%.2f of %d", tail, pct, len(lat))
	rep.set("goodput_share", share(float64(good), float64(timed)), timed)
	rep.set("cpu_ms_per_op", share(p.cpuMs(), float64(timed)), timed)
	rep.set("peak_heap_mib", p.peakHeapMiB, 1)
	rep.attempted = timed
	rep.failed = timed - ok
}
