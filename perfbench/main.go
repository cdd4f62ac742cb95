// Command perfbench is the repository's benchmark: one process that runs
// a named workload against the library's public packages, prints every
// metric with its unit and sample count, checks the outputs, and ends
// with a one-line JSON result. See README.md for the workloads, metrics
// and how to run it.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// A pass runs a workload once on prepared inputs: set-up, warm-up, the
// timed window and the correctness checks. traced selects the per-layer
// instrumentation.
type pass func(traced bool) (*report, error)

// prepared is a workload whose inputs exist: the pass over them, the
// input-generation notes and metrics, and what to remove afterwards.
type prepared struct {
	pass    pass
	gen     *report
	cleanup func() // nil when nothing is left behind
}

// workload prepares a seed's inputs and returns the pass over them. The
// inputs are generated here, before any set-up is timed.
type workload struct {
	prepare func(seed uint64, seconds int) (*prepared, error)
	// served is the calibrated model a serving workload serves; it is
	// empty for the training workload.
	served string
}

var workloads = map[string]workload{
	"fleet-predict": {prepare: preparePredict, served: "table1"},
	"plant-monitor": {prepare: prepareMonitor, served: "monitor-int8"},
	"nmr-train":     {prepare: prepareNMRTrain},
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 15, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	host := readHost()
	refBefore := hostRefMs()

	prep, err := w.prepare(*seed, *seconds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: generating inputs: %v\n", *name, err)
		return 2
	}
	if prep.cleanup != nil {
		defer prep.cleanup()
	}
	p, genRep := prep.pass, prep.gen
	rep, err := p(false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	if *trace == 1 {
		untraced := rep
		if rep, err = p(true); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced: %v\n", *name, err)
			return 2
		}
		for _, c := range untraced.checks {
			c.name = "untraced/" + c.name
			rep.checks = append(rep.checks, c)
		}
		if untraced.sha != "" {
			rep.check("traced-fit-identical", rep.sha == untraced.sha,
				"untraced %s, traced %s", untraced.sha, rep.sha)
		}
		if w.served != "" {
			rep.layers["harness.trace_overhead_share"] = rep.e2e["latency_p50_ms"]/untraced.e2e["latency_p50_ms"] - 1
		} else {
			rep.layers["harness.trace_overhead_share"] = untraced.e2e["throughput_per_s"]/rep.e2e["throughput_per_s"] - 1
		}
		for _, cm := range calibModels {
			// predict_bN runs at the observed mean batch size of the
			// served model, at the calibration batch otherwise.
			batchN := calibBatch
			if cm.name == w.served {
				batchN = int(rep.layers["serve.batch_size_mean"] + 0.5)
			}
			if err := calibrate(cm, *seed, batchN, rep); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: calibrating %s: %v\n", cm.name, err)
				return 2
			}
		}
		for k, v := range genRep.layers {
			rep.layers[k] = v
		}
	}
	rep.notes = append(genRep.notes, rep.notes...)
	refAfter := hostRefMs()
	rep.layers["host.ref_ms_before"] = refBefore
	rep.layers["host.ref_ms_after"] = refAfter
	rep.note("host.ref_ms before %.4f after %.4f", refBefore, refAfter)
	rep.note("failed_share %.6g (%d of %d)", share(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)
	if err := rep.write(os.Stdout, *name, host, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

const (
	// setupMinReps and setupSpan bound the repeated set-ups of a run:
	// at least this many, covering at least this much wall time, so the
	// median spans more than one of a drifting host's speed phases.
	setupMinReps = 11
	setupSpan    = 1500 * time.Millisecond
)

// repeatSetup runs fn, each time after a collection so earlier garbage is
// not charged to it, until both set-up bounds are met. It returns the
// median duration in seconds and the repetition count.
func repeatSetup(fn func() error) (float64, int, error) {
	var times []float64
	begin := time.Now()
	for len(times) < setupMinReps || time.Since(begin) < setupSpan {
		runtime.GC()
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), len(times), nil
}

// window runs hooks at the start and the end of the timed window, on its
// own goroutine; the returned function waits for the end hook.
func window(start, end time.Time, onStart, onEnd func()) (wait func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(time.Until(start))
		onStart()
		time.Sleep(time.Until(end))
		onEnd()
	}()
	return func() { <-done }
}

// probe is what every timed window records at its edges: wall time,
// process CPU time, the live-heap peak and, traced, the backend stage
// histograms and the queue-depth peak.
type probe struct {
	t0, t1           time.Time
	cpu0, cpu1       time.Duration
	heap             *heapSampler
	peakHeapMiB      float64
	fl               *fleet // nil for training
	queue            *queueSampler
	queuePeak        float64
	stages0, stages1 map[string]histTotal
}

func (p *probe) start() {
	if p.fl != nil {
		p.fl.setRecording(true)
		if p.fl.ledger != nil {
			p.stages0 = readStages(p.fl.registries())
			p.queue = startQueueSampler(p.fl.registries(), 100*time.Millisecond)
		}
	}
	p.heap = startHeapSampler(20 * time.Millisecond)
	p.cpu0 = cpuTime()
	p.t0 = time.Now()
}

func (p *probe) end() {
	p.t1 = time.Now()
	p.cpu1 = cpuTime()
	p.peakHeapMiB = p.heap.finish()
	if p.fl != nil {
		p.fl.setRecording(false)
		if p.fl.ledger != nil {
			p.stages1 = readStages(p.fl.registries())
			p.queuePeak = p.queue.finish()
		}
	}
}

func (p *probe) seconds() float64 { return p.t1.Sub(p.t0).Seconds() }

func (p *probe) cpuMs() float64 { return ms(p.cpu1 - p.cpu0) }
