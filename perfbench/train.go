package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"specml/internal/core"
	"specml/internal/dataset"
	"specml/internal/ihm"
	"specml/internal/nmrsim"
	"specml/internal/nn"
	"specml/internal/obs"
	"specml/internal/rng"
)

// The training workload: one warm-up epoch, then one timed epoch per
// second of --seconds, each over a fixed corpus sized to take about a
// second.
const (
	trainBatch    = calibBatch
	nmrCorpus     = 16000 // NMR CNN training samples per epoch
	nmrValPerPlat = 5     // measured spectra per reactor plateau
)

// clockSource wraps the training dataset.Source and records when each
// mini-batch render started, how long it took and how many rows it made.
// It forwards every call unchanged.
type clockSource struct {
	dataset.Source
	mu     sync.Mutex
	starts []time.Time
	busy   []time.Duration
	rows   []int
}

func (c *clockSource) Batch(epoch int, indices []int, dstX, dstY [][]float64) error {
	t0 := time.Now()
	err := c.Source.Batch(epoch, indices, dstX, dstY)
	d := time.Since(t0)
	c.mu.Lock()
	c.starts = append(c.starts, t0)
	c.busy = append(c.busy, d)
	c.rows = append(c.rows, len(indices))
	c.mu.Unlock()
	return err
}

// epochClock is the fit's Verbose writer: it timestamps each epoch line
// and calls onEpoch with the number of epochs finished.
type epochClock struct {
	times   []time.Time
	onEpoch func(done int)
}

func (e *epochClock) Write(p []byte) (int, error) {
	for range strings.Split(strings.TrimSuffix(string(p), "\n"), "\n") {
		e.times = append(e.times, time.Now())
		if e.onEpoch != nil {
			e.onEpoch(len(e.times))
		}
	}
	return len(p), nil
}

// trainSetup is one set-up of a training workload, ready to fit.
type trainSetup struct {
	model *nn.Model
	train dataset.Source
	cfg   nn.FitConfig
	times map[string]float64 // per-layer set-up timings in ms
}

// runTraining sets up repeatedly (setup_s is the median, see
// repeatSetup), fits the last set-up for 1 + seconds epochs and measures
// the epochs after the first.
func runTraining(setup func() (*trainSetup, error), seconds int, traced bool) (*report, error) {
	rep := newReport()
	var ts *trainSetup
	subTimes := map[string][]float64{}
	setupS, reps, err := repeatSetup(func() error {
		s, err := setup()
		if err != nil {
			return err
		}
		for k, v := range s.times {
			subTimes[k] = append(subTimes[k], v)
		}
		ts = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setupS, reps)
	for k, v := range subTimes {
		rep.layers[k] = median(v)
	}

	epochs := 1 + seconds
	clk := &clockSource{Source: ts.train}
	p := &probe{}
	var reg *obs.Registry
	var fit0, fit1 string
	if traced {
		reg = obs.NewRegistry()
	}
	ec := &epochClock{onEpoch: func(done int) {
		switch done {
		case 1:
			if reg != nil {
				fit0 = promText(reg)
			}
			p.start()
		case epochs:
			p.end()
			if reg != nil {
				fit1 = promText(reg)
			}
		}
	}}
	cfg := ts.cfg
	cfg.Epochs = epochs
	cfg.BatchSize = trainBatch
	cfg.Workers = 1
	cfg.Prefetch = 2
	cfg.Verbose = ec
	cfg.Metrics = reg
	runtime.GC()
	hist, err := ts.model.FitSource(clk, cfg)
	if err != nil {
		return nil, err
	}
	if len(ec.times) != epochs {
		return nil, fmt.Errorf("fit reported %d epochs, want %d", len(ec.times), epochs)
	}
	rep.set("retained_heap_mib", retainedHeapMiB(), 1)

	samples := ts.train.Len()
	timedSamples := samples * (epochs - 1)
	wall := ec.times[epochs-1].Sub(ec.times[0])
	good := 0
	finite := true
	for e := 1; e < epochs; e++ {
		ok := !math.IsNaN(hist.TrainLoss[e]) && !math.IsInf(hist.TrainLoss[e], 0)
		if len(hist.ValLoss) > e {
			ok = ok && !math.IsNaN(hist.ValLoss[e]) && !math.IsInf(hist.ValLoss[e], 0)
		}
		if ok {
			good += samples
		} else {
			finite = false
		}
	}
	// The op is one mini-batch step, timed per epoch as the epoch's mean
	// step time: the host's speed drifts in phases longer than a step, so
	// a median over single steps flips between the phases. The single-step
	// intervals (the time between successive batch renders, which the
	// prefetch pipeline paces at the step rate) and their tail are printed
	// alongside.
	var steps []float64
	var busy time.Duration
	rendered := 0
	for i, t := range clk.starts {
		if t.Before(ec.times[0]) || t.After(ec.times[epochs-1]) {
			continue
		}
		busy += clk.busy[i]
		rendered += clk.rows[i]
		if i > 0 && !clk.starts[i-1].Before(ec.times[0]) {
			steps = append(steps, ms(t.Sub(clk.starts[i-1])))
		}
	}
	batches := (samples + trainBatch - 1) / trainBatch
	var epochS, stepMs []float64
	for e := 1; e < epochs; e++ {
		d := ec.times[e].Sub(ec.times[e-1])
		epochS = append(epochS, d.Seconds())
		stepMs = append(stepMs, ms(d)/float64(batches))
	}
	rep.set("throughput_per_s", float64(timedSamples)/wall.Seconds(), timedSamples)
	rep.set("latency_p50_ms", median(stepMs), len(stepMs))
	stepTail, stepPct := tailPercentile(steps)
	rep.note("single mini-batch step intervals: p50 %.4f ms, p%.2f %.4f ms (n=%d)",
		median(steps), stepPct, stepTail, len(steps))
	rep.set("goodput_share", share(float64(good), float64(timedSamples)), timedSamples)
	rep.set("cpu_ms_per_op", share(p.cpuMs(), float64(timedSamples)), timedSamples)
	rep.set("peak_heap_mib", p.peakHeapMiB, 1)
	rep.attempted = timedSamples
	rep.failed = timedSamples - good
	rep.note("epoch_p50_s %.6f over %d timed epochs of %d samples", median(epochS), epochs-1, samples)

	if traced {
		wallS := wall.Seconds()
		compute := histDelta(fit0, fit1, "specml_fit_compute_seconds")
		wait := histDelta(fit0, fit1, "specml_fit_render_wait_seconds")
		rep.layers["nn.fit.compute_ms"] = compute.mean() * 1e3
		rep.layers["nn.fit.render_wait_ms"] = wait.mean() * 1e3
		rep.layers["nn.fit.unattributed_share"] = 1 - (compute.sum+wait.sum)/wallS
		rep.layers["dataset.render_busy_share"] = busy.Seconds() / wallS
		rep.layers["dataset.render_samples_per_s"] = share(float64(rendered), busy.Seconds())
	}

	var buf bytes.Buffer
	if err := ts.model.Save(&buf); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(buf.Bytes())
	rep.sha = hex.EncodeToString(sum[:])
	rep.note("fitted model nn.Save sha256 %s", rep.sha)
	first, last := hist.TrainLoss[0], hist.TrainLoss[len(hist.TrainLoss)-1]
	rep.check("fit-losses-finite", finite, "train loss %.6g -> %.6g over %d epochs", first, last, epochs)
	rep.check("fit-learns", last < first, "final train loss below the first epoch's")
	return rep, nil
}

// promText renders a registry in the Prometheus text format.
func promText(reg *obs.Registry) string {
	var b strings.Builder
	_ = reg.WritePrometheus(&b) // a strings.Builder cannot fail
	return b.String()
}

// histDelta is the change of a histogram's count and sum between two
// expositions.
func histDelta(before, after, name string) histTotal {
	at := func(text string) histTotal {
		return histTotal{
			count: uint64(sumSeries(text, name+"_count")),
			sum:   sumSeries(text, name+"_sum"),
		}
	}
	return at(after).minus(at(before))
}

func prepareNMRTrain(seed uint64, seconds int) (*prepared, error) {
	gen := newReport()
	// Input generation: fit the IHM pure-component models (reported as
	// ihm.fit_s, outside setup_s) and measure a small reactor campaign for
	// validation.
	t0 := time.Now()
	pipe := core.NewNMRPipeline(core.NMRConfig{Seed: seed, Workers: 1})
	if err := pipe.FitComponents(); err != nil {
		return nil, err
	}
	gen.layers["ihm.fit_s"] = time.Since(t0).Seconds()
	var compBuf bytes.Buffer
	if err := ihm.SaveComponents(pipe.Components(), &compBuf); err != nil {
		return nil, err
	}
	components := compBuf.Bytes()
	plateaus, err := nmrsim.Campaign(nmrsim.NewReactor(), nmrsim.NewLowField(seed+50),
		nmrsim.DoE(3, 4), nmrValPerPlat, 0.01, seed+51)
	if err != nil {
		return nil, err
	}
	spectra, labels := nmrsim.FlattenCampaign(plateaus)
	gen.note("nmr-train: IHM fit %.3f s, %d training samples, %d measured validation spectra, 1 warm-up + %d timed epochs",
		gen.layers["ihm.fit_s"], nmrCorpus, len(spectra), seconds)
	lf := nmrsim.NewLowField(0)
	setup := func() (*trainSetup, error) {
		times := map[string]float64{}
		comps, err := ihm.LoadComponents(bytes.NewReader(components))
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		aug := &nmrsim.Augmenter{
			Axis:           nmrsim.Axis(),
			Components:     comps,
			ConcLo:         []float64{0, 0, 0, 0},
			ConcHi:         []float64{0.6, 0.6, 0.6, 0.5},
			ShiftJitter:    lf.ShiftJitter,
			WidthJitter:    lf.WidthJitter,
			NoiseSigma:     lf.NoiseSigma,
			IntensityScale: lf.IntensityScale,
			Workers:        1,
		}
		stream, err := aug.TrainingStream(nmrCorpus, seed+20)
		if err != nil {
			return nil, err
		}
		times["nmrsim.augmenter_build_ms"] = ms(time.Since(t0))
		train, err := dataset.Select(stream, dataset.ShuffledIndices(nmrCorpus, rng.New(seed+21)))
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		val := dataset.New(len(spectra))
		for i, s := range spectra {
			val.Append(append([]float64(nil), s.Intensities...), append([]float64(nil), labels[i]...))
		}
		if err := val.Validate(); err != nil {
			return nil, err
		}
		times["dataset.val_materialize_ms"] = ms(time.Since(t0))
		m, err := nmrCNNModel(seed)
		if err != nil {
			return nil, err
		}
		opt, err := nn.OptimizerByName("adam", 0.001)
		if err != nil {
			return nil, err
		}
		return &trainSetup{model: m, train: train, times: times, cfg: nn.FitConfig{
			Loss: nn.MSE, Optimizer: opt, Seed: seed + 22, ValX: val.X, ValY: val.Y, KeepBest: true,
		}}, nil
	}
	return &prepared{pass: func(traced bool) (*report, error) { return runTraining(setup, seconds, traced) }, gen: gen}, nil
}
