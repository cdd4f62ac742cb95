package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"specml/internal/core"
	"specml/internal/nmrsim"
	"specml/internal/rng"
	"specml/internal/serve"
)

// plant-monitor: reactors stepping monitor sessions at a fixed tick, with
// session churn and model re-publishes beside the reads.
const (
	monitorSteps     = 5  // spectra per window: the LSTM's timesteps
	monitorReactors  = 48 // simulated plants
	monitorTick      = 100 * time.Millisecond
	monitorScans     = 16 // scans per reactor; windows slide over them
	monitorCampaign  = 40 // steps per session before it closes
	monitorPublish   = 3 * time.Second
	monitorName      = "monitor"
	monitorSmoothing = 0.5
)

var (
	monitorNames  = nmrsim.ComponentNames
	monitorLimits = []core.Limit{{Name: "MNDPA", Min: 0, Max: 0.45}}
)

// monitorInputs are everything plant-monitor sends, generated from the seed.
type monitorInputs struct {
	model  []byte     // nn.Save bytes of the monitor stack
	frames [][][]byte // [reactor][window] SPB1 frame (model "monitor")
	phase  []time.Duration
	dirs   []string // per-backend model directories
}

func prepareMonitor(seed uint64, seconds int) (*prepared, error) {
	src := rng.New(seed)
	m, err := monitorModel(seed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, err
	}
	in := &monitorInputs{model: buf.Bytes()}
	points := nmrsim.DoE(4, 4)
	reactor := nmrsim.NewReactor()
	for r := 0; r < monitorReactors; r++ {
		ins := nmrsim.NewLowField(seed*1000 + uint64(r))
		var scans [][]float64
		for _, pt := range []nmrsim.OperatingPoint{points[r%len(points)], points[(r+5)%len(points)]} {
			conc, err := reactor.Steady(pt)
			if err != nil {
				return nil, err
			}
			for k := 0; k < monitorScans/2; k++ {
				s, err := ins.Measure(conc)
				if err != nil {
					return nil, err
				}
				scans = append(scans, s.Intensities)
			}
		}
		var frames [][]byte
		for w := 0; w+monitorSteps <= len(scans); w++ {
			var x []float64
			for _, s := range scans[w : w+monitorSteps] {
				x = append(x, s...)
			}
			f, err := serve.AppendPredictRequestBinary(nil, &serve.PredictRequest{Model: monitorName, Intensities: x})
			if err != nil {
				return nil, err
			}
			frames = append(frames, f)
		}
		in.frames = append(in.frames, frames)
		in.phase = append(in.phase, time.Duration(src.Float64()*float64(monitorTick)))
	}
	// Publishing persists models, so each backend gets a model directory
	// inside the run's build directory.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(".bench_build", "monitor-")
	if err != nil {
		return nil, err
	}
	cleanup := func() { os.RemoveAll(tmp) }
	for i := 0; i < backendCount; i++ {
		dir := filepath.Join(tmp, fmt.Sprintf("backend-%d", i))
		if err := os.MkdirAll(dir, 0o755); err == nil {
			err = os.WriteFile(filepath.Join(dir, monitorName+".json"), in.model, 0o644)
		}
		if err != nil {
			cleanup()
			return nil, err
		}
		in.dirs = append(in.dirs, dir)
	}
	gen := newReport()
	gen.note("plant-monitor: %d reactors, tick %v, %d-step campaigns, publish every %v, %d windows per reactor",
		monitorReactors, monitorTick, monitorCampaign, monitorPublish, len(in.frames[0]))
	return &prepared{
		pass:    func(traced bool) (*report, error) { return runMonitor(in, seconds, traced) },
		gen:     gen,
		cleanup: cleanup,
	}, nil
}

// stepRecord is one monitor step as the reactor saw it.
type stepRecord struct {
	window   int
	due      time.Duration // from the run start
	latency  time.Duration // from the due time to the reply
	ok       bool
	pred     []float64
	smoothed []float64
}

// campaign is one monitor session of a reactor.
type campaign struct {
	id    string
	steps []stepRecord
}

// opRecord is a write-side operation (publish, session open or close).
type opRecord struct {
	due time.Duration
	dur time.Duration
	ok  bool
}

func runMonitor(in *monitorInputs, seconds int, traced bool) (*report, error) {
	rep := newReport()
	fl, setup, reps, err := setupFleet(fleetSpec{quantize: true, dirs: in.dirs}, traced)
	if err != nil {
		return nil, err
	}
	defer fl.close()
	rep.set("setup_s", setup, reps)
	runtime.GC()

	window0 := serveWarmup
	window1 := serveWarmup + time.Duration(seconds)*time.Second
	total := window1
	start := time.Now().Add(20 * time.Millisecond)
	p := &probe{fl: fl}
	waitWindow := window(start.Add(window0), start.Add(window1), p.start, p.end)
	timed := func(d time.Duration) bool { return d >= window0 && d < window1 }

	var wg sync.WaitGroup
	var publishes []opRecord
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; time.Duration(k)*monitorPublish < total; k++ {
			due := time.Duration(k) * monitorPublish
			time.Sleep(time.Until(start.Add(due)))
			t0 := time.Now()
			ctx, cancel := context.WithTimeout(context.Background(), hopTimeout)
			status, _, err := fl.call(ctx, http.MethodPut, "/v1/models/"+monitorName, "application/json", "", in.model)
			cancel()
			publishes = append(publishes, opRecord{due: due, dur: time.Since(t0), ok: err == nil && status == http.StatusOK})
		}
	}()

	campaigns := make([][]*campaign, monitorReactors)
	opens := make([][]opRecord, monitorReactors)
	late := make([][]float64, monitorReactors)
	for r := 0; r < monitorReactors; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var cur *campaign
			for k := 0; ; k++ {
				due := in.phase[r] + time.Duration(k)*monitorTick
				if due >= total {
					break
				}
				if k%monitorCampaign == 0 {
					if cur != nil {
						closeSession(fl, cur.id)
					}
					cur = &campaign{id: fmt.Sprintf("r%02d-c%03d", r, k/monitorCampaign)}
					campaigns[r] = append(campaigns[r], cur)
					t0 := time.Now()
					ok := openSession(fl, cur.id)
					opens[r] = append(opens[r], opRecord{due: due, dur: time.Since(t0), ok: ok})
				}
				at := start.Add(due)
				if wait := time.Until(at); wait > 0 {
					time.Sleep(wait)
					if timed(due) {
						late[r] = append(late[r], ms(time.Since(at)))
					}
				}
				w := k % len(in.frames[r])
				rec := stepRecord{window: w, due: due}
				ctx, cancel := context.WithTimeout(context.Background(), hopTimeout)
				status, body, err := fl.call(ctx, http.MethodPost, "/v1/monitor/"+cur.id+"/step",
					serve.BinaryContentType, "", in.frames[r][w])
				cancel()
				rec.latency = time.Since(at)
				if err == nil && status == http.StatusOK {
					var resp struct {
						Prediction []float64 `json:"prediction"`
						Smoothed   []float64 `json:"smoothed"`
					}
					if json.Unmarshal(body, &resp) == nil && allFinite(resp.Prediction) {
						rec.ok, rec.pred, rec.smoothed = true, resp.Prediction, resp.Smoothed
					}
				}
				cur.steps = append(cur.steps, rec)
			}
			if cur != nil {
				closeSession(fl, cur.id)
			}
		}(r)
	}
	wg.Wait()
	waitWindow()
	rep.set("retained_heap_mib", retainedHeapMiB(), 1)

	var lat, lateAll, openMs, publishMs []float64
	ok, good, steps, opsFailed, ops := 0, 0, 0, 0, 0
	for r := range campaigns {
		for _, c := range campaigns[r] {
			for _, s := range c.steps {
				if !timed(s.due) {
					continue
				}
				steps++
				if !s.ok {
					continue
				}
				ok++
				lat = append(lat, ms(s.latency))
				if s.latency <= monitorTick {
					good++
				}
			}
		}
		lateAll = append(lateAll, late[r]...)
		for _, o := range opens[r] {
			openMs = append(openMs, ms(o.dur))
			if timed(o.due) {
				ops++
				if !o.ok {
					opsFailed++
				}
			}
		}
	}
	for _, o := range publishes {
		publishMs = append(publishMs, ms(o.dur))
		if timed(o.due) {
			ops++
			if !o.ok {
				opsFailed++
			}
		}
	}
	latencyMetrics(rep, p, lat, ok, good, steps)
	rep.attempted += ops
	rep.failed += opsFailed
	rep.note("%d publishes, %d session opens; %d of %d timed writes failed", len(publishes), len(openMs), opsFailed, ops)
	genLate, _ := tailPercentile(lateAll)
	rep.layers["harness.gen_late_ms_p99"] = genLate
	rep.note("reactor wake-up late p99 %.4f ms", genLate)
	if genLate > ms(monitorTick) {
		rep.note("WARNING: the reactors fell behind by more than the %v tick", monitorTick)
	}
	if traced {
		serveLayers(rep, p)
		rep.layers["serve.publish_ms"] = median(publishMs)
		rep.layers["serve.session_open_ms"] = median(openMs)
	}
	checkMonitor(rep, fl, in, campaigns)
	return rep, nil
}

func openSession(fl *fleet, id string) bool {
	limits := make([]map[string]any, len(monitorLimits))
	for i, l := range monitorLimits {
		limits[i] = map[string]any{"name": l.Name, "min": l.Min, "max": l.Max}
	}
	body, err := json.Marshal(map[string]any{
		"model": monitorName, "session": id, "names": monitorNames,
		"limits": limits, "smoothing": monitorSmoothing,
	})
	if err != nil {
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), hopTimeout)
	defer cancel()
	status, _, err := fl.call(ctx, http.MethodPost, "/v1/monitor", "application/json", "", body)
	return err == nil && status == http.StatusOK
}

func closeSession(fl *fleet, id string) {
	ctx, cancel := context.WithTimeout(context.Background(), hopTimeout)
	defer cancel()
	_, _, _ = fl.call(ctx, http.MethodDelete, "/v1/monitor/"+id, "", "", nil) // an unknown session is already gone
}

// checkMonitor requires every step prediction to equal a solo predict of
// the same window, and every session's last smoothed vector to equal a
// sequential core.Monitor replay of the predictions it returned. The
// replay also times core.Monitor.Step.
func checkMonitor(rep *report, fl *fleet, in *monitorInputs, campaigns [][]*campaign) {
	mismatches, compared, soloFailed := 0, 0, 0
	for r := range in.frames {
		for w, frame := range in.frames[r] {
			ctx, cancel := context.WithTimeout(context.Background(), hopTimeout)
			status, body, err := fl.call(ctx, http.MethodPost, "/v1/predict",
				serve.BinaryContentType, serve.BinaryContentType, frame)
			cancel()
			var solo []float64
			if err == nil && status == http.StatusOK {
				solo, err = decodeFractions(body, false)
			}
			if err != nil || status != http.StatusOK || !allFinite(solo) {
				soloFailed++
				continue
			}
			for _, c := range campaigns[r] {
				for _, s := range c.steps {
					if s.window == w && s.ok {
						compared++
						if !sameBits(s.pred, solo) {
							mismatches++
						}
					}
				}
			}
		}
	}
	rep.check("step-equals-solo-predict", mismatches == 0 && soloFailed == 0 && compared > 0,
		"%d steps compared with solo predicts, %d differ, %d solo predicts failed", compared, mismatches, soloFailed)

	replayed, diverged, stepped := 0, 0, 0
	var stepUs []float64
	for r := range campaigns {
		for _, c := range campaigns[r] {
			mon, err := core.NewMonitor(monitorNames, monitorLimits, monitorSmoothing)
			if err != nil {
				diverged++
				continue
			}
			var last []float64
			n := 0
			t0 := time.Now()
			for _, s := range c.steps {
				if !s.ok {
					continue
				}
				if _, err := mon.Step(s.pred); err != nil {
					diverged++
					break
				}
				last = s.smoothed
				n++
			}
			if n == 0 {
				continue
			}
			stepUs = append(stepUs, float64(time.Since(t0))/float64(time.Microsecond)/float64(n))
			replayed++
			stepped += n
			if !sameBits(mon.Smoothed(), last) {
				diverged++
			}
		}
	}
	rep.layers["core.monitor_step_us"] = median(stepUs)
	rep.check("session-replay", diverged == 0 && replayed > 0,
		"%d sessions (%d steps) replayed through core.Monitor, %d diverged", replayed, stepped, diverged)
}
