package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef is one benchmark metric: its name, unit and better direction.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd lists the end-to-end metrics every untraced run reports, in
// BENCHMARK.json order. The latency tail is gated through goodput_share
// against a fixed latency limit; the p99 itself is printed in the report
// but not listed, because CPU steal on a shared host moves it by more
// than any useful bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"goodput_share", "ratio", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"retained_heap_mib", "MiB", "lower"},
	{"peak_heap_mib", "MiB", "lower"},
}

// perLayer lists the per-layer metrics every traced run reports, in
// BENCHMARK.json order. A layer a workload never calls reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"front.self_ms_p50", "ms", "lower"},
		{"front.hops_per_request", "count", "lower"},
		{"front.shed_share", "ratio", "lower"},
		{"front.backend_max_share", "ratio", "lower"},
		{"serve.request_ms_p50", "ms", "lower"},
		{"serve.request_ms_p99", "ms", "lower"},
		{"serve.decode_ms", "ms", "lower"},
		{"serve.preprocess_ms", "ms", "lower"},
		{"serve.batch_wait_ms", "ms", "lower"},
		{"serve.forward_ms", "ms", "lower"},
		{"serve.encode_ms", "ms", "lower"},
		{"serve.unattributed_share", "ratio", "lower"},
		{"serve.batch_size_mean", "count", "higher"},
		{"serve.queue_depth_max", "count", "lower"},
		{"serve.publish_ms", "ms", "lower"},
		{"serve.session_open_ms", "ms", "lower"},
		{"core.monitor_step_us", "us", "lower"},
	}
	for _, cm := range calibModels {
		defs = append(defs,
			metricDef{"nn." + cm.name + ".predict_b1_ms", "ms", "lower"},
			metricDef{"nn." + cm.name + ".predict_bN_ms", "ms", "lower"})
		for _, l := range cm.layers {
			defs = append(defs,
				metricDef{"nn." + cm.name + "." + l + ".fwd_ms", "ms", "lower"},
				metricDef{"nn." + cm.name + "." + l + ".bwd_ms", "ms", "lower"})
		}
	}
	defs = append(defs,
		metricDef{"nn.fit.compute_ms", "ms", "lower"},
		metricDef{"nn.fit.render_wait_ms", "ms", "lower"},
		metricDef{"nn.fit.unattributed_share", "ratio", "lower"})
	for _, cm := range calibModels {
		defs = append(defs,
			metricDef{"tensor." + cm.name + ".fwd_gflops_per_s", "GFLOP/s", "higher"},
			metricDef{"tensor." + cm.name + ".bwd_gflops_per_s", "GFLOP/s", "higher"})
	}
	return append(defs,
		metricDef{"dataset.render_busy_share", "ratio", "lower"},
		metricDef{"dataset.render_samples_per_s", "1/s", "higher"},
		metricDef{"dataset.val_materialize_ms", "ms", "lower"},
		metricDef{"msim.characterize_ms", "ms", "lower"},
		metricDef{"nmrsim.augmenter_build_ms", "ms", "lower"},
		metricDef{"ihm.fit_s", "s", "lower"},
		metricDef{"host.ref_ms_before", "ms", "lower"},
		metricDef{"host.ref_ms_after", "ms", "lower"},
		metricDef{"harness.gen_late_ms_p99", "ms", "lower"},
		metricDef{"harness.trace_overhead_share", "ratio", "lower"},
	)
}()

// check is one correctness check and its outcome.
type check struct {
	name   string
	ok     bool
	detail string
}

// report is the outcome of one pass of a workload.
type report struct {
	e2e       map[string]float64 // end-to-end values by name
	samples   map[string]int     // sample count behind each end-to-end value
	layers    map[string]float64 // per-layer values (traced passes)
	attempted int
	failed    int
	checks    []check
	notes     []string // extra lines for the human-readable report
	sha       string   // training workloads: nn.Save SHA-256 of the fit
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, samples: map[string]int{}, layers: map[string]float64{}}
}

func (r *report) set(name string, v float64, n int) {
	r.e2e[name] = v
	r.samples[name] = n
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return len(r.checks) > 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// write prints the human-readable report and then, as the last line, the
// JSON result: end-to-end metrics for an untraced run, per-layer metrics
// for a traced one.
func (r *report) write(w io.Writer, workload string, host hostInfo, traced bool) error {
	hb, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workload %s  host %s\n", workload, hb)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, c := range r.checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
		}
		fmt.Fprintf(w, "  check %-28s %s  %s\n", c.name, status, c.detail)
	}
	out := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	if !traced {
		for _, d := range endToEnd {
			v, ok := r.e2e[d.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("perfbench: workload %s measured no %s", workload, d.Name)
			}
			fmt.Fprintf(w, "  %-22s %14.6g %-6s (n=%d)\n", d.Name, v, d.Unit, r.samples[d.Name])
			out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
	} else {
		for _, d := range perLayer {
			v, ok := r.layers[d.Name]
			tag := ""
			switch {
			case !ok:
				tag = "  (idle on this workload)"
			case math.IsNaN(v) || math.IsInf(v, 0):
				v, tag = 0, "  (no samples)"
			}
			fmt.Fprintf(w, "  %-42s %14.6g %s%s\n", d.Name, v, d.Unit, tag)
			out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
		var extra []string
		for name := range r.layers {
			if !containsDef(perLayer, name) {
				extra = append(extra, name)
			}
		}
		if len(extra) > 0 {
			sort.Strings(extra)
			return fmt.Errorf("perfbench: uncatalogued per-layer metrics %v", extra)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func containsDef(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}
