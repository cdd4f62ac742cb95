package main

import (
	"fmt"
	"math"
	"time"

	"specml/internal/nmrsim"
	"specml/internal/nn"
	"specml/internal/rng"
	"specml/internal/toolflow"
)

// calibBatch is the batch size of the per-layer calibration: the training
// batch size of both training workloads.
const calibBatch = 32

// calibModel is one network the traced runs calibrate layer by layer.
type calibModel struct {
	name      string
	build     func(seed uint64) (*nn.Model, error)
	quantized bool     // served through the int8 engine
	layers    []string // "L<i>-<kind>" of the layers timed one by one
}

// timedKind reports whether calibration times a layer of this kind. The
// int8 engine exposes no layers, so a quantized model is timed only on the
// float layers it falls back to (the LSTM).
func timedKind(kind string, quantized bool) bool {
	switch kind {
	case "lstm":
		return true
	case "conv1d", "dense", "locallyconnected1d":
		return !quantized
	}
	return false
}

func table1Model(seed uint64, hidden string) (*nn.Model, error) {
	spec, err := toolflow.MSTable1Spec(msAxisLen, msOutputs, hidden, "softmax", "softmax", 1, calibBatch, seed)
	if err != nil {
		return nil, err
	}
	return spec.Build()
}

func nmrCNNModel(seed uint64) (*nn.Model, error) {
	spec := toolflow.NMRCNNSpec(nmrsim.Axis().N, nmrsim.NumComponents, 1, calibBatch, seed)
	return spec.Build()
}

func monitorModel(seed uint64) (*nn.Model, error) {
	spec := toolflow.NMRLSTMSpec(monitorSteps, nmrsim.Axis().N, nmrsim.NumComponents, 1, calibBatch, seed)
	return spec.Build()
}

// calibModels are the three served or trained networks. Their layer
// names are derived from the built stacks once at start-up.
var calibModels = []calibModel{
	withLayers(calibModel{name: "table1", build: func(s uint64) (*nn.Model, error) { return table1Model(s, "selu") }}),
	withLayers(calibModel{name: "nmr-cnn", build: nmrCNNModel}),
	withLayers(calibModel{name: "monitor-int8", build: monitorModel, quantized: true}),
}

func withLayers(cm calibModel) calibModel {
	m, err := cm.build(1)
	if err != nil {
		panic(fmt.Sprintf("perfbench: building %s: %v", cm.name, err)) // fixed specs: a bug
	}
	for i, l := range m.Layers() {
		if timedKind(l.Kind(), cm.quantized) {
			cm.layers = append(cm.layers, fmt.Sprintf("L%d-%s", i, l.Kind()))
		}
	}
	return cm
}

// layerFlops returns a layer's forward FLOPs per sample, computed from its
// shapes (multiply-adds count two); backward is taken as twice forward.
func layerFlops(l nn.Layer, in, out []int) float64 {
	switch v := l.(type) {
	case *nn.Conv1D:
		return 2 * float64(out[0]*v.Filters*v.Kernel*in[1])
	case *nn.LocallyConnected1D:
		return 2 * float64(out[0]*v.Filters*v.Kernel*in[1])
	case *nn.Dense:
		return 2 * float64(shapeLen(in)*v.Out)
	case *nn.LSTM:
		return 2 * float64(in[0]*4*v.Units*(in[1]+v.Units))
	}
	return 0
}

func shapeLen(s []int) int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// medianMs times fn reps times after one warm-up call and returns the
// median in milliseconds.
func medianMs(reps int, fn func()) float64 {
	fn()
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		fn()
		ts[i] = ms(time.Since(t0))
	}
	return median(ts)
}

// randomRows returns n rows of width w with values in [0, 1).
func randomRows(src *rng.Source, n, w int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, w)
		for j := range rows[i] {
			rows[i][j] = src.Float64()
		}
	}
	return rows
}

// calibrate times cm's whole-model PredictBatch on one worker at batch 1
// and batch batchN, and each timed layer's ForwardBatch and BackwardBatch
// at the calibration batch size, writing nn.* and tensor.* metrics.
func calibrate(cm calibModel, seed uint64, batchN int, rep *report) error {
	m, err := cm.build(seed)
	if err != nil {
		return err
	}
	if batchN < 1 {
		batchN = 1
	}
	src := rng.New(seed ^ 0xca1b)
	rows := randomRows(src, max(batchN, calibBatch), m.InputLen())
	predict := m.PredictBatch
	if cm.quantized {
		q, err := nn.Quantize(m)
		if err != nil {
			return err
		}
		predict = q.PredictBatch
	}
	var perr error
	run := func(n int) func() {
		return func() {
			if _, err := predict(rows[:n], 1); err != nil {
				perr = err
			}
		}
	}
	prefix := "nn." + cm.name + "."
	rep.layers[prefix+"predict_b1_ms"] = medianMs(41, run(1))
	rep.layers[prefix+"predict_bN_ms"] = medianMs(15, run(batchN))
	if perr != nil {
		return perr
	}
	rep.note("nn.%s: predict_bN at N=%d", cm.name, batchN)

	// Per-layer pass: chain ForwardBatch through every layer (timing the
	// calibrated kinds), then BackwardBatch in reverse from a unit gradient.
	layers := m.Layers()
	shapes := m.LayerOutputShapes()
	block := make([]float64, 0, calibBatch*m.InputLen())
	for _, r := range rows[:calibBatch] {
		block = append(block, r...)
	}
	grad := make([]float64, calibBatch*m.OutputLen())
	for i := range grad {
		grad[i] = 1
	}
	const reps = 9
	fwd := make([][]float64, len(layers))
	bwd := make([][]float64, len(layers))
	for r := 0; r <= reps; r++ { // r == 0 warms up
		m.ZeroGrad()
		x := block
		for i, l := range layers {
			bl, ok := l.(nn.BatchLayer)
			if !ok {
				return fmt.Errorf("%s layer %d (%s) has no batched kernel", cm.name, i, l.Kind())
			}
			t0 := time.Now()
			x = bl.ForwardBatch(x, calibBatch)
			if r > 0 {
				fwd[i] = append(fwd[i], ms(time.Since(t0)))
			}
		}
		g := grad
		for i := len(layers) - 1; i >= 0; i-- {
			t0 := time.Now()
			g = layers[i].(nn.BatchLayer).BackwardBatch(g, calibBatch)
			if r > 0 {
				bwd[i] = append(bwd[i], ms(time.Since(t0)))
			}
		}
	}
	var flops, fwdMs, bwdMs float64
	for i, l := range layers {
		if !timedKind(l.Kind(), cm.quantized) {
			continue
		}
		in := m.InputShape()
		if i > 0 {
			in = shapes[i-1]
		}
		name := fmt.Sprintf("%sL%d-%s.", prefix, i, l.Kind())
		f, b := median(fwd[i]), median(bwd[i])
		rep.layers[name+"fwd_ms"] = f
		rep.layers[name+"bwd_ms"] = b
		flops += layerFlops(l, in, shapes[i]) * calibBatch
		fwdMs += f
		bwdMs += b
	}
	if fwdMs <= 0 || bwdMs <= 0 || math.IsNaN(fwdMs+bwdMs) {
		return fmt.Errorf("%s: no layer time measured", cm.name)
	}
	rep.layers["tensor."+cm.name+".fwd_gflops_per_s"] = flops / (fwdMs * 1e6)
	rep.layers["tensor."+cm.name+".bwd_gflops_per_s"] = 2 * flops / (bwdMs * 1e6)
	rep.note("tensor.%s: %.4g GFLOP per calibration batch forward (computed from layer shapes, not counted)", cm.name, flops/1e9)
	return nil
}
