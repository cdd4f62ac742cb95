package nn

import (
	"encoding/json"
	"fmt"
	"io"

	"specml/internal/tensor"
)

// On-disk layout of a quantized model. Quantized layers store their int8
// codes (base64 via []byte, unpadded row-major [out][fanIn]), per-output-
// channel scales and float bias; every other layer keeps its float
// parameter tensors, in stack order. The layout is pinned byte-for-byte
// by quantized_golden_test.go.
type savedQuantLayer struct {
	Layer   int       `json:"layer"` // index into Layers
	Kind    string    `json:"kind"`  // "dense" | "conv1d"
	Scales  []float64 `json:"scales"`
	Weights []byte    `json:"weights"`
	Bias    []float64 `json:"bias"`
}

type savedQuantModel struct {
	Format       string            `json:"format"`
	InputShape   []int             `json:"inputShape"`
	Layers       []LayerSpec       `json:"layers"`
	Quant        []savedQuantLayer `json:"quant"`
	FloatWeights [][]float64       `json:"floatWeights,omitempty"`
}

const quantFormat = "specml/qmodel/v1"

// packCodes strips the panel padding: [rows][kp] int8 -> [rows][k] bytes.
func packCodes(w []int8, rows, k, kp int) []byte {
	out := make([]byte, rows*k)
	for r := 0; r < rows; r++ {
		for i := 0; i < k; i++ {
			out[r*k+i] = byte(w[r*kp+i])
		}
	}
	return out
}

// unpackCodes re-pads stored codes to the panel stride.
func unpackCodes(dst []int8, src []byte, rows, k, kp int) {
	for r := 0; r < rows; r++ {
		for i := 0; i < k; i++ {
			dst[r*kp+i] = int8(src[r*k+i])
		}
	}
}

// Save writes the quantized engine (architecture, int8 codes, scales, and
// the float parameters of non-quantized layers) as JSON.
func (q *QuantizedModel) Save(w io.Writer) error {
	sm := savedQuantModel{
		Format:     quantFormat,
		InputShape: q.m.inputShape,
		Layers:     q.m.Specs(),
	}
	for li, st := range q.steps {
		switch v := st.(type) {
		case *qDense:
			sm.Quant = append(sm.Quant, savedQuantLayer{
				Layer:   li,
				Kind:    "dense",
				Scales:  v.ws,
				Weights: packCodes(v.w, v.out, v.in, v.kp),
				Bias:    v.b,
			})
		case *qConv1D:
			sm.Quant = append(sm.Quant, savedQuantLayer{
				Layer:   li,
				Kind:    "conv1d",
				Scales:  v.ws,
				Weights: packCodes(v.w, v.filters, v.fanIn, v.kp),
				Bias:    v.b,
			})
		case *qFloat:
			for _, p := range v.l.Params() {
				sm.FloatWeights = append(sm.FloatWeights, p.Data)
			}
		}
	}
	return json.NewEncoder(w).Encode(&sm)
}

// LoadQuantized reads an engine saved with (*QuantizedModel).Save. The
// inner model's quantized layers receive the dequantized weights
// (scale·code), so introspection (Summary, NumParams) sees a faithful
// float surrogate; inference runs on the stored int8 codes exactly as
// saved. Load->Save round-trips byte-identically.
func LoadQuantized(r io.Reader) (*QuantizedModel, error) {
	var sm savedQuantModel
	if err := json.NewDecoder(r).Decode(&sm); err != nil {
		return nil, fmt.Errorf("nn: decoding quantized model: %w", err)
	}
	if sm.Format != quantFormat {
		return nil, fmt.Errorf("nn: unsupported quantized model format %q", sm.Format)
	}
	carried := 0 // every parameter is stored once: as a code, a bias or a float
	for _, e := range sm.Quant {
		carried += len(e.Weights) + len(e.Bias)
	}
	for _, w := range sm.FloatWeights {
		carried += len(w)
	}
	m, err := buildChecked(sm.Layers, sm.InputShape, carried)
	if err != nil {
		return nil, err
	}
	m.SetTraining(false)
	m.setInference(true)
	q := &QuantizedModel{m: m}

	quantAt := make(map[int]*savedQuantLayer, len(sm.Quant))
	for i := range sm.Quant {
		e := &sm.Quant[i]
		if e.Layer < 0 || e.Layer >= len(m.layers) {
			return nil, fmt.Errorf("nn: quant entry %d targets layer %d of %d", i, e.Layer, len(m.layers))
		}
		if _, dup := quantAt[e.Layer]; dup {
			return nil, fmt.Errorf("nn: duplicate quant entry for layer %d", e.Layer)
		}
		quantAt[e.Layer] = e
	}

	nextFloat := 0
	takeFloat := func(p *Param) error {
		if nextFloat >= len(sm.FloatWeights) {
			return fmt.Errorf("nn: quantized model is missing float weight tensor %d", nextFloat)
		}
		w := sm.FloatWeights[nextFloat]
		if len(w) != len(p.Data) {
			return fmt.Errorf("nn: float weight tensor %d has %d values, want %d", nextFloat, len(w), len(p.Data))
		}
		copy(p.Data, w)
		nextFloat++
		return nil
	}

	for li, l := range m.layers {
		e, isQuant := quantAt[li]
		switch v := l.(type) {
		case *Dense:
			if !isQuant {
				return nil, fmt.Errorf("nn: dense layer %d has no quant entry", li)
			}
			if e.Kind != "dense" {
				return nil, fmt.Errorf("nn: quant entry for layer %d is %q, want dense", li, e.Kind)
			}
			qd := &qDense{in: v.in, out: v.Out, kp: tensor.KPad16(v.in)}
			if len(e.Scales) != qd.out || len(e.Bias) != qd.out || len(e.Weights) != qd.out*qd.in {
				return nil, fmt.Errorf("nn: quant dense layer %d size mismatch (scales %d, bias %d, weights %d for out=%d in=%d)",
					li, len(e.Scales), len(e.Bias), len(e.Weights), qd.out, qd.in)
			}
			qd.ws = e.Scales
			qd.b = e.Bias
			qd.w = make([]int8, qd.out*qd.kp)
			unpackCodes(qd.w, e.Weights, qd.out, qd.in, qd.kp)
			for o := 0; o < qd.out; o++ {
				for i := 0; i < qd.in; i++ {
					v.w.Data[o*qd.in+i] = qd.ws[o] * float64(qd.w[o*qd.kp+i])
				}
			}
			copy(v.b.Data, qd.b)
			q.steps = append(q.steps, qd)
			q.nQuant++
		case *Conv1D:
			if !isQuant {
				return nil, fmt.Errorf("nn: conv1d layer %d has no quant entry", li)
			}
			if e.Kind != "conv1d" {
				return nil, fmt.Errorf("nn: quant entry for layer %d is %q, want conv1d", li, e.Kind)
			}
			qc := &qConv1D{
				inLen: v.inLen, inCh: v.inCh, outLen: v.outLen,
				kernel: v.Kernel, stride: v.Stride, filters: v.Filters,
				fanIn: v.Kernel * v.inCh, inSize: v.inLen * v.inCh,
			}
			qc.kp = tensor.KPad16(qc.fanIn)
			qc.oSize = qc.outLen * qc.filters
			if len(e.Scales) != qc.filters || len(e.Bias) != qc.filters || len(e.Weights) != qc.filters*qc.fanIn {
				return nil, fmt.Errorf("nn: quant conv1d layer %d size mismatch (scales %d, bias %d, weights %d for filters=%d fanIn=%d)",
					li, len(e.Scales), len(e.Bias), len(e.Weights), qc.filters, qc.fanIn)
			}
			qc.ws = e.Scales
			qc.b = e.Bias
			qc.w = make([]int8, qc.filters*qc.kp)
			unpackCodes(qc.w, e.Weights, qc.filters, qc.fanIn, qc.kp)
			for f := 0; f < qc.filters; f++ {
				for i := 0; i < qc.fanIn; i++ {
					v.w.Data[f*qc.fanIn+i] = qc.ws[f] * float64(qc.w[f*qc.kp+i])
				}
			}
			copy(v.b.Data, qc.b)
			q.steps = append(q.steps, qc)
			q.nQuant++
		default:
			if isQuant {
				return nil, fmt.Errorf("nn: quant entry for layer %d (%s) which has no int8 kernel", li, l.Kind())
			}
			for _, p := range l.Params() {
				if err := takeFloat(p); err != nil {
					return nil, err
				}
			}
			q.steps = append(q.steps, &qFloat{l: l})
		}
	}
	if nextFloat != len(sm.FloatWeights) {
		return nil, fmt.Errorf("nn: quantized model has %d float weight tensors, architecture consumed %d",
			len(sm.FloatWeights), nextFloat)
	}
	return q, nil
}
