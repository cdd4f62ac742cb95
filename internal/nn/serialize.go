package nn

import (
	"encoding/json"
	"fmt"
	"io"
)

// LayerSpec is a serializable, weight-free description of one layer. It is
// the unit of the toolflow's declarative topology definitions ("the
// definition of one or more network topologies ... without modifying the
// source code").
type LayerSpec struct {
	Type        string  `json:"type"`
	Out         int     `json:"out,omitempty"`         // dense
	Filters     int     `json:"filters,omitempty"`     // conv / locally connected
	Kernel      int     `json:"kernel,omitempty"`      // conv / pooling
	Stride      int     `json:"stride,omitempty"`      // conv / pooling
	Units       int     `json:"units,omitempty"`       // lstm
	Activation  string  `json:"activation,omitempty"`  // activation layer
	TargetShape []int   `json:"targetShape,omitempty"` // reshape
	Rate        float64 `json:"rate,omitempty"`        // dropout
	Init        string  `json:"init,omitempty"`        // weight initializer
	// Inner describes the wrapped layer of a timedistributed layer; its
	// per-step input shape is TargetShape (empty = flat features).
	Inner *LayerSpec `json:"inner,omitempty"`
}

// LayerFromSpec constructs an unbuilt layer from its spec.
func LayerFromSpec(s LayerSpec) (Layer, error) {
	switch s.Type {
	case "dense":
		return &Dense{Out: s.Out, Init: s.Init}, nil
	case "conv1d":
		return &Conv1D{Filters: s.Filters, Kernel: s.Kernel, Stride: s.Stride, Init: s.Init}, nil
	case "locallyconnected1d":
		return &LocallyConnected1D{Filters: s.Filters, Kernel: s.Kernel, Stride: s.Stride, Init: s.Init}, nil
	case "lstm":
		return &LSTM{Units: s.Units}, nil
	case "activation":
		act, err := ActivationByName(s.Activation)
		if err != nil {
			return nil, err
		}
		return &ActivationLayer{Act: act}, nil
	case "softmax":
		return &SoftmaxLayer{}, nil
	case "flatten":
		return &Flatten{}, nil
	case "reshape":
		return &Reshape{TargetShape: append([]int(nil), s.TargetShape...)}, nil
	case "dropout":
		return &Dropout{Rate: s.Rate}, nil
	case "maxpool1d":
		return NewMaxPool1D(s.Kernel, s.Stride), nil
	case "avgpool1d":
		return NewAvgPool1D(s.Kernel, s.Stride), nil
	case "timedistributed":
		if s.Inner == nil {
			return nil, fmt.Errorf("nn: timedistributed spec without inner layer")
		}
		inner, err := LayerFromSpec(*s.Inner)
		if err != nil {
			return nil, err
		}
		return NewTimeDistributed(inner, s.TargetShape...), nil
	default:
		return nil, fmt.Errorf("nn: unknown layer type %q", s.Type)
	}
}

// FromSpecs builds a model from layer specs (unbuilt; call Build).
func FromSpecs(specs []LayerSpec) (*Model, error) {
	m := NewModel()
	for i, s := range specs {
		l, err := LayerFromSpec(s)
		if err != nil {
			return nil, fmt.Errorf("nn: spec %d: %w", i, err)
		}
		m.Add(l)
	}
	return m, nil
}

// Specs returns the layer specs of the model.
func (m *Model) Specs() []LayerSpec {
	specs := make([]LayerSpec, len(m.layers))
	for i, l := range m.layers {
		specs[i] = l.Spec()
	}
	return specs
}

// savedModel is the on-disk JSON layout of a trained model.
type savedModel struct {
	Format     string      `json:"format"`
	InputShape []int       `json:"inputShape"`
	Layers     []LayerSpec `json:"layers"`
	Weights    [][]float64 `json:"weights"`
}

const modelFormat = "specml/model/v1"

// Save writes the built model (architecture and weights) as JSON.
func (m *Model) Save(w io.Writer) error {
	if !m.built {
		return fmt.Errorf("nn: Save before Build")
	}
	sm := savedModel{
		Format:     modelFormat,
		InputShape: m.inputShape,
		Layers:     m.Specs(),
	}
	for _, p := range m.Params() {
		sm.Weights = append(sm.Weights, p.Data)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&sm)
}

// Load reads a model saved with Save and returns it built and ready for
// inference or further training. The architecture is validated against
// the weights the body carries before anything is allocated for it.
func Load(r io.Reader) (*Model, error) {
	var sm savedModel
	if err := json.NewDecoder(r).Decode(&sm); err != nil {
		return nil, fmt.Errorf("nn: decoding model: %w", err)
	}
	if sm.Format != modelFormat {
		return nil, fmt.Errorf("nn: unsupported model format %q", sm.Format)
	}
	return loadWeights(sm.Layers, sm.InputShape, sm.Weights)
}
