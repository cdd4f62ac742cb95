package nn

import (
	"fmt"

	"specml/internal/rng"
)

// Decoded architectures (saved models, quantized models, checkpoints) cross
// a trust boundary: a few hundred bytes of JSON can describe a network
// whose Build would allocate gigabytes, or whose negative dimensions panic
// in make. planSpecs walks the specs the way Build does, without
// allocating, so the loaders can refuse such bodies before Build runs.

// maxLoadActivations bounds the per-sample activation elements of a
// decoded architecture, summed over the input and every layer output
// (Build allocates a few buffers of each). The largest built-in topology,
// the NMR LSTM monitor on 5x1700-point windows, needs under 20 000.
const maxLoadActivations = 1 << 22

// planSpecs returns the trainable parameter count Build would allocate for
// specs on inputShape. It rejects non-positive dimensions, sizes, kernels,
// strides and unit counts, shapes Build would reject, and architectures
// over the maxLoadActivations budget.
func planSpecs(specs []LayerSpec, inputShape []int) (int, error) {
	budget := maxLoadActivations
	if err := spend(&budget, inputShape); err != nil {
		return 0, fmt.Errorf("nn: input shape: %w", err)
	}
	shape, params := inputShape, 0
	for i, s := range specs {
		out, p, err := planLayer(s, shape, &budget)
		if err != nil {
			return 0, fmt.Errorf("nn: spec %d (%s): %w", i, s.Type, err)
		}
		shape, params = out, params+p
	}
	return params, nil
}

// spend charges shape's element count to the activation budget, rejecting
// an empty or non-positive shape. Checking each factor against the budget
// first keeps the product from overflowing.
func spend(budget *int, shape []int) error {
	if len(shape) == 0 {
		return fmt.Errorf("empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return fmt.Errorf("non-positive dimension in %v", shape)
		}
		if d > *budget/n {
			return fmt.Errorf("shape %v exceeds the %d-element activation budget", shape, maxLoadActivations)
		}
		n *= d
	}
	*budget -= n
	return nil
}

// planLayer mirrors one layer's Build: its output shape (charged to the
// budget before any size derived from it is multiplied out) and its
// trainable parameter count.
func planLayer(s LayerSpec, in []int, budget *int) ([]int, int, error) {
	var out []int
	switch s.Type {
	case "dense":
		if s.Out <= 0 {
			return nil, 0, fmt.Errorf("non-positive out %d", s.Out)
		}
		out = []int{s.Out}
		if err := spend(budget, out); err != nil {
			return nil, 0, err
		}
		return out, s.Out*shapeLen(in) + s.Out, nil
	case "conv1d", "locallyconnected1d", "maxpool1d", "avgpool1d":
		inLen, inCh, err := seq2D(in)
		if err != nil {
			return nil, 0, err
		}
		stride := s.Stride
		pool := s.Type == "maxpool1d" || s.Type == "avgpool1d"
		if pool && stride == 0 {
			stride = s.Kernel // NewMaxPool1D / NewAvgPool1D default
		}
		outLen, err := convOutLen(inLen, s.Kernel, stride)
		if err != nil {
			return nil, 0, err
		}
		if pool {
			out = []int{outLen, inCh}
			break
		}
		if s.Filters <= 0 {
			return nil, 0, fmt.Errorf("non-positive filters %d", s.Filters)
		}
		out = []int{outLen, s.Filters}
		if err := spend(budget, out); err != nil {
			return nil, 0, err
		}
		params := s.Filters*s.Kernel*inCh + s.Filters
		if s.Type == "locallyconnected1d" {
			params *= outLen
		}
		return out, params, nil
	case "lstm":
		if s.Units <= 0 {
			return nil, 0, fmt.Errorf("non-positive units %d", s.Units)
		}
		if len(in) != 2 {
			return nil, 0, fmt.Errorf("lstm needs a [timesteps, features] input, got %v", in)
		}
		out = []int{s.Units}
		if err := spend(budget, out); err != nil {
			return nil, 0, err
		}
		// Per-step hidden, cell and gate state: (steps+1) x 6 units.
		if err := spend(budget, []int{in[0] + 1, 6 * s.Units}); err != nil {
			return nil, 0, fmt.Errorf("recurrent state: %w", err)
		}
		return out, 4 * s.Units * (in[1] + s.Units + 1), nil
	case "activation", "softmax", "dropout":
		out = in
	case "flatten":
		out = []int{shapeLen(in)}
	case "reshape":
		if err := spend(budget, s.TargetShape); err != nil {
			return nil, 0, fmt.Errorf("target shape: %w", err)
		}
		if shapeLen(s.TargetShape) != shapeLen(in) {
			return nil, 0, fmt.Errorf("reshape %v incompatible with input %v", s.TargetShape, in)
		}
		return s.TargetShape, 0, nil
	case "timedistributed":
		if s.Inner == nil {
			return nil, 0, fmt.Errorf("timedistributed spec without inner layer")
		}
		if len(in) != 2 {
			return nil, 0, fmt.Errorf("timedistributed needs [timesteps, features], got %v", in)
		}
		innerIn := s.TargetShape
		if len(innerIn) == 0 {
			innerIn = []int{in[1]}
		}
		if err := spend(budget, innerIn); err != nil {
			return nil, 0, fmt.Errorf("inner shape: %w", err)
		}
		if shapeLen(innerIn) != in[1] {
			return nil, 0, fmt.Errorf("inner shape %v does not hold %d features", innerIn, in[1])
		}
		innerOut, p, err := planLayer(*s.Inner, innerIn, budget)
		if err != nil {
			return nil, 0, fmt.Errorf("inner: %w", err)
		}
		out = []int{in[0], shapeLen(innerOut)}
		if err := spend(budget, out); err != nil {
			return nil, 0, err
		}
		return out, p, nil
	default:
		return nil, 0, fmt.Errorf("unknown layer type %q", s.Type)
	}
	// Parameter-free layers.
	if err := spend(budget, out); err != nil {
		return nil, 0, err
	}
	return out, 0, nil
}

// buildChecked builds a decoded architecture after planSpecs has accepted
// it and confirmed that the body carries exactly the parameter count the
// shapes imply, so Build never allocates more than the body pays for.
func buildChecked(specs []LayerSpec, inputShape []int, carried int) (*Model, error) {
	params, err := planSpecs(specs, inputShape)
	if err != nil {
		return nil, err
	}
	if params != carried {
		return nil, fmt.Errorf("nn: architecture needs %d parameters, body carries %d", params, carried)
	}
	m, err := FromSpecs(specs)
	if err != nil {
		return nil, err
	}
	if err := m.Build(rng.New(0), inputShape...); err != nil {
		return nil, err
	}
	return m, nil
}
