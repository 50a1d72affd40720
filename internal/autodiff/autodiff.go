// Package autodiff implements reverse-mode automatic differentiation over the
// IR — the analogue of jax.grad / jax.value_and_grad. Differentiating a graph
// containing pipeline_yield markers produces mirrored backward yields, which
// is exactly the structure JaxPP's stage splitter relies on (§3.2 of the
// paper): backward computations for a stage are delimited by the backward
// copies of the stage's yields and therefore co-locate with their forward
// stage.
package autodiff

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/tensor"
)

// ValueAndGrad transforms g — whose first output must be a scalar loss — into
// a new graph with identical inputs whose outputs are
// [loss, dloss/dwrt[0], dloss/dwrt[1], ...]. Each wrt value must be an input
// of g. Inputs with no path to the loss receive explicit zero gradients.
func ValueAndGrad(g *ir.Graph, wrt []*ir.Value) (*ir.Graph, error) {
	if len(g.Outputs) == 0 {
		return nil, fmt.Errorf("autodiff: graph %q has no outputs", g.Name)
	}
	loss := g.Outputs[0]
	if len(loss.Shape) != 0 {
		return nil, fmt.Errorf("autodiff: first output must be scalar, got shape %v", loss.Shape)
	}
	inputIDs := make(map[int]bool, len(g.Inputs))
	for _, in := range g.Inputs {
		inputIDs[in.ID] = true
	}
	for _, w := range wrt {
		if !inputIDs[w.ID] {
			return nil, fmt.Errorf("autodiff: wrt value %s is not a graph input", w)
		}
	}

	out := g.Clone()
	out.Name = g.Name + ".grad"
	// Map from original value ID to the cloned *ir.Value (IDs are preserved
	// by Clone, but we need the cloned pointers for emitting).
	byID := make(map[int]*ir.Value)
	for _, v := range out.Inputs {
		byID[v.ID] = v
	}
	for _, e := range out.Eqns {
		for _, o := range e.Outputs {
			byID[o.ID] = o
		}
	}

	d := differ{g: out}

	// Seed: d(loss)/d(loss) = 1.
	one := d.emit(ir.OpConst, ir.Attrs{Factor: 1, Shape: []int{}})
	d.addCT(byID[loss.ID], one)

	// Walk the forward equations in reverse, emitting VJPs.
	fwdLen := len(out.Eqns) - 1 // exclude the const we just appended
	for i := fwdLen - 1; i >= 0; i-- {
		e := out.Eqns[i]
		ct := d.ct[e.Outputs[0].ID]
		if ct == nil {
			continue
		}
		if err := d.vjp(e, ct); err != nil {
			return nil, fmt.Errorf("autodiff: eqn %d (%s): %w", i, e.Op, err)
		}
	}

	outputs := []*ir.Value{byID[loss.ID]}
	for _, w := range wrt {
		gv := d.ct[w.ID]
		if gv == nil {
			gv = d.emit(ir.OpZeros, ir.Attrs{Shape: w.Shape})
		}
		outputs = append(outputs, gv)
	}
	out.SetOutputs(outputs...)
	// Prune what no output needs: the cotangents of non-wrt inputs (a
	// batch's dx, one weight transpose and matmul per layer-0 backward) and
	// any forward values only the dropped outputs used. Yields stay: a
	// backward yield marks a stage boundary even when no gradient upstream
	// of it consumes its cotangent (a stage without parameters).
	out.DCEKeeping(func(e *ir.Equation) bool { return e.Op == ir.OpYield })
	if err := out.Verify(); err != nil {
		return nil, fmt.Errorf("autodiff: produced invalid graph: %w", err)
	}
	return out, nil
}

type differ struct {
	g  *ir.Graph
	ct map[int]*ir.Value // value ID -> accumulated cotangent
}

func (d *differ) emit(op ir.Op, attrs ir.Attrs, ins ...*ir.Value) *ir.Value {
	v, err := d.g.Emit(op, attrs, ins...)
	if err != nil {
		panic(fmt.Sprintf("autodiff: internal emit error: %v", err))
	}
	return v
}

// addCT accumulates a cotangent contribution for v, emitting an add when a
// contribution already exists. These merge adds are exactly the "gradient
// merging operations that do not belong to any function" discussed in §3.2.
func (d *differ) addCT(v *ir.Value, contrib *ir.Value) {
	if d.ct == nil {
		d.ct = make(map[int]*ir.Value)
	}
	if prev, ok := d.ct[v.ID]; ok {
		d.ct[v.ID] = d.emit(ir.OpAdd, ir.Attrs{}, prev, contrib)
		return
	}
	d.ct[v.ID] = contrib
}

// reduceTo adapts a cotangent of shape ct.Shape to the operand shape, undoing
// scalar broadcasting performed by add/sub/mul.
func (d *differ) reduceTo(ct *ir.Value, shape []int) *ir.Value {
	if tensor.ShapeEq(ct.Shape, shape) {
		return ct
	}
	if len(shape) == 0 {
		return d.emit(ir.OpSum, ir.Attrs{}, ct)
	}
	panic(fmt.Sprintf("autodiff: cannot reduce cotangent %v to %v", ct.Shape, shape))
}

func (d *differ) vjp(e *ir.Equation, ct *ir.Value) error {
	in := e.Inputs
	switch e.Op {
	case ir.OpMatMul:
		a, b := in[0], in[1]
		bt := d.emit(ir.OpTranspose, ir.Attrs{}, b)
		d.addCT(a, d.emit(ir.OpMatMul, ir.Attrs{}, ct, bt))
		at := d.emit(ir.OpTranspose, ir.Attrs{}, a)
		d.addCT(b, d.emit(ir.OpMatMul, ir.Attrs{}, at, ct))
	case ir.OpAdd:
		d.addCT(in[0], d.reduceTo(ct, in[0].Shape))
		d.addCT(in[1], d.reduceTo(ct, in[1].Shape))
	case ir.OpSub:
		d.addCT(in[0], d.reduceTo(ct, in[0].Shape))
		neg := d.emit(ir.OpScale, ir.Attrs{Factor: -1}, ct)
		d.addCT(in[1], d.reduceTo(neg, in[1].Shape))
	case ir.OpMul:
		ga := d.emit(ir.OpMul, ir.Attrs{}, ct, in[1])
		d.addCT(in[0], d.reduceTo(ga, in[0].Shape))
		gb := d.emit(ir.OpMul, ir.Attrs{}, ct, in[0])
		d.addCT(in[1], d.reduceTo(gb, in[1].Shape))
	case ir.OpScale:
		d.addCT(in[0], d.emit(ir.OpScale, ir.Attrs{Factor: e.Attrs.Factor}, ct))
	case ir.OpReLU:
		mask := d.emit(ir.OpReLUMask, ir.Attrs{}, in[0])
		d.addCT(in[0], d.emit(ir.OpMul, ir.Attrs{}, ct, mask))
	case ir.OpTanh:
		d.addCT(in[0], d.emit(ir.OpTanhGrad, ir.Attrs{}, in[0], ct))
	case ir.OpTranspose:
		d.addCT(in[0], d.emit(ir.OpTranspose, ir.Attrs{}, ct))
	case ir.OpReshape:
		d.addCT(in[0], d.emit(ir.OpReshape, ir.Attrs{Shape: in[0].Shape}, ct))
	case ir.OpSum:
		d.addCT(in[0], d.emit(ir.OpBroadcastS, ir.Attrs{Shape: in[0].Shape}, ct))
	case ir.OpSumAxis0:
		d.addCT(in[0], d.emit(ir.OpBroadcast0, ir.Attrs{N: in[0].Shape[0]}, ct))
	case ir.OpBroadcast0:
		d.addCT(in[0], d.emit(ir.OpSumAxis0, ir.Attrs{}, ct))
	case ir.OpBroadcastS:
		d.addCT(in[0], d.emit(ir.OpSum, ir.Attrs{}, ct))
	case ir.OpXent:
		// d/dlogits mean-xent = (softmax - targets)/rows, scaled by the
		// (scalar) upstream cotangent. Targets are non-differentiable.
		gl := d.emit(ir.OpXentGrad, ir.Attrs{}, in[0], in[1])
		d.addCT(in[0], d.emit(ir.OpMul, ir.Attrs{}, gl, ct))
	case ir.OpYield:
		// The backward of a stage-boundary marker is a mirrored marker: it
		// delimits the backward stage corresponding to the same boundary.
		bw := d.emit(ir.OpYield, ir.Attrs{Stage: e.Attrs.Stage, Bwd: true}, ct)
		d.addCT(in[0], bw)
	case ir.OpReLUMask, ir.OpZeros, ir.OpConst:
		// Zero derivative (mask is treated as locally constant) or no inputs.
	case ir.OpSoftmax, ir.OpXentGrad, ir.OpTanhGrad:
		return fmt.Errorf("op is not differentiable (use the fused loss primitives)")
	default:
		return fmt.Errorf("no VJP rule registered")
	}
	return nil
}
