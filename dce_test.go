package jaxpp

import (
	"testing"

	"repro/internal/tensor"
)

// tiedSpec is a 3-stage model whose first-stage weight is reused, transposed,
// by the last stage (a tied embedding).
func tiedSpec(mbRows, width int, sched *Schedule, commute bool) CompileSpec {
	return CompileSpec{
		Loss: func(b *Builder, params, mb []*Value) *Value {
			w, v := params[0], params[1]
			h := b.PipelineYield(b.ReLU(b.MatMul(mb[0], w)))
			h = b.PipelineYield(b.ReLU(b.MatMul(h, v)))
			return b.CrossEntropy(b.MatMul(h, b.Transpose(w)), mb[1])
		},
		ParamShapes:             [][]int{{width, width}, {width, width}},
		BatchShapes:             [][]int{{mbRows, width}, {mbRows, width}},
		Schedule:                sched,
		CommuteGradAccumulation: commute,
	}
}

// TestCompiledSegmentsHaveNoDeadEquations pins that every segment a
// TrainStep runs is already dead-code free: nothing computes a value no
// output needs — in particular not the cotangent of the batch input, which
// cost stage 0's backward a weight transpose and a matmul per microbatch.
func TestCompiledSegmentsHaveNoDeadEquations(t *testing.T) {
	const mbRows, width, numMB = 4, 8, 4
	interleaved, err := Interleaved1F1B(2, numMB, 2)
	if err != nil {
		t.Fatal(err)
	}
	pp1 := mlpSpec(1, mbRows, width, OneFOneB(1, numMB))
	pp1.DataParallel = 2
	dpxpp := mlpSpec(2, mbRows, width, OneFOneB(2, numMB))
	dpxpp.DataParallel = 2
	cases := []struct {
		name   string
		actors int
		spec   CompileSpec
	}{
		{"gpipe", 3, mlpSpec(3, mbRows, width, GPipe(3, numMB))},
		{"1f1b", 3, mlpSpec(3, mbRows, width, OneFOneB(3, numMB))},
		{"interleaved", 2, mlpSpec(4, mbRows, width, interleaved)},
		{"dpxpp", 4, dpxpp},
		{"pp1-dp2", 2, pp1},
		{"tied", 3, tiedSpec(mbRows, width, OneFOneB(3, numMB), false)},
		{"tied-commuted", 3, tiedSpec(mbRows, width, OneFOneB(3, numMB), true)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			step, err := NewRemoteMesh(c.actors).Compile(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			defer step.Close()
			for _, seg := range step.Program().Split.Segments {
				if n := seg.Graph.Clone().DCE(); n != 0 {
					t.Errorf("segment %d (stage %d, %v) holds %d dead equations", seg.Index, seg.Stage, seg.Kind, n)
				}
			}
		})
	}
}

// freeStage0Spec is a model whose first stage has no parameter, so no
// gradient consumes the cotangent crossing its backward boundary. With
// yield=false it is the same model as one stage.
func freeStage0Spec(mbRows, width int, sched *Schedule, yield bool) CompileSpec {
	return CompileSpec{
		Loss: func(b *Builder, params, mb []*Value) *Value {
			h := b.ReLU(mb[0])
			if yield {
				h = b.PipelineYield(h)
			}
			return b.CrossEntropy(b.MatMul(h, params[0]), mb[1])
		},
		ParamShapes: [][]int{{width, width}},
		BatchShapes: [][]int{{mbRows, width}, {mbRows, width}},
		Schedule:    sched,
	}
}

// TestParameterFreeStageCompiles pins that pruning dead cotangents keeps
// every backward yield: a stage without parameters still gets its backward
// boundary, so the graph splits, and the step matches the one-stage model.
func TestParameterFreeStageCompiles(t *testing.T) {
	const mbRows, width, numMB = 4, 8, 4
	params, x, y := mlpData(1, mbRows, numMB, width, 3)
	run := func(actors int, spec CompileSpec) (losses, grads []*Tensor) {
		step, err := NewRemoteMesh(actors).Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		defer step.Close()
		losses, grads, err = step.Step(params, []*Tensor{x, y})
		if err != nil {
			t.Fatal(err)
		}
		return losses, grads
	}
	losses, grads := run(2, freeStage0Spec(mbRows, width, OneFOneB(2, numMB), true))
	refLosses, refGrads := run(1, freeStage0Spec(mbRows, width, OneFOneB(1, numMB), false))
	for i := range refLosses {
		if !tensor.AllClose(losses[i], refLosses[i], 1e-12, 1e-12) {
			t.Fatalf("microbatch %d loss differs from the one-stage model", i)
		}
	}
	if !tensor.AllClose(grads[0], refGrads[0], 1e-12, 1e-12) {
		t.Fatal("gradient differs from the one-stage model")
	}
}
