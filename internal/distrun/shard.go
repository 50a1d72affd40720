package distrun

import (
	"fmt"
	"sort"

	jaxpp "repro"
	"repro/internal/collective"
)

// shardPlan is the owner-major flat layout of the parameter vector (and of
// the gradient and velocity vectors that mirror it): tensors ordered by the
// pipeline actor that holds them, then by index, concatenated into one flat
// vector. Each actor's tensors form one contiguous segment. The layout
// depends only on the compiled program — not on the world size — which is
// what makes it the canonical representation checkpoints restore through
// across world-size and layout changes.
type shardPlan struct {
	// owners[gi] is the pipeline actor that holds parameter gi.
	owners []int
	total  int
	// order[k] is the parameter index occupying flat range [off[k], off[k+1]).
	order []int
	off   []int
	// gradOff[gi] is the flat offset of parameter gi (inverse of order/off).
	gradOff []int
	// seg[a]..seg[a+1] is the flat segment of pipeline actor a's tensors.
	seg []int
}

// newShardPlan derives the plan from the owner table (owners[gi] is the
// pipeline actor of parameter gi, in [0, actors)) and the tensor sizes.
func newShardPlan(owners, sizes []int, actors int) (*shardPlan, error) {
	if len(owners) != len(sizes) {
		return nil, fmt.Errorf("distrun: shard plan wants %d owners for %d tensors", len(owners), len(sizes))
	}
	p := &shardPlan{
		owners:  owners,
		order:   make([]int, len(owners)),
		off:     make([]int, len(owners)+1),
		gradOff: make([]int, len(owners)),
		seg:     make([]int, actors+1),
	}
	for i, a := range owners {
		if a < 0 || a >= actors {
			return nil, fmt.Errorf("distrun: shard plan owner %d of tensor %d outside %d actors", a, i, actors)
		}
		p.order[i] = i
		p.seg[a+1] += sizes[i]
	}
	for a := 0; a < actors; a++ {
		p.seg[a+1] += p.seg[a]
	}
	sort.SliceStable(p.order, func(a, b int) bool {
		ga, gb := p.order[a], p.order[b]
		if owners[ga] != owners[gb] {
			return owners[ga] < owners[gb]
		}
		return ga < gb
	})
	for k, gi := range p.order {
		p.off[k+1] = p.off[k] + sizes[gi]
		p.gradOff[gi] = p.off[k]
	}
	p.total = p.off[len(p.order)]
	return p, nil
}

// planForStep builds the plan for a compiled step: owners come from the
// shared program metadata (TrainStep.ParamOwners, which also enforces that
// every gradient is produced where its parameter lives), sizes from the
// initial parameters.
func planForStep(ts *jaxpp.TrainStep, params []*jaxpp.Tensor) (*shardPlan, error) {
	owners, err := ts.ParamOwners()
	if err != nil {
		return nil, err
	}
	sizes := make([]int, len(params))
	for i, p := range params {
		sizes[i] = p.Size()
	}
	return newShardPlan(owners, sizes, ts.NumActors()/ts.NumReplicas())
}

// zeroCounts is the ZeRO-1 partition of the flat vector in owner-major
// order: each actor's segment split evenly over the stage's replicas, so
// slice a·replicas+r is held by rank r·actors+a.
func (p *shardPlan) zeroCounts(replicas int) []int {
	var out []int
	for a := 0; a+1 < len(p.seg); a++ {
		out = append(out, collective.EvenCounts(p.seg[a+1]-p.seg[a], replicas)...)
	}
	return out
}

// scatter unpacks the owner-major flat vector into the tensor list.
func (p *shardPlan) scatter(ts []*jaxpp.Tensor, flat []float64) {
	for k, gi := range p.order {
		ts[gi].CopyFrom(flat[p.off[k]:p.off[k+1]])
	}
}
