package collective

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// Profiling scopes for the ring phases: send is chunk staging + transport
// handoff, wait is the blocking receive (ring skew + wire latency), reduce
// and copy are the arithmetic/memcpy consuming a received chunk. Spans carry
// the rank as their trace lane.
var (
	scCollSend   = obs.Scope("coll/send")
	scCollWait   = obs.Scope("coll/wait")
	scCollReduce = obs.Scope("coll/reduce")
	scCollCopy   = obs.Scope("coll/copy")
)

// Chunk transfer discipline: every chunked collective ships pooled scratch
// tensors (tensor.GetScratch) and reduces or copies incoming chunks directly
// into the rank-private accumulator. Ownership of a chunk transfers with the
// message — the sender never touches it again and the receiver recycles it
// after consuming — so steady-state collectives perform zero heap
// allocations and exactly one copy per hop (the profile Calibrate measures).

// chunkRange returns the [lo, hi) element range of chunk i when n elements
// are balanced over parts chunks: the first n%parts chunks get one extra
// element, so any length (including zero and odd sizes) and any ring size
// (including non-powers-of-two) partition cleanly.
func chunkRange(n, parts, i int) (lo, hi int) {
	base := n / parts
	rem := n % parts
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// sendChunk ships data[lo:hi] as a flat pooled tensor. Over a
// reference-passing transport the receiver owns (and recycles) the chunk;
// over a serializing transport (dist) the sender keeps it and recycles it
// here — otherwise every ring hop would orphan a pooled chunk to GC and the
// scratch pool could never warm on the distributed gradient-sync path.
func (c *Communicator) sendChunk(to, tag int, data []float64, lo, hi int) {
	h := obs.TrackTid(scCollSend, c.self())
	chunk := tensor.GetScratch(hi - lo)
	chunk.CopyFrom(data[lo:hi])
	c.g.tr.Send(c.self(), to, tag, chunk)
	if c.g.senderOwns {
		tensor.Recycle(chunk)
	}
	h.StopBytes(int64(hi-lo) * 8)
}

// combineChunk receives a chunk, reduces it into dst with op, and recycles
// the chunk's storage.
func (c *Communicator) combineChunk(from, tag int, dst []float64, op Op) error {
	hw := obs.TrackTid(scCollWait, c.self())
	t, err := c.g.tr.Recv(c.self(), from, tag)
	hw.Stop()
	if err != nil {
		return err
	}
	if t.Size() != len(dst) {
		return fmt.Errorf("collective: rank %d received chunk of %d elements, expected %d", c.rank, t.Size(), len(dst))
	}
	hr := obs.TrackTid(scCollReduce, c.self())
	op.combine(dst, t.Data())
	hr.StopBytes(int64(len(dst)) * 8)
	tensor.Recycle(t)
	return nil
}

// copyChunk receives a chunk, copies it over dst, and recycles its storage.
func (c *Communicator) copyChunk(from, tag int, dst []float64) error {
	hw := obs.TrackTid(scCollWait, c.self())
	t, err := c.g.tr.Recv(c.self(), from, tag)
	hw.Stop()
	if err != nil {
		return err
	}
	if t.Size() != len(dst) {
		return fmt.Errorf("collective: rank %d received chunk of %d elements, expected %d", c.rank, t.Size(), len(dst))
	}
	hc := obs.TrackTid(scCollCopy, c.self())
	copy(dst, t.Data())
	hc.StopBytes(int64(len(dst)) * 8)
	tensor.Recycle(t)
	return nil
}

// allReduceData ring-all-reduces data in place across the group: a
// reduce-scatter pass (n-1 steps) leaves each rank with one fully reduced
// chunk, and an all-gather pass (n-1 steps) circulates the reduced chunks —
// the bandwidth-optimal 2(n-1)/n·bytes schedule the simulator's
// perf.RingAllReduceTime models. data must be rank-private storage.
func (c *Communicator) allReduceData(base int, data []float64, op Op) error {
	n := c.Size()
	L := len(data)

	// Reduce-scatter: at step s, send the chunk you most recently reduced
	// (rank-s) and fold the incoming chunk (rank-s-1) into the accumulator.
	for s := 0; s < n-1; s++ {
		sendIdx := ((c.rank-s)%n + n) % n
		recvIdx := ((c.rank-s-1)%n + n) % n
		slo, shi := chunkRange(L, n, sendIdx)
		rlo, rhi := chunkRange(L, n, recvIdx)
		c.sendChunk(c.next(), base+s, data, slo, shi)
		if err := c.combineChunk(c.prev(), base+s, data[rlo:rhi], op); err != nil {
			return err
		}
	}

	// All-gather: circulate the fully reduced chunks.
	for s := 0; s < n-1; s++ {
		sendIdx := ((c.rank+1-s)%n + n) % n
		recvIdx := ((c.rank-s)%n + n) % n
		slo, shi := chunkRange(L, n, sendIdx)
		rlo, rhi := chunkRange(L, n, recvIdx)
		c.sendChunk(c.next(), base+n-1+s, data, slo, shi)
		if err := c.copyChunk(c.prev(), base+n-1+s, data[rlo:rhi]); err != nil {
			return err
		}
	}
	return nil
}

// AllReduce performs a ring all-reduce of t with the given operator and
// returns the result as a fresh tensor (same shape on every rank).
func (c *Communicator) AllReduce(t *tensor.Tensor, op Op) (*tensor.Tensor, error) {
	out := t.Clone()
	if err := c.AllReduceInto(out, out, op); err != nil {
		return nil, err
	}
	return out, nil
}

// AllReduceInto reduces src across the group into dst, which must have the
// same shape and be rank-private mutable storage (dst == src reduces in
// place). At steady state the operation performs no heap allocations: chunks
// come from the scratch pool and return to it on the receiving rank.
func (c *Communicator) AllReduceInto(dst, src *tensor.Tensor, op Op) error {
	if !tensor.SameShape(dst, src) {
		return fmt.Errorf("collective: AllReduceInto shape mismatch %v vs %v", dst.Shape(), src.Shape())
	}
	if dst.Borrowed() {
		return fmt.Errorf("collective: AllReduceInto destination is a borrowed view")
	}
	base := c.opWindow() // consumed even on the fast paths to keep ranks in lockstep
	if dst != src {
		dst.CopyFrom(src.Data())
	}
	if c.Size() == 1 || dst.Size() == 0 {
		return nil
	}
	return c.allReduceData(base, dst.Data(), op)
}

// ReduceScatter reduces t across the group and returns this rank's chunk of
// the result as a flat tensor (chunk boundaries follow the balanced
// partition chunkRange uses everywhere, so AllGather(ReduceScatter(t))
// reassembles the full AllReduce result).
func (c *Communicator) ReduceScatter(t *tensor.Tensor, op Op) (*tensor.Tensor, error) {
	n := c.Size()
	base := c.opWindow()
	L := t.Size()
	if n == 1 {
		return tensor.FromSlice(t.Data(), L)
	}
	w := tensor.GetScratch(L)
	w.CopyFrom(t.Data())
	data := w.Data()
	// Shifted ring indices relative to AllReduce so that after n-1 steps
	// rank r owns fully reduced chunk r (the NCCL ReduceScatter layout).
	for s := 0; s < n-1; s++ {
		sendIdx := ((c.rank-s-1)%n + 2*n) % n
		recvIdx := ((c.rank-s-2)%n + 2*n) % n
		slo, shi := chunkRange(L, n, sendIdx)
		rlo, rhi := chunkRange(L, n, recvIdx)
		c.sendChunk(c.next(), base+s, data, slo, shi)
		if err := c.combineChunk(c.prev(), base+s, data[rlo:rhi], op); err != nil {
			return nil, err
		}
	}
	lo, hi := chunkRange(L, n, c.rank)
	out, err := tensor.FromSlice(data[lo:hi], hi-lo)
	tensor.Recycle(w)
	return out, err
}

// AllGather concatenates every rank's shard along axis 0 in rank order.
// Shards may have different leading dimensions (sizes travel with the
// payloads around the ring) but must share trailing dimensions. Shard
// tensors are forwarded zero-copy: each hop relays the received tensor
// object itself, so no rank may mutate its shard until the gather returns on
// every rank.
func (c *Communicator) AllGather(shard *tensor.Tensor) (*tensor.Tensor, error) {
	n := c.Size()
	base := c.opWindow()
	if n == 1 {
		return shard.Clone(), nil
	}
	if shard.Rank() == 0 {
		return nil, fmt.Errorf("collective: AllGather needs rank >= 1 shards (got a scalar)")
	}
	parts := make([]*tensor.Tensor, n)
	parts[c.rank] = shard
	// Ring circulation: at step s forward the shard originally owned by
	// rank-s, receive the one owned by rank-s-1.
	cur := shard
	for s := 0; s < n-1; s++ {
		hs := obs.TrackTid(scCollSend, c.self())
		c.g.tr.Send(c.self(), c.next(), base+s, cur)
		hs.StopBytes(int64(cur.Size()) * 8)
		hw := obs.TrackTid(scCollWait, c.self())
		in, err := c.g.tr.Recv(c.self(), c.prev(), base+s)
		hw.Stop()
		if err != nil {
			return nil, err
		}
		owner := ((c.rank-s-1)%n + n) % n
		parts[owner] = in
		cur = in
	}
	out := tensor.Concat0(parts)
	if c.g.senderOwns {
		// Serializing transport: received parts are rank-private pooled
		// decodes, not shared relay objects — return them after the concat
		// copies them out. (Over a reference-passing transport the same
		// objects live on other ranks; recycling would corrupt them.)
		for i, p := range parts {
			if i != c.rank {
				tensor.Recycle(p)
			}
		}
	}
	return out, nil
}

// AllGatherInto gathers equal-shape shards from every rank into dst along
// axis 0 in rank order: dst row block r holds rank r's shard. dst must have
// leading dimension Size()×shard.Dim(0), identical trailing dimensions, and
// be rank-private mutable storage. Unlike AllGather, shards are never relayed
// as caller tensors: each rank copies its shard into a pooled chunk before
// the first hop, chunks move around the ring with ownership (the final
// receiver recycles them), and the caller's shard may be reused the moment
// the call returns. Zero heap allocations at steady state.
func (c *Communicator) AllGatherInto(dst, shard *tensor.Tensor) error {
	n := c.Size()
	base := c.opWindow() // consumed even on fast paths to keep ranks in lockstep
	if shard.Rank() == 0 || dst.Rank() != shard.Rank() {
		return fmt.Errorf("collective: AllGatherInto wants rank >= 1 shards and a matching destination, got shard %v dst %v", shard.Shape(), dst.Shape())
	}
	if dst.Borrowed() {
		return fmt.Errorf("collective: AllGatherInto destination is a borrowed view")
	}
	if dst.Dim(0) != n*shard.Dim(0) {
		return fmt.Errorf("collective: AllGatherInto destination leading dim %d, want %d×%d", dst.Dim(0), n, shard.Dim(0))
	}
	for i := 1; i < shard.Rank(); i++ {
		if dst.Dim(i) != shard.Dim(i) {
			return fmt.Errorf("collective: AllGatherInto trailing dims differ: shard %v dst %v", shard.Shape(), dst.Shape())
		}
	}
	stride := shard.Size()
	data := dst.Data()
	copy(data[c.rank*stride:(c.rank+1)*stride], shard.Data())
	if n == 1 || stride == 0 {
		return nil
	}
	// Seed the ring with a pooled copy of the local shard, then circulate:
	// at step s forward the chunk originally owned by rank-s and keep the
	// incoming chunk (owned by rank-s-1) for the next hop.
	cur := tensor.GetScratch(stride)
	cur.CopyFrom(shard.Data())
	for s := 0; s < n-1; s++ {
		hs := obs.TrackTid(scCollSend, c.self())
		c.g.tr.Send(c.self(), c.next(), base+s, cur)
		if c.g.senderOwns {
			tensor.Recycle(cur) // serialized; the relayed chunk stays ours
		}
		hs.StopBytes(int64(stride) * 8)
		hw := obs.TrackTid(scCollWait, c.self())
		in, err := c.g.tr.Recv(c.self(), c.prev(), base+s)
		hw.Stop()
		if err != nil {
			return err
		}
		if in.Size() != stride {
			return fmt.Errorf("collective: rank %d received chunk of %d elements, expected %d", c.rank, in.Size(), stride)
		}
		owner := ((c.rank-s-1)%n + n) % n
		hc := obs.TrackTid(scCollCopy, c.self())
		copy(data[owner*stride:(owner+1)*stride], in.Data())
		hc.StopBytes(int64(stride) * 8)
		cur = in
	}
	tensor.Recycle(cur) // final hop: this rank is the chunk's last reader
	return nil
}

// BroadcastInto distributes root's tensor in place: on the root, t is the
// source; on every other rank, t is rank-private mutable storage of the same
// shape that receives the payload. The transfer is the same chunked pipelined
// ring as Broadcast, but with the destination preallocated there is no shape
// prologue and no allocation: intermediate ranks copy each incoming pooled
// chunk into t and forward the chunk object itself, and the last rank in the
// chain recycles it.
func (c *Communicator) BroadcastInto(t *tensor.Tensor, root int) error {
	n := c.Size()
	base := c.opWindow() // consumed even on fast paths to keep ranks in lockstep
	if root < 0 || root >= n {
		return fmt.Errorf("collective: broadcast root %d out of range for group of %d", root, n)
	}
	if t == nil {
		return fmt.Errorf("collective: BroadcastInto needs a destination tensor on every rank")
	}
	if n == 1 {
		return nil
	}
	L := t.Size()
	data := t.Data()
	dist := ((c.rank-root)%n + n) % n
	if dist == 0 {
		for k := 0; k < n; k++ {
			lo, hi := chunkRange(L, n, k)
			c.sendChunk(c.next(), base+k, data, lo, hi)
		}
		return nil
	}
	if t.Borrowed() {
		return fmt.Errorf("collective: BroadcastInto destination is a borrowed view")
	}
	last := dist == n-1
	for k := 0; k < n; k++ {
		lo, hi := chunkRange(L, n, k)
		hw := obs.TrackTid(scCollWait, c.self())
		in, err := c.g.tr.Recv(c.self(), c.prev(), base+k)
		hw.Stop()
		if err != nil {
			return err
		}
		if in.Size() != hi-lo {
			return fmt.Errorf("collective: rank %d received chunk of %d elements, expected %d", c.rank, in.Size(), hi-lo)
		}
		hc := obs.TrackTid(scCollCopy, c.self())
		copy(data[lo:hi], in.Data())
		hc.StopBytes(int64(hi-lo) * 8)
		if !last {
			// Forward the chunk object itself; over a reference-passing
			// transport ownership moves on, over a serializing one we keep
			// (and recycle) it.
			c.g.tr.Send(c.self(), c.next(), base+k, in)
			if c.g.senderOwns {
				tensor.Recycle(in)
			}
		} else {
			tensor.Recycle(in)
		}
	}
	return nil
}

// Broadcast distributes root's tensor to every rank (ranks other than root
// pass t == nil or any placeholder; the root's value wins). The transfer is
// a chunked pipelined ring: the root streams n chunks to its successor and
// each intermediate rank forwards chunks as they arrive, so total time
// approaches one tensor transfer instead of n-1 sequential hops.
func (c *Communicator) Broadcast(t *tensor.Tensor, root int) (*tensor.Tensor, error) {
	n := c.Size()
	base := c.opWindow()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("collective: broadcast root %d out of range for group of %d", root, n)
	}
	if n == 1 {
		return t.Clone(), nil
	}
	dist := ((c.rank-root)%n + n) % n
	if dist == 0 {
		if t == nil {
			return nil, fmt.Errorf("collective: broadcast root has nil tensor")
		}
		data := t.Data()
		L := len(data)
		// Shape prologue so receivers can rebuild the tensor; then chunks.
		shape := t.Shape()
		st := tensor.GetScratch(len(shape))
		for i, d := range shape {
			st.Data()[i] = float64(d)
		}
		c.g.tr.Send(c.self(), c.next(), base+n, st)
		if c.g.senderOwns {
			tensor.Recycle(st)
		}
		for k := 0; k < n; k++ {
			lo, hi := chunkRange(L, n, k)
			c.sendChunk(c.next(), base+k, data, lo, hi)
		}
		return t.Clone(), nil
	}
	st, err := c.g.tr.Recv(c.self(), c.prev(), base+n)
	if err != nil {
		return nil, err
	}
	shape := make([]int, st.Size())
	for i, v := range st.Data() {
		shape[i] = int(v)
	}
	last := dist == n-1
	if !last {
		// Forward the shape prologue tensor itself (see BroadcastInto's
		// relay ownership note).
		c.g.tr.Send(c.self(), c.next(), base+n, st)
		if c.g.senderOwns {
			tensor.Recycle(st)
		}
	} else {
		tensor.Recycle(st)
	}
	L := tensor.NumElements(shape)
	data := make([]float64, L)
	for k := 0; k < n; k++ {
		lo, hi := chunkRange(L, n, k)
		if err := c.copyChunk(c.prev(), base+k, data[lo:hi]); err != nil {
			return nil, err
		}
		if !last {
			c.sendChunk(c.next(), base+k, data, lo, hi)
		}
	}
	return tensor.View(data, shape...), nil
}

// barrierToken is the shared payload of every barrier message: barriers
// carry no data, so all ranks send the same immutable tensor.
var barrierToken = tensor.Scalar(1)

// Barrier blocks until every rank of the group has entered it. It is a
// dissemination barrier: ceil(log2 n) rounds of token passes at
// exponentially growing distance, so each rank transitively hears from all.
func (c *Communicator) Barrier() error {
	n := c.Size()
	base := c.opWindow()
	if n == 1 {
		return nil
	}
	round := 0
	for d := 1; d < n; d *= 2 {
		to := c.g.ranks[(c.rank+d)%n]
		from := c.g.ranks[((c.rank-d)%n+n)%n]
		c.g.tr.Send(c.self(), to, base+round, barrierToken)
		hw := obs.TrackTid(scCollWait, c.self())
		tok, err := c.g.tr.Recv(c.self(), from, base+round)
		hw.Stop()
		if err != nil {
			return err
		}
		if c.g.senderOwns {
			// Serializing transport: the received token is a pooled decode,
			// not the shared barrierToken object.
			tensor.Recycle(tok)
		}
		round++
	}
	return nil
}
