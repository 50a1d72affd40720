package main

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/dist"
)

// Sharded-exchange benchmark tier: the ZeRO-style collective pair (bucketed
// ReduceScatterV → AllGatherV) over the same 8 TCP endpoints as the
// wire-collective tier, next to the bucketed AllReduce it decomposes. Both
// move the identical 2·(n−1)/n·bytes per rank, so their bus bandwidths are
// directly comparable — the sharding win is the per-rank optimizer-state
// footprint, reported as bytes dense vs sharded.

type shardedStats struct {
	Ranks int `json:"ranks"`
	Elems int `json:"elems"`
	// Optimizer-state bytes one rank holds for an elems-element flat
	// velocity vector: the dense path replicates all of it, the sharded path
	// holds the largest balanced shard (~1/ranks).
	DenseOptStateBytes   int     `json:"dense_opt_state_bytes_per_rank"`
	ShardedOptStateBytes int     `json:"sharded_opt_state_bytes_per_rank"`
	ShardedOptStatePct   float64 `json:"sharded_opt_state_pct"`
	// NCCL-style bus bandwidth (2·(n−1)/n · bytes / time) of each epilogue
	// over TCP endpoints in one process.
	DenseAllReduceBusGBs float64 `json:"dense_allreduce_busgbs"`
	ExchangeBusGBs       float64 `json:"rs_agv_exchange_busgbs"`
}

// measureSharded times both epilogues over dist TCP endpoints and checks the
// sharded pair reproduces the all-reduce sum exactly (integer payloads).
func measureSharded() (*shardedStats, error) {
	const n, elems = wireCollectiveRanks, wireCollectiveElems
	s := &shardedStats{Ranks: n, Elems: elems}

	counts := collective.EvenCounts(elems, n)
	maxShard := 0
	for _, c := range counts {
		if c > maxShard {
			maxShard = c
		}
	}
	s.DenseOptStateBytes = elems * 8
	s.ShardedOptStateBytes = maxShard * 8
	s.ShardedOptStatePct = 100 * float64(maxShard) / float64(elems)

	busBytes := 2 * float64(n-1) / float64(n) * float64(elems*8)

	mesh, err := dist.NewLocalMesh(n, dist.Options{})
	if err != nil {
		return nil, err
	}
	arDur, arOut, err := collective.MeasureAllReduce(mesh, n, elems, collective.DefaultBucketBytes)
	mesh.Close()
	if err != nil {
		return nil, fmt.Errorf("sharded tier all-reduce: %w", err)
	}
	want := float64(n * (n + 1) / 2) // ranks contribute r+1
	if got := arOut.Data()[0]; got != want {
		return nil, fmt.Errorf("sharded tier all-reduce: reduced value %v, want %v", got, want)
	}
	s.DenseAllReduceBusGBs = busBytes / arDur.Seconds() / 1e9

	mesh, err = dist.NewLocalMesh(n, dist.Options{})
	if err != nil {
		return nil, err
	}
	exDur, exOut, err := collective.MeasureShardedExchange(mesh, n, elems, collective.DefaultBucketBytes)
	mesh.Close()
	if err != nil {
		return nil, fmt.Errorf("sharded tier exchange: %w", err)
	}
	if got := exOut.Data()[0]; got != want {
		return nil, fmt.Errorf("sharded tier exchange: gathered value %v, want %v", got, want)
	}
	s.ExchangeBusGBs = busBytes / exDur.Seconds() / 1e9
	return s, nil
}
