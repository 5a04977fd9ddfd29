package cluster

import (
	"context"
	"encoding/binary"
	"fmt"

	"orchestra/internal/codec"
	"orchestra/internal/keyspace"
	"orchestra/internal/kvstore"
	"orchestra/internal/ring"
)

// RecordPut is one replicated record write: the ring placement key plus the
// local-store key/value to install at every replica.
type RecordPut struct {
	Placement keyspace.Key
	KVKey     []byte
	Value     []byte
}

func encodeBatch(items []RecordPut) []byte {
	size := binary.MaxVarintLen64
	for _, it := range items {
		size += 2*binary.MaxVarintLen32 + len(it.KVKey) + len(it.Value)
	}
	out := binary.AppendUvarint(make([]byte, 0, size), uint64(len(items)))
	for _, it := range items {
		out = codec.AppendBytes(out, it.KVKey)
		out = codec.AppendBytes(out, it.Value)
	}
	return out
}

func decodeBatch(data []byte) ([][2][]byte, error) {
	r := codec.NewReader(data)
	count := r.Count(2) // two length bytes per record
	out := make([][2][]byte, 0, count)
	for i := 0; i < count && r.Err() == nil; i++ {
		out = append(out, [2][]byte{r.Bytes(), r.Bytes()})
	}
	if err := r.Done("cluster: put batch"); err != nil {
		return nil, err
	}
	return out, nil
}

// registerRecordHandlers installs the basic replicated-record RPCs.
func (n *Node) registerRecordHandlers() {
	n.ep.Handle(msgPutBatch, func(from ring.NodeID, payload []byte) ([]byte, error) {
		items, err := decodeBatch(payload)
		if err != nil {
			return nil, err
		}
		kvs := make([]kvstore.KV, len(items))
		for i, it := range items {
			kvs[i] = kvstore.KV{Key: it[0], Val: it[1]}
		}
		// One store commit for the whole batch: under SyncAlways this is
		// what keeps a replicated publish at ~one fsync per destination.
		return nil, n.store.PutBatch(kvs)
	})
	n.ep.Handle(msgGetRecord, func(from ring.NodeID, payload []byte) ([]byte, error) {
		v, ok := n.store.Get(payload)
		if !ok {
			return []byte{0}, nil
		}
		return append([]byte{1}, v...), nil
	})
	n.ep.Handle(msgNewTable, func(from ring.NodeID, payload []byte) ([]byte, error) {
		t, err := ring.UnmarshalTable(payload)
		if err != nil {
			return nil, err
		}
		n.adoptTable(t)
		return nil, nil
	})
}

// PutRecord writes one record to all replicas of its placement key.
func (n *Node) PutRecord(ctx context.Context, placement keyspace.Key, kvKey, value []byte) error {
	return n.PutRecords(ctx, []RecordPut{{Placement: placement, KVKey: kvKey, Value: value}})
}

// PutRecords writes a set of records to all replicas of their placement
// keys in one round: one batch message and one store commit per
// destination node — the destination-batched shipping of §V-A applied to
// the write path — with every destination, this node included, written
// concurrently. Dead replicas are skipped; the write fails only when
// every remote destination refused it.
func (n *Node) PutRecords(ctx context.Context, items []RecordPut) error {
	table := n.Table()
	byDest := make(map[ring.NodeID][]RecordPut)
	for _, it := range items {
		reps := table.Replicas(it.Placement)
		for _, rep := range reps {
			its, ok := byDest[rep]
			if !ok { // a destination's even share of the batch, in one allocation
				its = make([]RecordPut, 0, len(items)*len(reps)/table.Size()+8)
			}
			byDest[rep] = append(its, it)
		}
	}
	results := make(chan error, len(byDest))
	for dest, its := range byDest {
		if dest == n.id {
			continue
		}
		go func(dest ring.NodeID, its []RecordPut) {
			rctx, cancel := context.WithTimeout(ctx, n.cfg.RequestTimeout)
			defer cancel()
			_, err := n.ep.Request(rctx, dest, msgPutBatch, encodeBatch(its))
			results <- err
		}(dest, its)
	}
	remote := len(byDest)
	if locals, ok := byDest[n.id]; ok {
		remote--
		kvs := make([]kvstore.KV, len(locals))
		for i, it := range locals {
			kvs[i] = kvstore.KV{Key: it.KVKey, Val: it.Value}
		}
		// A failing local store is this node's own fault, not a dead
		// replica to route around.
		if err := n.store.PutBatch(kvs); err != nil {
			return err
		}
	}
	var failed int
	var lastErr error
	for i := 0; i < remote; i++ {
		if err := <-results; err != nil {
			failed++
			lastErr = err
		}
	}
	if remote > 0 && failed == remote {
		return fmt.Errorf("%w: put of %d records failed at all %d remote destinations: %v", ErrUnavailable, len(items), remote, lastErr)
	}
	return nil
}

// GetRecord reads a record, trying the owner first and falling back to the
// other replicas (§IV: "proactively try to retrieve the missing state from
// other nearby nodes"). ErrNotFound means every reachable replica lacks it.
func (n *Node) GetRecord(ctx context.Context, placement keyspace.Key, kvKey []byte) ([]byte, error) {
	table := n.Table()
	var lastErr error
	sawReplica := false
	for _, rep := range table.Replicas(placement) {
		if rep == n.id {
			sawReplica = true
			if v, ok := n.store.Get(kvKey); ok {
				return v, nil
			}
			continue
		}
		rctx, cancel := context.WithTimeout(ctx, n.cfg.RequestTimeout)
		resp, err := n.ep.Request(rctx, rep, msgGetRecord, kvKey)
		cancel()
		if err != nil {
			lastErr = err
			continue
		}
		sawReplica = true
		if len(resp) >= 1 && resp[0] == 1 {
			return resp[1:], nil
		}
	}
	if !sawReplica {
		return nil, fmt.Errorf("%w: get %q: %v", ErrUnavailable, kvKey, lastErr)
	}
	return nil, fmt.Errorf("%w: %q", ErrNotFound, kvKey)
}
