package kvstore

import (
	"errors"
	"sync"
)

// Replication shipping support: every mutation (put, delete, epoch
// raise) gets a global, monotonically increasing sequence number — the
// count of WAL records ever appended since the store was created, which
// survives restarts via the log/snapshot headers (wal.Header.BaseSeq,
// Snapshot.Seq). A bounded in-memory ring retains the most recent
// records so a lagging replica can pull exactly the delta it missed
// (ShipLog) and replay it through the normal commit path (ApplyBatch)
// instead of receiving a full copy. When the requested position
// has been evicted, the caller falls back to a state transfer.

// ReplRecord is one retained mutation: the WAL op byte plus its encoded
// payload, at a global sequence position.
type ReplRecord struct {
	Seq     uint64
	Op      byte
	Payload []byte
}

// ReplOp is a decoded replicated mutation. Exactly one of the three
// shapes is populated: a put (Key, Val), a delete (Del, Key), or an
// epoch raise (Epoch > 0).
type ReplOp struct {
	Del   bool
	Key   []byte
	Val   []byte
	Epoch uint64
}

// ErrUnknownOp reports a shipped record with an op byte this version
// does not understand (version skew between peers).
var ErrUnknownOp = errors.New("kvstore: unknown replicated record op")

// Decode interprets the record's payload. Slices alias the payload.
func (r ReplRecord) Decode() (ReplOp, error) {
	switch r.Op {
	case opPut:
		key, val, ok := decodePut(r.Payload)
		if !ok {
			return ReplOp{}, errors.New("kvstore: malformed shipped put")
		}
		return ReplOp{Key: key, Val: val}, nil
	case opDelete:
		return ReplOp{Del: true, Key: r.Payload}, nil
	case opEpoch:
		e, ok := decodeEpoch(r.Payload)
		if !ok {
			return ReplOp{}, errors.New("kvstore: malformed shipped epoch")
		}
		return ReplOp{Epoch: e}, nil
	default:
		return ReplOp{}, ErrUnknownOp
	}
}

// replRecOverhead approximates the fixed per-record cost counted
// against the retention budget (struct + slice header + seq).
const replRecOverhead = 48

// replRing retains the most recent records in seq order. Payloads are
// owned by the ring and never mutated, so readers may alias them after
// the lock is released.
type replRing struct {
	mu    sync.Mutex
	recs  []ReplRecord
	head  int // index of the oldest live record
	bytes int64
	max   int64 // retention budget; <= 0 disables the ring
}

// push appends one record. A non-contiguous seq (recovery re-seeding
// across a pruned gap) drops the older prefix — the ring must stay
// contiguous for implicit addressing to hold.
func (r *replRing) push(rec ReplRecord) {
	if r.max <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.recs); n > r.head && r.recs[n-1].Seq+1 != rec.Seq {
		r.recs = r.recs[:0]
		r.head = 0
		r.bytes = 0
	}
	r.recs = append(r.recs, rec)
	r.bytes += int64(len(rec.Payload)) + replRecOverhead
	for r.bytes > r.max && r.head < len(r.recs)-1 {
		r.bytes -= int64(len(r.recs[r.head].Payload)) + replRecOverhead
		r.recs[r.head] = ReplRecord{}
		r.head++
	}
	// Reclaim the evicted prefix once it dominates the backing array.
	if r.head > 64 && r.head > len(r.recs)/2 {
		r.recs = append(r.recs[:0:0], r.recs[r.head:]...)
		r.head = 0
	}
}

// bounds returns the first and last retained seq (0, 0 when empty).
func (r *replRing) bounds() (first, last uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.head >= len(r.recs) {
		return 0, 0
	}
	return r.recs[r.head].Seq, r.recs[len(r.recs)-1].Seq
}

// from collects records with Seq > after up to maxBytes of payload.
// more reports records remained past the budget; truncated reports that
// the position after has already been evicted (the caller must fall
// back to a state transfer). Returned payloads alias ring memory and
// must not be mutated.
func (r *replRing) from(after uint64, maxBytes int64) (out []ReplRecord, more, truncated bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	live := r.recs[r.head:]
	if len(live) == 0 {
		return nil, false, false
	}
	last := live[len(live)-1].Seq
	if after >= last {
		return nil, false, false
	}
	if live[0].Seq > after+1 {
		return nil, false, true
	}
	i := int(after + 1 - live[0].Seq)
	var budget int64
	for ; i < len(live); i++ {
		budget += int64(len(live[i].Payload)) + replRecOverhead
		out = append(out, live[i])
		if budget >= maxBytes {
			i++
			break
		}
	}
	return out, i < len(live), false
}

// Seq returns the global sequence of the store's most recent mutation.
// Positions are per-store: comparing two nodes' raw seqs is meaningless,
// but (peer seq − last seq we pulled from that peer) is that peer's
// shippable backlog.
func (s *Store) Seq() uint64 { return s.seq.Load() }

// ReplStatus reports the shipping position: the current seq and the
// first seq still retained for shipping. firstAvail == seq+1 means
// nothing is retained (only future records can be shipped).
func (s *Store) ReplStatus() (seq, firstAvail uint64) {
	seq = s.seq.Load()
	first, _ := s.repl.bounds()
	if first == 0 {
		return seq, seq + 1
	}
	return seq, first
}

// ShipLog returns retained records with Seq > after, up to roughly
// maxBytes. truncated means the position was evicted and the caller
// needs a state transfer instead.
func (s *Store) ShipLog(after uint64, maxBytes int64) (recs []ReplRecord, more, truncated bool) {
	recs, more, truncated = s.repl.from(after, maxBytes)
	if !truncated && len(recs) == 0 && after < s.seq.Load() {
		// Ring is empty (or ends early) but the store is past the
		// requested position: the history is gone.
		truncated = true
	}
	return recs, more, truncated
}

// ApplyBatch applies replicated mutations through the normal commit
// path, sharing one WAL commit (one group-commit fsync) across the
// batch. Epoch ops are rejected — callers raise epochs via SetEpoch,
// which preserves the pending-epoch bookkeeping.
func (s *Store) ApplyBatch(ops []ReplOp) error {
	for _, op := range ops {
		if op.Epoch > 0 {
			return errors.New("kvstore: ApplyBatch cannot carry epoch ops")
		}
	}
	_, err := s.apply(len(ops), func(i int) (byte, []byte, []byte) {
		if ops[i].Del {
			return opDelete, ops[i].Key, nil
		}
		return opPut, ops[i].Key, ops[i].Val
	})
	return err
}

// noteAppend assigns the next global seq to one appended mutation and
// retains it for shipping. The caller holds s.mu and passes ownership
// of payload to the ring.
func (s *Store) noteAppend(op byte, payload []byte) {
	seq := s.seq.Add(1)
	s.repl.push(ReplRecord{Seq: seq, Op: op, Payload: payload})
}
