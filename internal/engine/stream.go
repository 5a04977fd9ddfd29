package engine

import (
	"errors"
	"fmt"
	"strings"

	"orchestra/internal/ring"
	"orchestra/internal/tuple"
)

// Streamed execution. Three pushdown classes relax the collect-then-emit
// contract for plans whose final pipeline permits it (the exactly-once
// concern only bites under provenance/incremental recovery, which keeps
// the collected path — exactly as the LIMIT pushdown already does):
//
//   - shipStream: no restart-sensitive final ops (only compute/limit).
//     With a StreamSink attached, the initiator drains the ship
//     consumer's accumulator to the sink *during* execution — first byte
//     ≈ first fragment batch. Without a rehash the fragments ship against
//     credit the drainer returns (shipCredit), so the initiator holds at
//     most members × shipCreditRows rows; with one, initiator memory is
//     bounded only by how far the consumer outruns the sink (the wire's
//     credit window, on the serving path).
//   - shipTopK: ORDER BY + LIMIT. Each fragment cuts its output back to
//     its local top K as batches arrive (compiled comparators) and ships
//     it at completion; the initiator keeps one sorted run per source
//     and K-way merge-truncates, so at most members×K rows ever reach
//     it and a fragment never holds more than K rows and one batch.
//   - shipAggMerge: a FinalAgg head. The initiator folds arriving
//     partial-aggregate rows into the FinalAgg's group table instead of
//     collecting them — memory is O(groups), not O(partials).
//
// Everything else (provenance mode, sort without limit, view-cache
// queries at the cluster layer) stays on the collected path, unchanged.

// StreamSink receives result batches during execution at the initiator.
// Emitted batches are borrowed: valid only for the duration of the call,
// never mutated by the callee. Calls are serialized (one drainer
// goroutine). A sink error aborts the query; implementations must return
// promptly once their consumer is gone (the serving path's sink is
// bounded by the request context).
type StreamSink interface {
	// StreamCols hands over a chunk of the answer.
	StreamCols(b *tuple.Batch) error
}

// FrameSink is a StreamSink that also sends encoded batches as they are —
// the served stream writer. With one attached, a stream-class plan whose
// final pipeline is empty relays every full block a remote fragment ships:
// the initiator checks the block's bytes and hands them over without
// decoding them (shipConsumer.relay), so a row crosses the codec once
// between the fragment and the client.
type FrameSink interface {
	StreamSink
	// StreamEncoded hands over one encoded batch (tuple.AppendBatchCols
	// layout, every value already checked) of rows rows, borrowed for the
	// call. It reports false, having sent nothing, for a batch the sink
	// will not send as it is; the caller decodes that one and hands it to
	// StreamCols instead.
	StreamEncoded(batch []byte, rows int) (bool, error)
}

// shipMode classifies how fragment output flows to the initiator.
type shipMode uint8

const (
	// shipCollect is the original collect-then-emit path.
	shipCollect shipMode = iota
	// shipStream forwards batches to Options.Sink as fragments deliver.
	shipStream
	// shipTopK sorts/truncates fragment-side, merge-truncates at the
	// initiator.
	shipTopK
	// shipAggMerge folds partial aggregates incrementally at the
	// initiator.
	shipAggMerge
)

func (m shipMode) String() string {
	switch m {
	case shipStream:
		return "stream"
	case shipTopK:
		return "top-k"
	case shipAggMerge:
		return "partial-agg"
	default:
		return "collect"
	}
}

// planShipMode derives the ship mode from the final pipeline and the
// execution options. It depends only on state every participant shares
// (the disseminated plan and the provenance flag), so the initiator and
// remote fragments always agree without a wire change: DecodePlan
// re-finalizes and the prepare message carries Provenance.
func planShipMode(p *Plan, opts Options) shipMode {
	if opts.Provenance {
		// Incremental recovery may retract collected rows; every pushdown
		// here assumes collected output is never retracted.
		return shipCollect
	}
	f := p.Final
	if len(f) >= 2 {
		if s, ok := f[0].(*FinalSort); ok && len(s.Keys) > 0 {
			if l, ok := f[1].(*FinalLimit); ok && l.N >= 0 {
				return shipTopK
			}
		}
	}
	if len(f) > 0 {
		if _, ok := f[0].(*FinalAgg); ok {
			return shipAggMerge
		}
	}
	for _, op := range f {
		switch op.(type) {
		case *FinalCompute, *FinalLimit:
		default:
			return shipCollect // FinalSort without a limit, or unknown ops
		}
	}
	return shipStream
}

// relays reports whether a stream-class plan hands full remote blocks to a
// FrameSink as they were encoded: only when the initiator has nothing to do
// to the rows (no final operator at all).
func relays(p *Plan, mode shipMode) bool { return mode == shipStream && len(p.Final) == 0 }

// PushdownClass names the final-pipeline pushdown class the engine will
// use for a finalized plan without provenance — surfaced by the
// optimizer's explain output so pushdown eligibility is visible in plans.
// A stream plan that relays encoded blocks to a served client is
// "stream(relay)".
func PushdownClass(p *Plan) string {
	mode := planShipMode(p, Options{})
	if relays(p, mode) {
		return mode.String() + "(relay)"
	}
	return mode.String()
}

// topKParams extracts the fragment-side sort keys and the merged row
// budget from a shipTopK plan's final pipeline.
func topKParams(p *Plan) ([]SortKey, int) {
	keys := p.Final[0].(*FinalSort).Keys
	k := p.Final[1].(*FinalLimit).N
	// Trailing limits can only shrink the budget further.
	for _, op := range p.Final[2:] {
		if l, ok := op.(*FinalLimit); ok && l.N < k {
			k = l.N
		}
	}
	return keys, k
}

// StreamAbortedError reports a node failure after result rows already
// streamed to the sink: the query cannot be restarted (a restart would
// duplicate emitted rows), so the caller sees a terminal error and must
// re-issue the query itself. Deliberately NOT a FailureError — the
// engine's restart loop must not match it.
type StreamAbortedError struct {
	Failed   []ring.NodeID
	Streamed int64
}

func (e *StreamAbortedError) Error() string {
	return fmt.Sprintf("engine: node failure after %d rows streamed: %v (re-issue the query)",
		e.Streamed, e.Failed)
}

// --- initiator-side K-way merge (shipTopK mode) ---

// cmpBatchRows compares row i of a with row j of b under the sort keys,
// with Desc applied — the merge-order comparator. Types are homogeneous
// per column across runs (same plan, same schema); a cross-run type
// mismatch compares equal and is caught earlier by mergeTruncateCols's
// shape check.
func cmpBatchRows(a *tuple.Batch, i int, b *tuple.Batch, j int, keys []SortKey) int {
	for _, k := range keys {
		av, bv := &a.Cols[k.Col], &b.Cols[k.Col]
		var c int
		switch av.T {
		case tuple.Int64:
			c = cmpNum(av.I64[i], bv.I64[j])
		case tuple.Float64:
			c = cmpNum(av.F64[i], bv.F64[j])
		case tuple.String:
			c = strings.Compare(av.Str[i], bv.Str[j])
		}
		if k.Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// mergeTruncateCols K-way merges already-sorted columnar runs and stops
// after k rows — the initiator's half of the top-K pushdown. Ties break
// by run order (stable across runs, matching a stable sort of the
// concatenation). The result is a fresh arena batch; the runs are left
// intact for the caller to recycle. A shape mismatch between runs or an
// out-of-range key column is an error that fails the query.
func mergeTruncateCols(runs []*tuple.Batch, keys []SortKey, k int) (*tuple.Batch, error) {
	live := runs[:0:0]
	for _, b := range runs {
		if b != nil && b.N > 0 {
			live = append(live, b)
		}
	}
	out := getResultBatch()
	if len(live) == 0 || k <= 0 {
		return out, nil
	}
	arity := len(live[0].Cols)
	for _, b := range live {
		if len(b.Cols) != arity {
			RecycleResultBatch(out)
			return nil, errors.New("engine: merge runs of different arity")
		}
		for c := range b.Cols {
			if b.Cols[c].T != live[0].Cols[c].T {
				RecycleResultBatch(out)
				return nil, fmt.Errorf("engine: merge run column %d type mismatch", c)
			}
		}
	}
	for _, key := range keys {
		if key.Col < 0 || key.Col >= arity {
			RecycleResultBatch(out)
			return nil, fmt.Errorf("engine: merge key column %d out of range", key.Col)
		}
	}
	idx := make([]int, len(live))
	var span tuple.Batch
	for out.N < k {
		best := -1
		for r, b := range live {
			if idx[r] >= b.N {
				continue
			}
			if best < 0 || cmpBatchRows(b, idx[r], live[best], idx[best], keys) < 0 {
				best = r
			}
		}
		if best < 0 {
			break // all runs exhausted: k exceeded the total
		}
		live[best].Slice(idx[best], idx[best]+1, &span)
		if err := out.AppendBatchInto(&span); err != nil {
			RecycleResultBatch(out)
			return nil, err
		}
		idx[best]++
	}
	return out, nil
}
