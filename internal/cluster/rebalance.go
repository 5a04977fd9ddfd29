package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"orchestra/internal/keyspace"
	"orchestra/internal/ring"
	"orchestra/internal/vstore"
)

// BroadcastTable disseminates a new routing table to every member (and to
// any extra recipients, e.g. a node about to join). Nodes ignore stale
// versions, so repeated broadcasts are harmless.
func (n *Node) BroadcastTable(ctx context.Context, t *ring.Table, extra ...ring.NodeID) error {
	data, err := t.MarshalBinary()
	if err != nil {
		return err
	}
	targets := append(t.Members(), extra...)
	var lastErr error
	for _, m := range targets {
		if m == n.id {
			n.adoptTable(t)
			continue
		}
		rctx, cancel := context.WithTimeout(ctx, n.cfg.RequestTimeout)
		_, err := n.ep.Request(rctx, m, msgNewTable, data)
		cancel()
		if err != nil {
			lastErr = err
		}
	}
	n.adoptTable(t)
	return lastErr
}

// placementOf reconstructs the ring placement key of a locally stored
// record from its key (and, for pages, its value).
func placementOf(kvKey, value []byte) (keyspace.Key, bool) {
	if len(kvKey) < 2 {
		return keyspace.Key{}, false
	}
	switch {
	case kvKey[0] == 'c' && kvKey[1] == '/':
		return vstore.CatalogPlacement(string(kvKey[2:])), true
	case kvKey[0] == 'r' && kvKey[1] == '/':
		// r/<relation>\x00<epoch:8>
		rest := kvKey[2:]
		if len(rest) < 9 {
			return keyspace.Key{}, false
		}
		c, err := vstore.DecodeCoordinator(value)
		if err != nil || c.Relation != string(rest[:len(rest)-9]) {
			return keyspace.Key{}, false // not the record its key names
		}
		return vstore.CoordPlacement(c.Relation, c.Epoch), true
	case kvKey[0] == 'p' && kvKey[1] == '/':
		return vstore.PagePlacement(value)
	case kvKey[0] == 't' && kvKey[1] == '/':
		h, ok := vstore.TupleKeyHash(kvKey)
		return h, ok
	default:
		return keyspace.Key{}, false
	}
}

// Rebalance redistributes this node's records after a membership change
// from oldTable to newTable: records gain copies at their new replicas and
// are dropped from nodes that no longer replicate them. To avoid duplicate
// shipping, for each record only the first surviving member of its old
// replica set pushes (pushes are idempotent puts, so overlap is harmless).
// This is the explicit range-redistribution step of §III-C — the paper
// notes that under balanced allocation "a single node arrival or departure
// will cause all the ranges to change slightly", trading membership-change
// cost for uniform distribution.
func (n *Node) Rebalance(ctx context.Context, oldTable, newTable *ring.Table) error {
	type destBatch struct {
		items []RecordPut
	}
	pushes := make(map[ring.NodeID]*destBatch)
	var drops [][]byte

	n.store.Scan(nil, nil, func(k, v []byte) bool {
		placement, ok := placementOf(k, v)
		if !ok {
			return true
		}
		oldReps := oldTable.Replicas(placement)
		newReps := newTable.Replicas(placement)

		// Elect the pusher: first old replica that survives into the new
		// membership.
		pusher := ring.NodeID("")
		for _, r := range oldReps {
			if newTable.Contains(r) {
				pusher = r
				break
			}
		}
		inNew := false
		for _, r := range newReps {
			if r == n.id {
				inNew = true
				break
			}
		}
		if pusher == n.id {
			for _, r := range newReps {
				if r == n.id {
					continue
				}
				alreadyOld := false
				for _, o := range oldReps {
					if o == r {
						alreadyOld = true
						break
					}
				}
				if alreadyOld {
					continue // r already holds it
				}
				b := pushes[r]
				if b == nil {
					b = &destBatch{}
					pushes[r] = b
				}
				b.items = append(b.items, RecordPut{
					Placement: placement,
					KVKey:     append([]byte(nil), k...),
					Value:     append([]byte(nil), v...),
				})
			}
		}
		if !inNew {
			drops = append(drops, append([]byte(nil), k...))
		}
		return true
	})

	var lastErr error
	for dest, batch := range pushes {
		rctx, cancel := context.WithTimeout(ctx, n.cfg.RequestTimeout)
		_, err := n.ep.Request(rctx, dest, msgPutBatch, encodeBatch(batch.items))
		cancel()
		if err != nil {
			lastErr = fmt.Errorf("cluster: rebalance push to %s: %w", dest, err)
			// Hand the failed batch to the background retry queue, which
			// re-routes under whatever table is current at retry time.
			n.enqueueRetry(batch.items)
		}
	}
	if lastErr != nil {
		// Keep the records we failed to move until a retry lands them.
		return lastErr
	}
	for _, k := range drops {
		if _, err := n.store.Delete(k); err != nil {
			return err
		}
	}
	return nil
}

// Failed rebalance pushes used to be kept "for a later rebalance" that
// nothing ever scheduled — the records sat on the old replica invisibly
// until the next membership change. The retry queue below owns them
// instead: a background goroutine re-pushes each batch through
// PutRecords (which re-routes under the table current at retry time)
// with exponential backoff, and gives up after maxRetryAttempts, at
// which point the records count as stranded. Stranded records are still
// recoverable: they remain in this node's store, and the anti-entropy
// pass (repair.go) will surface the divergence.

// Variables so tests can compress the backoff schedule.
var (
	retryBaseDelay   = 250 * time.Millisecond
	retryMaxDelay    = 30 * time.Second
	maxRetryAttempts = 8
)

// retryState is the Node's failed-push retry queue.
type retryState struct {
	mu      sync.Mutex
	pending []retryBatch
	wake    chan struct{} // signaled when pending grows
	stop    chan struct{}
	started bool
	stopped atomic.Bool

	retried  atomic.Uint64 // records successfully re-pushed
	stranded atomic.Uint64 // records given up on after maxRetryAttempts
}

type retryBatch struct {
	items    []RecordPut
	attempts int
	due      time.Time
}

// RetryQueueStats reports the retry queue's depth and outcome counters:
// queued is the number of records awaiting a retry, retried counts
// records eventually pushed, stranded counts records abandoned after
// the attempt cap.
func (n *Node) RetryQueueStats() (queued int, retried, stranded uint64) {
	n.retry.mu.Lock()
	for _, b := range n.retry.pending {
		queued += len(b.items)
	}
	n.retry.mu.Unlock()
	return queued, n.retry.retried.Load(), n.retry.stranded.Load()
}

// enqueueRetry adds failed-push records to the retry queue, starting the
// background drainer on first use.
func (n *Node) enqueueRetry(items []RecordPut) {
	if len(items) == 0 || n.retry.stopped.Load() {
		return
	}
	n.retry.mu.Lock()
	if !n.retry.started {
		n.retry.started = true
		n.retry.wake = make(chan struct{}, 1)
		n.retry.stop = make(chan struct{})
		go n.retryLoop()
	}
	n.retry.pending = append(n.retry.pending, retryBatch{
		items: items,
		due:   time.Now().Add(retryBaseDelay),
	})
	wake := n.retry.wake
	n.retry.mu.Unlock()
	select {
	case wake <- struct{}{}:
	default:
	}
}

func (n *Node) stopRetry() {
	n.retry.mu.Lock()
	defer n.retry.mu.Unlock()
	if n.retry.started && n.retry.stopped.CompareAndSwap(false, true) {
		close(n.retry.stop)
	}
}

// retryLoop drains the queue: due batches are re-pushed via PutRecords;
// failures go back with doubled delay until the attempt cap.
func (n *Node) retryLoop() {
	timer := time.NewTimer(retryBaseDelay)
	defer timer.Stop()
	for {
		n.retry.mu.Lock()
		var due []retryBatch
		rest := n.retry.pending[:0]
		now := time.Now()
		next := now.Add(retryMaxDelay)
		for _, b := range n.retry.pending {
			if !b.due.After(now) {
				due = append(due, b)
			} else {
				if b.due.Before(next) {
					next = b.due
				}
				rest = append(rest, b)
			}
		}
		n.retry.pending = rest
		stop, wake := n.retry.stop, n.retry.wake
		n.retry.mu.Unlock()

		for _, b := range due {
			ctx, cancel := context.WithTimeout(context.Background(), n.cfg.RequestTimeout)
			err := n.PutRecords(ctx, b.items)
			cancel()
			if err == nil {
				n.retry.retried.Add(uint64(len(b.items)))
				continue
			}
			b.attempts++
			if b.attempts >= maxRetryAttempts {
				n.retry.stranded.Add(uint64(len(b.items)))
				continue
			}
			delay := retryBaseDelay << b.attempts
			if delay > retryMaxDelay {
				delay = retryMaxDelay
			}
			b.due = time.Now().Add(delay)
			n.retry.mu.Lock()
			n.retry.pending = append(n.retry.pending, b)
			n.retry.mu.Unlock()
		}

		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(time.Until(next))
		select {
		case <-stop:
			return
		case <-wake:
		case <-timer.C:
		}
	}
}
