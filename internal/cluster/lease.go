package cluster

// Per-relation publish leases. A publish is a distributed
// read-modify-write of the relation's catalog; within one process the
// per-relation mutex serializes it, but two *processes* publishing the
// same relation would race the catalog write and silently drop each
// other's pages. The lease closes that gap: before touching the catalog
// a publisher acquires a short-lived exclusive lease on the relation
// from an arbiter node, holds it across the publish, and releases it
// afterwards (expiry reclaims it if the publisher dies mid-publish).
//
// The arbiter is the first reachable replica of the relation's catalog
// placement, so in the common case the node that will commit the
// catalog write is also the node that granted the lease. Leases are
// deliberately in-memory: a restarted arbiter forgets its grants, which
// only shortens a lease — never extends one. When the primary arbiter
// is unreachable the acquirer falls back to the next replica; this is a
// best-effort mutual exclusion (a partition can elect two arbiters),
// matching the paper's crash-stop failure model rather than a full
// consensus lock service.

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"orchestra/internal/codec"
	"orchestra/internal/ring"
	"orchestra/internal/vstore"
)

// defaultLeaseTTL bounds how long a dead publisher can block a relation.
const defaultLeaseTTL = 10 * time.Second

// relLease is one granted lease.
type relLease struct {
	owner  string
	fence  uint64
	expiry time.Time
}

// leaseTable is a node's arbiter state.
type leaseTable struct {
	mu     sync.Mutex
	leases map[string]*relLease
	fence  uint64
}

// grant acquires or refreshes the lease on relation for owner. It
// returns the fencing token on success, or the current holder and how
// long until its lease expires.
func (t *leaseTable) grant(relation, owner string, ttl time.Duration, now time.Time) (fence uint64, holder string, wait time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.leases == nil {
		t.leases = make(map[string]*relLease)
	}
	if l, ok := t.leases[relation]; ok && l.owner != owner && now.Before(l.expiry) {
		return 0, l.owner, time.Until(l.expiry)
	}
	t.fence++
	t.leases[relation] = &relLease{owner: owner, fence: t.fence, expiry: now.Add(ttl)}
	return t.fence, "", 0
}

// release drops owner's lease on relation (no-op for any other owner).
func (t *leaseTable) release(relation, owner string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if l, ok := t.leases[relation]; ok && l.owner == owner {
		delete(t.leases, relation)
	}
}

// --- wire codec ---

const (
	leaseOpAcquire = 0
	leaseOpRelease = 1
)

func encodeLeaseReq(op byte, relation, owner string, ttl time.Duration) []byte {
	out := []byte{op}
	out = codec.AppendBytes(out, []byte(relation))
	out = codec.AppendBytes(out, []byte(owner))
	return binary.BigEndian.AppendUint64(out, uint64(ttl/time.Millisecond))
}

func decodeLeaseReq(data []byte) (op byte, relation, owner string, ttl time.Duration, err error) {
	r := codec.NewReader(data)
	op, relation, owner = r.U8(), r.Str(), r.Str()
	ttl = time.Duration(r.U64()) * time.Millisecond
	if err := r.Done("cluster: lease request"); err != nil {
		return 0, "", "", 0, err
	}
	return op, relation, owner, ttl, nil
}

func encodeLeaseResp(fence uint64, holder string, wait time.Duration) []byte {
	granted := byte(0)
	if holder == "" {
		granted = 1
	}
	out := []byte{granted}
	out = binary.BigEndian.AppendUint64(out, fence)
	out = codec.AppendBytes(out, []byte(holder))
	return binary.BigEndian.AppendUint64(out, uint64(wait/time.Millisecond))
}

func decodeLeaseResp(data []byte) (granted bool, fence uint64, holder string, wait time.Duration, err error) {
	r := codec.NewReader(data)
	granted, fence, holder = r.U8() == 1, r.U64(), r.Str()
	wait = time.Duration(r.U64()) * time.Millisecond
	if err := r.Done("cluster: lease response"); err != nil {
		return false, 0, "", 0, err
	}
	return granted, fence, holder, wait, nil
}

// registerLeaseHandler installs the arbiter RPC.
func (n *Node) registerLeaseHandler() {
	n.ep.Handle(msgRelLease, func(from ring.NodeID, payload []byte) ([]byte, error) {
		op, relation, owner, ttl, err := decodeLeaseReq(payload)
		if err != nil {
			return nil, err
		}
		switch op {
		case leaseOpRelease:
			n.leases.release(relation, owner)
			return encodeLeaseResp(0, "", 0), nil
		case leaseOpAcquire:
			if ttl <= 0 || ttl > time.Minute {
				ttl = defaultLeaseTTL
			}
			fence, holder, wait := n.leases.grant(relation, owner, ttl, time.Now())
			return encodeLeaseResp(fence, holder, wait), nil
		default:
			return nil, fmt.Errorf("cluster: unknown lease op %d", op)
		}
	})
}

// leaseArbiter returns the replicas eligible to arbitrate relation's
// publish lease: the replica set of its catalog placement, primary first.
func (n *Node) leaseArbiters(relation string) []ring.NodeID {
	return n.Table().Replicas(vstore.CatalogPlacement(relation))
}

// leaseCall performs one lease RPC against the first reachable arbiter.
func (n *Node) leaseCall(ctx context.Context, relation string, payload []byte) (granted bool, holder string, wait time.Duration, err error) {
	var lastErr error
	for _, rep := range n.leaseArbiters(relation) {
		var resp []byte
		if rep == n.id {
			resp, lastErr = func() ([]byte, error) {
				op, rel, owner, ttl, err := decodeLeaseReq(payload)
				if err != nil {
					return nil, err
				}
				if op == leaseOpRelease {
					n.leases.release(rel, owner)
					return encodeLeaseResp(0, "", 0), nil
				}
				fence, holder, wait := n.leases.grant(rel, owner, ttl, time.Now())
				return encodeLeaseResp(fence, holder, wait), nil
			}()
		} else {
			rctx, cancel := context.WithTimeout(ctx, n.cfg.RequestTimeout)
			resp, lastErr = n.ep.Request(rctx, rep, msgRelLease, payload)
			cancel()
		}
		if lastErr != nil {
			continue // arbiter unreachable: fall back to the next replica
		}
		granted, _, holder, wait, err := decodeLeaseResp(resp)
		return granted, holder, wait, err
	}
	return false, "", 0, fmt.Errorf("%w: lease %s: %v", ErrUnavailable, relation, lastErr)
}

// acquireRelLease blocks until this node holds the publish lease on
// relation (or ctx expires) and returns the release function.
func (n *Node) acquireRelLease(ctx context.Context, relation string) (func(), error) {
	owner := string(n.id)
	acquire := encodeLeaseReq(leaseOpAcquire, relation, owner, defaultLeaseTTL)
	for {
		granted, holder, wait, err := n.leaseCall(ctx, relation, acquire)
		if err != nil {
			return nil, err
		}
		if granted {
			release := func() {
				rctx, cancel := context.WithTimeout(context.Background(), n.cfg.RequestTimeout)
				defer cancel()
				_, _, _, _ = n.leaseCall(rctx, relation, encodeLeaseReq(leaseOpRelease, relation, owner, 0))
			}
			return release, nil
		}
		// Held elsewhere: wait a slice of the holder's remaining TTL with
		// jitter so competing publishers don't stampede the arbiter.
		backoff := wait / 4
		if backoff < 5*time.Millisecond {
			backoff = 5 * time.Millisecond
		}
		if backoff > 250*time.Millisecond {
			backoff = 250 * time.Millisecond
		}
		backoff += time.Duration(rand.Int63n(int64(backoff)/2 + 1))
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("cluster: publish lease on %s held by %s: %w", relation, holder, ctx.Err())
		case <-time.After(backoff):
		}
	}
}
