package cluster

import (
	"testing"
	"time"

	"orchestra/internal/vstore"
)

func TestLeaseTableGrantConflictExpiry(t *testing.T) {
	var lt leaseTable
	now := time.Now()
	fence, holder, _ := lt.grant("r", "a", time.Second, now)
	if fence == 0 || holder != "" {
		t.Fatalf("first grant refused: fence=%d holder=%q", fence, holder)
	}
	// A second owner is refused while the lease is live.
	if f, h, wait := lt.grant("r", "b", time.Second, now); f != 0 || h != "a" || wait <= 0 {
		t.Fatalf("conflicting grant not refused: fence=%d holder=%q wait=%v", f, h, wait)
	}
	// The holder itself refreshes freely, with a new fence.
	f2, _, _ := lt.grant("r", "a", time.Second, now)
	if f2 <= fence {
		t.Fatalf("refresh fence %d not above %d", f2, fence)
	}
	// Expiry reclaims the lease for a new owner.
	if f, h, _ := lt.grant("r", "b", time.Second, now.Add(2*time.Second)); f == 0 || h != "" {
		t.Fatalf("expired lease not reclaimed: fence=%d holder=%q", f, h)
	}
	// Release by a non-owner is a no-op; by the owner it frees the lease.
	lt.release("r", "a")
	if _, h, _ := lt.grant("r", "c", time.Second, now); h != "b" {
		t.Fatalf("foreign release dropped the lease (holder=%q)", h)
	}
	lt.release("r", "b")
	if f, h, _ := lt.grant("r", "c", time.Second, now); f == 0 || h != "" {
		t.Fatalf("release did not free the lease: fence=%d holder=%q", f, h)
	}
}

func TestLeaseCodecRoundTrip(t *testing.T) {
	req := encodeLeaseReq(leaseOpAcquire, "orders", "node-1", 1500*time.Millisecond)
	op, rel, owner, ttl, err := decodeLeaseReq(req)
	if err != nil || op != leaseOpAcquire || rel != "orders" || owner != "node-1" || ttl != 1500*time.Millisecond {
		t.Fatalf("req round trip: %v %q %q %v %v", op, rel, owner, ttl, err)
	}
	resp := encodeLeaseResp(7, "node-2", 250*time.Millisecond)
	granted, fence, holder, wait, err := decodeLeaseResp(resp)
	if err != nil || granted || fence != 7 || holder != "node-2" || wait != 250*time.Millisecond {
		t.Fatalf("resp round trip: %v %d %q %v %v", granted, fence, holder, wait, err)
	}
	if granted, _, holder, _, err := decodeLeaseResp(encodeLeaseResp(9, "", 0)); err != nil || !granted || holder != "" {
		t.Fatalf("granted resp round trip: %v %q %v", granted, holder, err)
	}
}

// TestPublishIdempotentRetry resends a publish with the same ID and
// expects the original epoch back with no duplicate rows.
func TestPublishIdempotentRetry(t *testing.T) {
	l := testCluster(t, 5)
	ctx := ctxT(t)
	n := l.Node(0)
	if err := n.CreateRelation(ctx, rSchema(t)); err != nil {
		t.Fatal(err)
	}
	ups := []vstore.Update{insertRow("k1", "v1"), insertRow("k2", "v2")}
	e1, err := n.PublishWith(ctx, "R", ups, PublishOptions{ID: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Retry from a different node, as a failed-over client would.
	e2, err := l.Node(1).PublishWith(ctx, "R", ups, PublishOptions{ID: 42})
	if err != nil {
		t.Fatal(err)
	}
	if e2 != e1 {
		t.Fatalf("retry applied a new epoch %d, want dedup to %d", e2, e1)
	}
	rows, err := readRelation(ctx, n, "R", n.Gossip().Current(), AllPred())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("retry duplicated rows: got %d, want 2", len(rows))
	}
	cat, err := n.GetCatalog(ctx, "R")
	if err != nil {
		t.Fatal(err)
	}
	if cat.Rows != 2 {
		t.Fatalf("catalog row stat %d, want 2", cat.Rows)
	}
	if _, ok := cat.FindPub(42); !ok {
		t.Fatal("catalog lost the publish mark")
	}
}
