package cluster

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"orchestra/internal/kvstore"
	"orchestra/internal/ring"
	"orchestra/internal/transport"
	"orchestra/internal/vstore"
)

// durableCluster builds an n-node cluster whose stores persist under a
// shared temp dir, so a killed node's replacement recovers its WAL.
func durableCluster(t *testing.T, n int, retain int64) *Local {
	return durableClusterR(t, n, 3, retain)
}

// durableClusterR is durableCluster keeping repl copies of each record.
func durableClusterR(t *testing.T, n, repl int, retain int64) *Local {
	t.Helper()
	dir := t.TempDir()
	cfg := Config{Replication: repl, MaxPageEntries: 32,
		OpenStore: func(id ring.NodeID) (*kvstore.Store, error) {
			d := filepath.Join(dir, string(id))
			if err := os.MkdirAll(d, 0o755); err != nil {
				return nil, err
			}
			return kvstore.Open(d, kvstore.Options{Sync: kvstore.SyncNever, RetainBytes: retain})
		}}
	l, err := NewLocal(n, cfg, transport.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Shutdown)
	return l
}

// initMarkers runs one repair round on the node so later catch-ups pull
// exactly the delta (first contact initializes per-peer markers).
func initMarkers(t *testing.T, l *Local, node *Node) {
	t.Helper()
	if err := node.Repair(ctxT(t)); err != nil {
		t.Fatalf("initial repair round: %v", err)
	}
}

func publishRows(t *testing.T, l *Local, via, start, count int) {
	t.Helper()
	var ups []vstore.Update
	for i := start; i < start+count; i++ {
		ups = append(ups, insertRow(fmt.Sprintf("key%05d", i), fmt.Sprintf("val%05d", i)))
	}
	if _, err := l.Node(via).Publish(ctxT(t), "R", ups); err != nil {
		t.Fatalf("publish: %v", err)
	}
}

// assertConverged checks the node holds exactly what a completed
// membership move would leave it: every record any live peer stores whose
// placement the node replicates, byte-for-byte — and nothing foreign.
func assertConverged(t *testing.T, l *Local, node *Node) {
	t.Helper()
	table := node.Table()
	id := node.ID()
	missing, mismatched, foreign := 0, 0, 0
	for _, peer := range l.Nodes() {
		if peer.ID() == id || !l.Net.Alive(peer.ID()) {
			continue
		}
		peer.Store().Scan(nil, nil, func(k, v []byte) bool {
			placement, ok := placementOf(k, v)
			if !ok || !table.IsReplica(id, placement) {
				return true
			}
			got, ok := node.Store().Get(k)
			switch {
			case !ok:
				missing++
			case !bytes.Equal(got, v):
				mismatched++
			}
			return true
		})
	}
	node.Store().Scan(nil, nil, func(k, v []byte) bool {
		placement, ok := placementOf(k, v)
		if ok && !table.IsReplica(id, placement) {
			foreign++
		}
		return true
	})
	if missing+mismatched+foreign > 0 {
		t.Fatalf("%s diverged from its replicated share: %d missing, %d mismatched, %d foreign records",
			id, missing, mismatched, foreign)
	}
}

func TestRestartCatchesUpViaWalShip(t *testing.T) {
	l := durableCluster(t, 5, 0)
	ctx := ctxT(t)
	if err := l.Node(0).CreateRelation(ctx, rSchema(t)); err != nil {
		t.Fatal(err)
	}
	publishRows(t, l, 0, 0, 100)
	victim := NodeName(4)
	initMarkers(t, l, l.ByID(victim))

	l.Kill(victim)
	publishRows(t, l, 0, 100, 100)
	epoch := l.Node(0).Gossip().Current()

	node, err := l.Restart(ctx, victim)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	st := node.ReplStats()
	if st.StateTransfers != 0 {
		t.Errorf("catch-up used %d state transfers; the WAL delta should have sufficed", st.StateTransfers)
	}
	if st.CatchUpRecords == 0 {
		t.Error("no records replayed through WAL catch-up")
	}
	if got := node.Store().Epoch(); got < uint64(epoch) {
		t.Errorf("restarted node at epoch %d, cluster at %d", got, epoch)
	}
	assertConverged(t, l, node)

	// The rejoined node serves correct answers.
	rows, err := readRelation(ctx, node, "R", epoch, AllPred())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 200 {
		t.Fatalf("retrieved %d rows from rejoined node, want 200", len(rows))
	}
}

func TestRestartAfterDiskLossStateTransfer(t *testing.T) {
	// Memory stores: a restart comes back empty, the analogue of losing
	// the data directory. Catch-up must detect there is no usable local
	// position and rebuild via state transfer.
	l := testCluster(t, 5)
	ctx := ctxT(t)
	if err := l.Node(0).CreateRelation(ctx, rSchema(t)); err != nil {
		t.Fatal(err)
	}
	publishRows(t, l, 0, 0, 150)
	epoch := l.Node(0).Gossip().Current()
	victim := NodeName(2)

	l.Kill(victim)
	node, err := l.Restart(ctx, victim)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if st := node.ReplStats(); st.StateTransfers == 0 {
		t.Error("empty replacement store must trigger a state transfer")
	}
	assertConverged(t, l, node)
	rows, err := readRelation(ctx, node, "R", epoch, AllPred())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 150 {
		t.Fatalf("retrieved %d rows, want 150", len(rows))
	}
}

func TestRestartTruncatedHistoryFallsBackToStateTransfer(t *testing.T) {
	// A tiny retention budget evicts peers' shipping history while the
	// victim is down: walship reports truncation and the rejoiner falls
	// back to the state transfer instead of failing or serving holes.
	l := durableCluster(t, 4, 1)
	ctx := ctxT(t)
	if err := l.Node(0).CreateRelation(ctx, rSchema(t)); err != nil {
		t.Fatal(err)
	}
	publishRows(t, l, 0, 0, 50)
	victim := NodeName(3)
	initMarkers(t, l, l.ByID(victim))

	l.Kill(victim)
	publishRows(t, l, 0, 50, 100)
	epoch := l.Node(0).Gossip().Current()

	node, err := l.Restart(ctx, victim)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if st := node.ReplStats(); st.StateTransfers == 0 {
		t.Error("evicted history must force a state transfer")
	}
	assertConverged(t, l, node)
	rows, err := readRelation(ctx, node, "R", epoch, AllPred())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 150 {
		t.Fatalf("retrieved %d rows, want 150", len(rows))
	}
}

func TestMultiBatchCatchUpStreams(t *testing.T) {
	old := shipBatchBytes
	shipBatchBytes = 2048
	t.Cleanup(func() { shipBatchBytes = old })

	l := durableCluster(t, 4, 0)
	ctx := ctxT(t)
	if err := l.Node(0).CreateRelation(ctx, rSchema(t)); err != nil {
		t.Fatal(err)
	}
	publishRows(t, l, 0, 0, 20)
	victim := NodeName(3)
	initMarkers(t, l, l.ByID(victim))

	l.Kill(victim)
	publishRows(t, l, 0, 20, 300)

	node, err := l.Restart(ctx, victim)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	st := node.ReplStats()
	if st.CatchUpBatches < 2 {
		t.Errorf("a 2 KiB budget over 300 rows must stream multiple batches, got %d", st.CatchUpBatches)
	}
	if st.StateTransfers != 0 {
		t.Errorf("streamed catch-up needed %d state transfers", st.StateTransfers)
	}
	assertConverged(t, l, node)
}

func TestCatchUpPeerDeathFailsCleanly(t *testing.T) {
	l := durableCluster(t, 5, 0)
	ctx := ctxT(t)
	if err := l.Node(0).CreateRelation(ctx, rSchema(t)); err != nil {
		t.Fatal(err)
	}
	publishRows(t, l, 0, 0, 50)
	node := l.Node(0)
	initMarkers(t, l, node)

	dead := NodeName(4)
	l.Kill(dead)
	seqBefore := node.Store().Seq()
	cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if _, err := node.CatchUp(cctx, dead); err == nil {
		t.Fatal("catch-up from a dead peer must fail")
	}
	if node.Store().Seq() != seqBefore {
		t.Error("failed catch-up mutated the store")
	}
	// Repair against the remaining peers still converges (the round
	// reports the dead peer's error but repairs via the others).
	if err := node.Repair(ctx); err == nil {
		t.Error("repair round must surface the dead peer")
	}
	assertConverged(t, l, node)
}

func TestAntiEntropyRepairsDivergence(t *testing.T) {
	l := durableCluster(t, 4, 0)
	ctx := ctxT(t)
	if err := l.Node(0).CreateRelation(ctx, rSchema(t)); err != nil {
		t.Fatal(err)
	}
	publishRows(t, l, 0, 0, 80)
	node := l.Node(1)
	initMarkers(t, l, node)

	// Silently corrupt one replicated record on this node (bit rot, a
	// lost write — anything the write path would never produce).
	var key, val []byte
	node.Store().Scan(nil, nil, func(k, v []byte) bool {
		if _, ok := placementOf(k, v); !ok {
			return true
		}
		if k[0] == 't' {
			key = append([]byte(nil), k...)
			val = append([]byte(nil), v...)
			return false
		}
		return true
	})
	if key == nil {
		t.Fatal("no tuple record found on node")
	}
	if err := node.Store().Put(key, append([]byte("CORRUPT"), val...)); err != nil {
		t.Fatal(err)
	}

	// Repair against a peer that shares the record.
	placement, _ := placementOf(key, val)
	var peer ring.NodeID
	for _, r := range node.Table().Replicas(placement) {
		if r != node.ID() {
			peer = r
			break
		}
	}
	repaired, err := node.RepairPeer(ctx, peer)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if !repaired {
		t.Fatal("digest comparison missed the divergence")
	}
	got, ok := node.Store().Get(key)
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("corrupted record not restored: %q", got)
	}
	if st := node.ReplStats(); st.AntiEntropyRepairs == 0 {
		t.Error("repair not counted")
	}
}

func TestBackgroundRepairLoopHeals(t *testing.T) {
	l := durableCluster(t, 3, 0)
	ctx := ctxT(t)
	if err := l.Node(0).CreateRelation(ctx, rSchema(t)); err != nil {
		t.Fatal(err)
	}
	publishRows(t, l, 0, 0, 40)
	node := l.Node(2)
	initMarkers(t, l, node)

	var key, val []byte
	node.Store().Scan(nil, nil, func(k, v []byte) bool {
		if _, ok := placementOf(k, v); ok && k[0] == 't' {
			key = append([]byte(nil), k...)
			val = append([]byte(nil), v...)
			return false
		}
		return true
	})
	if key == nil {
		t.Fatal("no tuple record found")
	}
	if err := node.Store().Put(key, []byte("ROT")); err != nil {
		t.Fatal(err)
	}

	node.StartRepair(20 * time.Millisecond)
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if got, ok := node.Store().Get(key); ok && bytes.Equal(got, val) {
			if st := node.ReplStats(); st.AntiEntropyRounds == 0 {
				t.Error("rounds not counted")
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("background anti-entropy never repaired the divergence")
}

func TestReplStatsReportsLag(t *testing.T) {
	l := durableCluster(t, 3, 0)
	ctx := ctxT(t)
	if err := l.Node(0).CreateRelation(ctx, rSchema(t)); err != nil {
		t.Fatal(err)
	}
	publishRows(t, l, 0, 0, 30)
	node := l.Node(1)
	initMarkers(t, l, node)

	// More publishes raise the peers' shipping positions; gossip carries
	// them, so lag becomes visible without any repair traffic.
	publishRows(t, l, 0, 30, 50)
	deadline := time.Now().Add(10 * time.Second)
	for node.ReplStats().MaxLag == 0 && time.Now().Before(deadline) {
		l.Node(0).Gossip().Sync(ctx, node.Table().Members())
		node.Gossip().Sync(ctx, node.Table().Members())
		time.Sleep(5 * time.Millisecond)
	}
	if st := node.ReplStats(); st.MaxLag == 0 {
		t.Fatal("lag never became visible through gossip")
	}
	// Catch-up drives it back toward zero.
	if err := node.Repair(ctx); err != nil {
		t.Fatal(err)
	}
	stAfter := node.ReplStats()
	if stAfter.MaxLag > 0 {
		// Gossiped seqs may be slightly stale; the marker must at least
		// have advanced past the pre-repair view.
		t.Logf("residual lag after repair: %d", stAfter.MaxLag)
	}
	assertConverged(t, l, node)
}
