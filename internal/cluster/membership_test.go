package cluster

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"orchestra/internal/kvstore"
	"orchestra/internal/ring"
	"orchestra/internal/transport"
	"orchestra/internal/tuple"
	"orchestra/internal/vstore"
)

// TestMoveWithDestinationDown: node 3 leaves while node 2, which gains its
// ranges, is down; every relation is then published once more and node 2
// restarts. The move must not roll an acknowledged publish back (a version
// names one content), and afterwards every live node holds exactly its
// share: node 2 pulls what it gained when it repairs on restart.
func TestMoveWithDestinationDown(t *testing.T) {
	const rels, rows = 16, 20
	l := durableCluster(t, 4, 0)
	ctx := ctxT(t)
	name := func(r int) string { return fmt.Sprintf("R%02d", r) }
	publish := func(r, start int) tuple.Epoch {
		t.Helper()
		var ups []vstore.Update
		for i := start; i < start+rows; i++ {
			ups = append(ups, insertRow(fmt.Sprintf("key%05d", i), fmt.Sprintf("val%05d", i)))
		}
		e, err := l.Node(0).Publish(ctx, name(r), ups)
		if err != nil {
			t.Fatalf("publish %s: %v", name(r), err)
		}
		return e
	}
	for r := range rels {
		s, err := tuple.NewSchema(name(r),
			[]tuple.Column{{Name: "x", Type: tuple.String}, {Name: "y", Type: tuple.String}}, "x")
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Node(0).CreateRelation(ctx, s); err != nil {
			t.Fatal(err)
		}
		publish(r, 0)
	}
	for _, n := range l.Nodes() {
		initMarkers(t, l, n)
	}

	down := NodeName(2)
	l.Kill(down)
	if err := l.RemoveNode(ctx, NodeName(3)); err != nil {
		t.Fatalf("remove with a destination down: %v", err)
	}
	epochs := make([]tuple.Epoch, rels)
	for r := range rels {
		epochs[r] = publish(r, rows)
	}
	if _, err := l.Restart(ctx, down); err != nil {
		t.Fatalf("restart: %v", err)
	}

	if got := l.Table().Members(); len(got) != 3 || l.ByID(NodeName(3)) != nil {
		t.Fatalf("members after the move: %v", got)
	}
	for _, n := range l.Nodes() {
		for r := range rels {
			got, err := readRelation(ctx, n, name(r), epochs[r], AllPred())
			if err != nil {
				t.Fatalf("%s reading %s: %v", n.ID(), name(r), err)
			}
			if len(got) != 2*rows {
				t.Errorf("%s reads %d rows of %s at epoch %d, want %d", n.ID(), len(got), name(r), epochs[r], 2*rows)
			}
		}
		assertConverged(t, l, n)
	}
}

// TestFailedPullDropsNothing: the newcomer's store refuses every write, so
// its pull fails. AddNode must return the error and close the newcomer, and
// no node may have dropped a record: the old copies stay until the new ones
// exist.
func TestFailedPullDropsNothing(t *testing.T) {
	dir := t.TempDir()
	newcomer := NodeName(4)
	cfg := Config{Replication: 3, MaxPageEntries: 32,
		OpenStore: func(id ring.NodeID) (*kvstore.Store, error) {
			s, err := kvstore.Open(filepath.Join(dir, string(id)), kvstore.Options{Sync: kvstore.SyncNever})
			if err == nil && id == newcomer {
				err = s.Close() // a closed log fails every commit
			}
			return s, err
		}}
	l, err := NewLocal(4, cfg, transport.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Shutdown)
	ctx := ctxT(t)
	if err := l.Node(0).CreateRelation(ctx, rSchema(t)); err != nil {
		t.Fatal(err)
	}
	publishRows(t, l, 0, 0, 200)
	held := make([][][]byte, 4)
	for i, n := range l.Nodes() {
		n.Store().Scan(nil, nil, func(k, _ []byte) bool {
			held[i] = append(held[i], append([]byte(nil), k...))
			return true
		})
	}

	if _, err := l.AddNode(ctx); err == nil || !strings.Contains(err.Error(), "pulling") {
		t.Fatalf("AddNode = %v, want the newcomer's failed pull", err)
	}
	if l.Net.Alive(newcomer) {
		t.Errorf("the newcomer %s is still open after its failed join", newcomer)
	}
	for i, n := range l.Nodes() {
		for _, k := range held[i] {
			if _, ok := n.Store().Get(k); !ok {
				t.Fatalf("%s dropped %q after a failed pull", n.ID(), k)
			}
		}
	}
}

// TestMoveHandsOverLostRanges: with one copy per record, the only holder
// of a range that moves is a node that no longer replicates it, through a
// join and a leave. The pull must still fetch it from that node.
func TestMoveHandsOverLostRanges(t *testing.T) {
	l, err := NewLocal(3, Config{Replication: 1, MaxPageEntries: 32}, transport.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Shutdown)
	ctx := ctxT(t)
	if err := l.Node(0).CreateRelation(ctx, rSchema(t)); err != nil {
		t.Fatal(err)
	}
	publishRows(t, l, 0, 0, 200)
	epoch := l.Node(0).Gossip().Current()
	if _, err := l.AddNode(ctx); err != nil {
		t.Fatal(err)
	}
	if err := l.RemoveNode(ctx, NodeName(0)); err != nil {
		t.Fatal(err)
	}
	for _, n := range l.Nodes() {
		rows, err := readRelation(ctx, n, "R", epoch, AllPred())
		if err != nil {
			t.Fatalf("%s: %v", n.ID(), err)
		}
		if len(rows) != 200 {
			t.Fatalf("%s reads %d rows, want 200", n.ID(), len(rows))
		}
		assertConverged(t, l, n)
	}
}

// oneCopyMove builds a durable 4-node cluster keeping one copy of each
// record, publishes 200 rows of R, and checks that the move from the
// current table to one over members has a segment moving from a node in
// from to a node in to, so the layout still exercises the test. It returns
// the cluster and the epoch of the rows.
func oneCopyMove(t *testing.T, members []ring.NodeID, from, to ring.NodeID) (*Local, tuple.Epoch) {
	t.Helper()
	l := durableClusterR(t, 4, 1, 0)
	if err := l.Node(0).CreateRelation(ctxT(t), rSchema(t)); err != nil {
		t.Fatal(err)
	}
	publishRows(t, l, 0, 0, 200)
	next, err := l.Table().WithMembers(members)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(ring.Segments(l.Table(), next), func(s ring.Segment) bool {
		return slices.Equal(s.Old, []ring.NodeID{from}) && slices.Equal(s.New, []ring.NodeID{to})
	}) {
		t.Fatalf("no segment moves from %s to %s: the layout changed, pick other nodes", from, to)
	}
	return l, l.Node(0).Gossip().Current()
}

// assertAllRows checks that every node reads all 200 rows of R at epoch and
// holds exactly its share.
func assertAllRows(t *testing.T, l *Local, epoch tuple.Epoch) {
	t.Helper()
	for _, n := range l.Nodes() {
		rows, err := readRelation(ctxT(t), n, "R", epoch, AllPred())
		if err != nil {
			t.Fatalf("%s: %v", n.ID(), err)
		}
		if len(rows) != 200 {
			t.Fatalf("%s reads %d rows, want 200", n.ID(), len(rows))
		}
		assertConverged(t, l, n)
	}
}

// TestOneCopyLeaveWaitsForDestination: with one copy of each record, part
// of node 1's range moves to node 2, which is down. Closing node 1 would
// lose that part, so its removal is refused until node 2 is back.
func TestOneCopyLeaveWaitsForDestination(t *testing.T) {
	down, leaver := NodeName(2), NodeName(1)
	l, epoch := oneCopyMove(t, []ring.NodeID{NodeName(0), down, NodeName(3)}, leaver, down)
	ctx := ctxT(t)
	l.Kill(down)
	version := l.Table().Version()
	if err := l.RemoveNode(ctx, leaver); err == nil || !strings.Contains(err.Error(), "only live copies") {
		t.Fatalf("RemoveNode with the destination down = %v, want a refusal", err)
	}
	if l.Table().Version() != version || l.ByID(leaver) == nil {
		t.Fatal("a refused removal changed the membership")
	}
	if _, err := l.Restart(ctx, down); err != nil {
		t.Fatal(err)
	}
	if err := l.RemoveNode(ctx, leaver); err != nil {
		t.Fatal(err)
	}
	assertAllRows(t, l, epoch)
}

// TestOneCopyJoinWithANodeDown: with one copy of each record, a node joins
// while node 0 is down; part of node 0's range moves to the newcomer, and
// part of node 3's to node 0. The join goes ahead; when node 0 restarts,
// settling hands its lost range to the newcomer, and node 3 hands node 0
// the range it kept for it.
func TestOneCopyJoinWithANodeDown(t *testing.T) {
	down := NodeName(0)
	all := []ring.NodeID{down, NodeName(1), NodeName(2), NodeName(3), NodeName(4)}
	l, epoch := oneCopyMove(t, all, down, NodeName(4))
	ctx := ctxT(t)
	l.Kill(down)
	if _, err := l.AddNode(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Restart(ctx, down); err != nil {
		t.Fatal(err)
	}
	assertAllRows(t, l, epoch)
}
