package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"orchestra/internal/ring"
	"orchestra/internal/transport"
	"orchestra/internal/tuple"
	"orchestra/internal/vstore"
)

func testCluster(t *testing.T, n int) *Local {
	t.Helper()
	l, err := NewLocal(n, Config{Replication: 3, MaxPageEntries: 32}, transport.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Shutdown)
	return l
}

func rSchema(t *testing.T) *tuple.Schema {
	t.Helper()
	s, err := tuple.NewSchema("R",
		[]tuple.Column{{Name: "x", Type: tuple.String}, {Name: "y", Type: tuple.String}}, "x")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func insertRow(vals ...string) vstore.Update {
	row := make(tuple.Row, len(vals))
	for i, v := range vals {
		row[i] = tuple.S(v)
	}
	return vstore.Update{Op: vstore.OpInsert, Row: row}
}

func sortCanonical(rows []tuple.Row) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Cmp(rows[j]) < 0 })
}

// readRelation reads the tuples of relation as of global epoch e that
// satisfy pred, one step at a time from n: the catalog's effective epoch,
// that epoch's coordinator, each of its pages, each matching tuple version.
// It is what a served query's distributed scan (engine.scanLeaf) does in
// parallel, spelled out sequentially over the storage primitives.
func readRelation(ctx context.Context, n *Node, relation string, e tuple.Epoch, pred KeyPred) ([]tuple.Row, error) {
	eff, cat, ok, err := n.ResolveEpoch(ctx, relation, e)
	if err != nil || !ok {
		return nil, err // !ok: the relation existed but had no data at e
	}
	coord, err := n.GetCoordinator(ctx, relation, eff)
	if err != nil {
		return nil, err
	}
	b := tuple.NewBatch(cat.Schema)
	for _, ref := range coord.Pages {
		page, _, err := n.ResolvePage(ctx, ref)
		if err != nil {
			return nil, fmt.Errorf("page %s: %w", ref.ID, err)
		}
		for i, id := range page.IDs {
			if !pred.Match(id.Key) {
				continue
			}
			v, err := n.GetRecord(ctx, page.Hashes[i], vstore.TupleKVKey(id))
			if err != nil {
				return nil, err
			}
			if err := vstore.DecodeTupleRecordCols(cat.Schema, v, b); err != nil {
				return nil, err
			}
		}
	}
	return b.Rows(), nil
}

func TestPutGetRecordAcrossNodes(t *testing.T) {
	l := testCluster(t, 5)
	ctx := ctxT(t)
	placement := tuple.NewID(rSchema(t), tuple.Row{tuple.S("k"), tuple.S("v")}, 0).Hash()
	if err := l.Node(0).PutRecord(ctx, placement, []byte("t/demo"), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	// Readable from any node.
	for i := 0; i < 5; i++ {
		v, err := l.Node(i).GetRecord(ctx, placement, []byte("t/demo"))
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if string(v) != "hello" {
			t.Fatalf("node %d read %q", i, v)
		}
	}
	// Record is on exactly r=3 nodes.
	copies := 0
	for i := 0; i < 5; i++ {
		if l.Node(i).Store().Has([]byte("t/demo")) {
			copies++
		}
	}
	if copies != 3 {
		t.Errorf("record on %d nodes, want 3", copies)
	}
	if _, err := l.Node(1).GetRecord(ctx, placement, []byte("t/missing")); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing record: %v", err)
	}
}

func TestCreateRelationTwiceFails(t *testing.T) {
	l := testCluster(t, 3)
	ctx := ctxT(t)
	s := rSchema(t)
	if err := l.Node(0).CreateRelation(ctx, s); err != nil {
		t.Fatal(err)
	}
	if err := l.Node(1).CreateRelation(ctx, s); !errors.Is(err, ErrRelationExists) {
		t.Errorf("duplicate create: %v", err)
	}
	if _, err := l.Node(2).GetCatalog(ctx, "R"); err != nil {
		t.Errorf("catalog not visible cluster-wide: %v", err)
	}
	if _, err := l.Node(0).GetCatalog(ctx, "nope"); !errors.Is(err, ErrNoSuchRelation) {
		t.Errorf("missing relation: %v", err)
	}
}

func TestPublishAndRead(t *testing.T) {
	l := testCluster(t, 5)
	ctx := ctxT(t)
	s := rSchema(t)
	if err := l.Node(0).CreateRelation(ctx, s); err != nil {
		t.Fatal(err)
	}
	var ups []vstore.Update
	for i := 0; i < 200; i++ {
		ups = append(ups, insertRow(fmt.Sprintf("key%03d", i), fmt.Sprintf("val%03d", i)))
	}
	epoch, err := l.Node(0).Publish(ctx, "R", ups)
	if err != nil {
		t.Fatal(err)
	}
	if epoch == 0 {
		t.Fatal("publish epoch must be positive")
	}
	// Read from a different node.
	rows, err := readRelation(ctx, l.Node(3), "R", epoch, AllPred())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 200 {
		t.Fatalf("retrieved %d rows, want 200", len(rows))
	}
	sortCanonical(rows)
	for i, r := range rows {
		if r[0].Str != fmt.Sprintf("key%03d", i) || r[1].Str != fmt.Sprintf("val%03d", i) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
}

func TestReadPointPredicate(t *testing.T) {
	l := testCluster(t, 4)
	ctx := ctxT(t)
	s := rSchema(t)
	if err := l.Node(0).CreateRelation(ctx, s); err != nil {
		t.Fatal(err)
	}
	var ups []vstore.Update
	for i := 0; i < 50; i++ {
		ups = append(ups, insertRow(fmt.Sprintf("k%02d", i), fmt.Sprintf("v%02d", i)))
	}
	epoch, err := l.Node(0).Publish(ctx, "R", ups)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := readRelation(ctx, l.Node(2), "R", epoch, EqPred(s, tuple.S("k17")))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][1].Str != "v17" {
		t.Fatalf("point lookup = %v", rows)
	}
}

func TestVersionedSnapshotsExample41(t *testing.T) {
	// The paper's running example, end to end on a 3-node cluster.
	l := testCluster(t, 3)
	ctx := ctxT(t)
	s := rSchema(t)
	if err := l.Node(0).CreateRelation(ctx, s); err != nil {
		t.Fatal(err)
	}
	e0, err := l.Node(0).Publish(ctx, "R", []vstore.Update{
		insertRow("a", "b"), insertRow("f", "z"),
	})
	if err != nil {
		t.Fatal(err)
	}
	e1, err := l.Node(1).Publish(ctx, "R", []vstore.Update{
		insertRow("b", "c"), insertRow("e", "e"), insertRow("c", "f"),
		{Op: vstore.OpUpdate, Row: tuple.Row{tuple.S("f"), tuple.S("a")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := l.Node(2).Publish(ctx, "R", []vstore.Update{insertRow("d", "d")})
	if err != nil {
		t.Fatal(err)
	}
	if !(e0 < e1 && e1 < e2) {
		t.Fatalf("epochs not increasing: %d %d %d", e0, e1, e2)
	}

	check := func(at tuple.Epoch, want map[string]string) {
		t.Helper()
		rows, err := readRelation(ctx, l.Node(0), "R", at, AllPred())
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(want) {
			t.Fatalf("at epoch %d: %d rows, want %d (%v)", at, len(rows), len(want), rows)
		}
		for _, r := range rows {
			if want[r[0].Str] != r[1].Str {
				t.Errorf("at epoch %d: R(%s,%s), want y=%s", at, r[0].Str, r[1].Str, want[r[0].Str])
			}
		}
	}
	// Snapshot at e0: original f value.
	check(e0, map[string]string{"a": "b", "f": "z"})
	// Snapshot at e1: f modified, three inserts visible.
	check(e1, map[string]string{"a": "b", "f": "a", "b": "c", "e": "e", "c": "f"})
	// Snapshot at e2 (= current): everything.
	check(e2, map[string]string{"a": "b", "f": "a", "b": "c", "e": "e", "c": "f", "d": "d"})
}

func TestDeleteRemovesFromCurrentVersionOnly(t *testing.T) {
	l := testCluster(t, 3)
	ctx := ctxT(t)
	s := rSchema(t)
	if err := l.Node(0).CreateRelation(ctx, s); err != nil {
		t.Fatal(err)
	}
	e1, err := l.Node(0).Publish(ctx, "R", []vstore.Update{insertRow("a", "1"), insertRow("b", "2")})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := l.Node(0).Publish(ctx, "R", []vstore.Update{
		{Op: vstore.OpDelete, Row: tuple.Row{tuple.S("a"), tuple.S("")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := readRelation(ctx, l.Node(1), "R", e2, AllPred())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Str != "b" {
		t.Fatalf("after delete: %v", rows)
	}
	// Historical query still sees the deleted tuple.
	rows, err = readRelation(ctx, l.Node(1), "R", e1, AllPred())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("historical query lost data: %v", rows)
	}
}

func TestReadSurvivesNodeFailure(t *testing.T) {
	l := testCluster(t, 6)
	ctx := ctxT(t)
	s := rSchema(t)
	if err := l.Node(0).CreateRelation(ctx, s); err != nil {
		t.Fatal(err)
	}
	var ups []vstore.Update
	for i := 0; i < 300; i++ {
		ups = append(ups, insertRow(fmt.Sprintf("key%04d", i), "v"))
	}
	epoch, err := l.Node(0).Publish(ctx, "R", ups)
	if err != nil {
		t.Fatal(err)
	}
	// Kill one node; every record had 3 replicas, so retrieval must still
	// return the complete, correct answer via failover.
	l.Kill(NodeName(4))
	rows, err := readRelation(ctx, l.Node(0), "R", epoch, AllPred())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 300 {
		t.Fatalf("after failure: %d rows, want 300", len(rows))
	}
}

func TestMultiEpochAppendsAndPageSplits(t *testing.T) {
	// Small MaxPageEntries forces page splits across several publishes;
	// every epoch must remain a consistent snapshot.
	l := testCluster(t, 4)
	ctx := ctxT(t)
	s := rSchema(t)
	if err := l.Node(0).CreateRelation(ctx, s); err != nil {
		t.Fatal(err)
	}
	var epochs []tuple.Epoch
	total := 0
	for round := 0; round < 5; round++ {
		var ups []vstore.Update
		for i := 0; i < 100; i++ {
			ups = append(ups, insertRow(fmt.Sprintf("r%d-k%03d", round, i), "v"))
		}
		e, err := l.Node(round%4).Publish(ctx, "R", ups)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		epochs = append(epochs, e)
		total += 100
	}
	for i, e := range epochs {
		rows, err := readRelation(ctx, l.Node(0), "R", e, AllPred())
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != (i+1)*100 {
			t.Fatalf("at epoch %d: %d rows, want %d", e, len(rows), (i+1)*100)
		}
	}
	_ = total
}

func TestAddNodeRebalanceKeepsData(t *testing.T) {
	l := testCluster(t, 4)
	ctx := ctxT(t)
	s := rSchema(t)
	if err := l.Node(0).CreateRelation(ctx, s); err != nil {
		t.Fatal(err)
	}
	var ups []vstore.Update
	for i := 0; i < 200; i++ {
		ups = append(ups, insertRow(fmt.Sprintf("key%04d", i), "v"))
	}
	epoch, err := l.Node(0).Publish(ctx, "R", ups)
	if err != nil {
		t.Fatal(err)
	}
	before := l.Table().Version()

	newNode, err := l.AddNode(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if l.Table().Version() <= before {
		t.Error("table version must grow on join")
	}
	if l.Table().Size() != 5 {
		t.Errorf("table size = %d, want 5", l.Table().Size())
	}
	// Data retrievable from the new node and an old one.
	for _, n := range []*Node{newNode, l.Node(1)} {
		rows, err := readRelation(ctx, n, "R", epoch, AllPred())
		if err != nil {
			t.Fatalf("%s: %v", n.ID(), err)
		}
		if len(rows) != 200 {
			t.Fatalf("%s: %d rows after join, want 200", n.ID(), len(rows))
		}
	}
	for _, n := range l.Nodes() {
		assertConverged(t, l, n)
	}
}

func TestRemoveNodeGraceful(t *testing.T) {
	l := testCluster(t, 5)
	ctx := ctxT(t)
	s := rSchema(t)
	if err := l.Node(0).CreateRelation(ctx, s); err != nil {
		t.Fatal(err)
	}
	var ups []vstore.Update
	for i := 0; i < 150; i++ {
		ups = append(ups, insertRow(fmt.Sprintf("key%04d", i), "v"))
	}
	epoch, err := l.Node(0).Publish(ctx, "R", ups)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.RemoveNode(ctx, NodeName(2)); err != nil {
		t.Fatal(err)
	}
	if l.Table().Size() != 4 {
		t.Errorf("table size = %d, want 4", l.Table().Size())
	}
	rows, err := readRelation(ctx, l.Node(0), "R", epoch, AllPred())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 150 {
		t.Fatalf("after leave: %d rows, want 150", len(rows))
	}
	for _, n := range l.Nodes() {
		assertConverged(t, l, n)
	}
}

// TestAddNodeAfterRemoveNamesAFreshNode: a node joining after a removal
// gets a name no member has and no removed node had, so it neither
// collides with a live member nor reopens a removed node's store.
func TestAddNodeAfterRemoveNamesAFreshNode(t *testing.T) {
	l := testCluster(t, 5)
	ctx := ctxT(t)
	if err := l.RemoveNode(ctx, NodeName(2)); err != nil {
		t.Fatal(err)
	}
	n, err := l.AddNode(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n.ID() != NodeName(5) {
		t.Fatalf("the newcomer is %s, want %s", n.ID(), NodeName(5))
	}
	want := []ring.NodeID{NodeName(0), NodeName(1), NodeName(3), NodeName(4), NodeName(5)}
	var got []ring.NodeID
	for _, m := range l.Nodes() {
		got = append(got, m.ID())
	}
	members := slices.Sorted(slices.Values(l.Table().Members()))
	if !slices.Equal(got, want) || !slices.Equal(members, want) {
		t.Fatalf("nodes %v, table members %v; want %v", got, members, want)
	}
}

// A node's pinger watches the table's members, not the members it happened
// to have when it started: a node that joins later is probed, and one that
// leaves gracefully stops being probed instead of being reported dead.
func TestPingerFollowsTable(t *testing.T) {
	l := testCluster(t, 3)
	ctx := ctxT(t)
	down := make(chan ring.NodeID, 8) // a callback never blocks on the test
	l.Node(0).OnPeerDown(func(id ring.NodeID) { down <- id })
	l.StartPingers(5*time.Millisecond, 25*time.Millisecond)

	added, err := l.AddNode(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.RemoveNode(ctx, NodeName(1)); err != nil {
		t.Fatal(err)
	}
	l.Hang(added.ID())
	select {
	case id := <-down:
		if id != added.ID() {
			t.Fatalf("reported %s down, want the hung newcomer %s", id, added.ID())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a node added after StartPinger hung and was never reported")
	}
	select {
	case id := <-down:
		t.Fatalf("reported %s down as well", id)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestPublishAdvancesGossipEpoch(t *testing.T) {
	l := testCluster(t, 3)
	ctx := ctxT(t)
	s := rSchema(t)
	if err := l.Node(0).CreateRelation(ctx, s); err != nil {
		t.Fatal(err)
	}
	e1, err := l.Node(0).Publish(ctx, "R", []vstore.Update{insertRow("a", "1")})
	if err != nil {
		t.Fatal(err)
	}
	// A publish from another node must claim a later epoch even without
	// periodic gossip running: Next() pushes eagerly.
	deadline := time.Now().Add(2 * time.Second)
	for l.Node(1).Gossip().Current() < e1 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	e2, err := l.Node(1).Publish(ctx, "R", []vstore.Update{insertRow("b", "2")})
	if err != nil {
		t.Fatal(err)
	}
	if e2 <= e1 {
		t.Errorf("second publish epoch %d <= first %d", e2, e1)
	}
}

// TestRotatingPublishEpochsRise publishes one row at a time to one
// relation from node after node of a cluster larger than a gossip push
// reaches (gossip.Fanout peers), with no periodic gossip running. A
// publisher that has not heard of the latest epoch must still claim one
// above it: every publish rises, the catalog lists each, and each row is
// read back.
func TestRotatingPublishEpochsRise(t *testing.T) {
	const nodes, publishes = 8, 400
	l := testCluster(t, nodes)
	ctx := ctxT(t)
	if err := l.Node(0).CreateRelation(ctx, rSchema(t)); err != nil {
		t.Fatal(err)
	}
	var last tuple.Epoch
	for i := 0; i < publishes; i++ {
		e, err := l.Node(i%nodes).Publish(ctx, "R", []vstore.Update{insertRow(fmt.Sprintf("k%03d", i), "v")})
		if err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		if e <= last {
			t.Fatalf("publish %d from node %d claimed epoch %d after %d", i, i%nodes, e, last)
		}
		last = e
	}
	cat, err := l.Node(0).GetCatalog(ctx, "R")
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Epochs) != publishes {
		t.Fatalf("catalog lists %d epochs after %d publishes", len(cat.Epochs), publishes)
	}
	rows, err := readRelation(ctx, l.Node(0), "R", last, AllPred())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != publishes {
		t.Fatalf("read %d rows at epoch %d, want %d", len(rows), last, publishes)
	}
}

func TestReadBeforeRelationHadData(t *testing.T) {
	l := testCluster(t, 3)
	ctx := ctxT(t)
	s := rSchema(t)
	if err := l.Node(0).CreateRelation(ctx, s); err != nil {
		t.Fatal(err)
	}
	// Publish at some epoch; then query at epoch 0 (before any publish).
	if _, err := l.Node(0).Publish(ctx, "R", []vstore.Update{insertRow("a", "1")}); err != nil {
		t.Fatal(err)
	}
	rows, err := readRelation(ctx, l.Node(1), "R", 0, AllPred())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("pre-creation snapshot returned %d rows", len(rows))
	}
}

func TestColocationKeepsScansLocal(t *testing.T) {
	// §IV: an index page sits at the midpoint of its tuples' hash range, so
	// the node that serves a page also stores most of the tuples the page
	// lists — a scan's index node hands most tuple IDs to itself. Checked on
	// the placement itself: nearly every entry's data owner is its page's
	// owner; only pages whose range straddles a node boundary differ.
	l := testCluster(t, 4)
	ctx := ctxT(t)
	s := rSchema(t)
	if err := l.Node(0).CreateRelation(ctx, s); err != nil {
		t.Fatal(err)
	}
	var ups []vstore.Update
	const n = 500
	for i := 0; i < n; i++ {
		ups = append(ups, insertRow(fmt.Sprintf("key%05d", i), "value-payload"))
	}
	epoch, err := l.Node(0).Publish(ctx, "R", ups)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := l.Node(0).GetCoordinator(ctx, "R", epoch)
	if err != nil {
		t.Fatal(err)
	}
	table := l.Table()
	entries, remote := 0, 0
	for _, ref := range coord.Pages {
		page, _, err := l.Node(0).ResolvePage(ctx, ref)
		if err != nil {
			t.Fatal(err)
		}
		owner := table.Owner(ref.Placement())
		for _, h := range page.Hashes {
			entries++
			if table.Owner(h) != owner {
				remote++
			}
		}
	}
	if entries != n {
		t.Fatalf("pages list %d entries, want %d", entries, n)
	}
	if remote > n/4 {
		t.Errorf("%d of %d tuples live away from their index page's node; colocation should keep most local", remote, n)
	}
}

// TestDeltaChainSurvivesLosingItsBase: a page version is a chain of
// records at one placement. With the placement's owner dead and the
// chain's base missing from the next replica's store, a scan still
// resolves every version — through the replica after that, and, off the
// delivery loop, by fetching the missing record from it.
func TestDeltaChainSurvivesLosingItsBase(t *testing.T) {
	l, err := NewLocal(6, Config{Replication: 3}, transport.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Shutdown)
	ctx := ctxT(t)
	if err := l.Node(0).CreateRelation(ctx, rSchema(t)); err != nil {
		t.Fatal(err)
	}
	var epochs []tuple.Epoch
	rows := 0
	publish := func(n int) {
		t.Helper()
		var ups []vstore.Update
		for i := 0; i < n; i++ {
			ups = append(ups, insertRow(fmt.Sprintf("key%04d", rows), "v"))
			rows++
		}
		e, err := l.Node(0).Publish(ctx, "R", ups)
		if err != nil {
			t.Fatal(err)
		}
		epochs = append(epochs, e)
	}
	publish(200) // one full page spanning the ring
	for i := 0; i < 5; i++ {
		publish(3) // a delta each
	}
	coord, err := l.Node(0).GetCoordinator(ctx, "R", epochs[len(epochs)-1])
	if err != nil {
		t.Fatal(err)
	}
	if len(coord.Pages) != 1 || coord.Pages[0].Depth != 5 {
		t.Fatalf("want one page version at depth 5, got %+v", coord.Pages)
	}
	tip := coord.Pages[0]
	first, err := l.Node(0).GetCoordinator(ctx, "R", epochs[0])
	if err != nil {
		t.Fatal(err)
	}
	base := first.Pages[0].ID

	reps := l.Table().Replicas(tip.Placement())
	l.Kill(reps[0])
	damaged := l.ByID(reps[1])
	if ok, err := damaged.Store().Delete(vstore.PageKVKey(base)); err != nil || !ok {
		t.Fatalf("delete base from %s: %v, %v", reps[1], ok, err)
	}
	var reader *Node
	for _, n := range l.Nodes() {
		if n.ID() != reps[0] && n.ID() != reps[1] {
			reader = n
			break
		}
	}
	for i, e := range epochs {
		got, err := readRelation(ctx, reader, "R", e, AllPred())
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if want := 200 + 3*i; len(got) != want {
			t.Fatalf("epoch %d: %d rows, want %d", e, len(got), want)
		}
	}
	p, hit, err := damaged.ResolvePage(ctx, tip)
	if err != nil || hit || len(p.IDs) != rows {
		t.Fatalf("resolve on the replica that lost the base: %d ids, hit %v, %v", len(p.IDs), hit, err)
	}
}
