package engine

import (
	"context"
	"testing"
	"time"

	"orchestra/internal/cluster"
	"orchestra/internal/kvstore"
	"orchestra/internal/ring"
	"orchestra/internal/transport"
	"orchestra/internal/tuple"
	"orchestra/internal/vstore"
)

// TestTCPClusterEndToEnd runs the full storage + query stack over real TCP
// sockets (the deployment mode of cmd/orchestra-node): create a relation,
// publish, and execute a distributed join with a rehash.
func TestTCPClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const n = 3
	// Reserve loopback addresses by briefly binding :0.
	addrs := make([]string, n)
	for i := range addrs {
		tmp, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = tmp.Addr()
		tmp.Close()
	}

	ids := make([]ring.NodeID, n)
	for i, a := range addrs {
		ids[i] = ring.NodeID(a)
	}
	table, err := ring.New(ids, ring.Balanced, 2)
	if err != nil {
		t.Fatal(err)
	}

	nodes := make([]*cluster.Node, n)
	engines := make([]*Engine, n)
	for i, a := range addrs {
		ep, err := transport.ListenTCP(a)
		if err != nil {
			t.Fatalf("listen %s: %v", a, err)
		}
		nodes[i] = cluster.NewNode(ep, kvstore.NewMemory(), table, cluster.Config{Replication: 2})
		engines[i] = New(nodes[i])
	}
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	rSchema := tuple.MustSchema("R",
		[]tuple.Column{{Name: "x", Type: tuple.Int64}, {Name: "y", Type: tuple.Int64}}, "x")
	sSchema := tuple.MustSchema("S",
		[]tuple.Column{{Name: "y", Type: tuple.Int64}, {Name: "z", Type: tuple.Int64}}, "y")
	if err := nodes[0].CreateRelation(ctx, rSchema); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].CreateRelation(ctx, sSchema); err != nil {
		t.Fatal(err)
	}

	var rUps, sUps []vstore.Update
	for i := 0; i < 200; i++ {
		rUps = append(rUps, vstore.Update{Op: vstore.OpInsert,
			Row: tuple.Row{tuple.I(int64(i)), tuple.I(int64(i % 20))}})
	}
	for i := 0; i < 20; i++ {
		sUps = append(sUps, vstore.Update{Op: vstore.OpInsert,
			Row: tuple.Row{tuple.I(int64(i)), tuple.I(int64(i * 100))}})
	}
	if _, err := nodes[0].Publish(ctx, "R", rUps); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[1].Publish(ctx, "S", sUps); err != nil {
		t.Fatal(err)
	}

	p := &Plan{Root: &JoinNode{
		LeftKeys:  []int{1},
		RightKeys: []int{0},
		Left:      &RehashNode{Keys: []int{1}, Child: &ScanNode{Relation: "R"}},
		Right:     &RehashNode{Keys: []int{0}, Child: &ScanNode{Relation: "S"}},
	}}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	res, err := engines[2].Run(ctx, p, Options{})
	if err != nil {
		t.Fatalf("query over TCP: %v", err)
	}
	if res.Batch.N != 200 {
		t.Fatalf("got %d join rows, want 200", res.Batch.N)
	}
	for _, r := range res.Batch.Rows() {
		if r[1].AsInt() != r[2].AsInt() || r[3].AsInt() != r[1].AsInt()*100 {
			t.Fatalf("bad join row %v", r)
		}
	}
}
