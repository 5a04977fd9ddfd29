package orchestra

// One node front: an embedded Cluster is a composition over the
// server.NodeBackend an orchestra-node process serves with. These tests
// pin what that buys — one source for row counts and relation listings,
// one plan for every way of asking, one error map — and that a served
// endpoint survives its node's restart.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"orchestra/client"
	"orchestra/internal/cluster"
	"orchestra/internal/codec"
	"orchestra/internal/optimizer"
	"orchestra/internal/sql"
	"orchestra/internal/tuple"
	"orchestra/internal/vstore"
	"orchestra/internal/wire"
)

// serveAll serves every node of c and returns one client per endpoint,
// each pinned to its endpoint so a call is answered by that node.
func serveAll(t *testing.T, c *Cluster) []*client.Client {
	t.Helper()
	clients := make([]*client.Client, c.Size())
	for i := range clients {
		srv, err := c.Serve("127.0.0.1:0", ServeOptions{Node: i})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		cl, err := client.Dial(srv.Addr(), client.Options{RefreshInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		clients[i] = cl
	}
	return clients
}

func typedRows(lo, hi int) []tuple.Row {
	rows := make([]tuple.Row, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rows = append(rows, tuple.Row{tuple.S(fmt.Sprintf("k%04d", i)), tuple.I(int64(i % 5)), tuple.I(int64(i))})
	}
	return rows
}

// TestRowCountOneSource: the row count has one source, the catalog record
// written atomically with each publish's epoch. A retried publish (same
// publish-id) does not count twice, a delete counts down, and the embedded
// RowCount, the served schema op at every node and the statistic the
// planner costs with all agree — before and after a reopen from disk.
func TestRowCountOneSource(t *testing.T) {
	dir := t.TempDir()
	open := func() *Cluster {
		c, err := NewCluster(3, WithDataDir(dir), WithSyncMode(SyncNever))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	check := func(c *Cluster, when string) {
		t.Helper()
		if got := c.RowCount("t"); got != 90 {
			t.Errorf("%s: RowCount = %d, want 90", when, got)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for i, cl := range serveAll(t, c) {
			rel, err := cl.Schema(ctx, "t")
			if err != nil {
				t.Fatalf("%s: schema op at node %d: %v", when, i, err)
			}
			if rel.Rows != 90 {
				t.Errorf("%s: schema op at node %d says %d rows, want 90", when, i, rel.Rows)
			}
			res, err := cl.QueryOpts(ctx, "SELECT k, v FROM t", client.QueryOptions{Explain: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 90 || !strings.Contains(res.Plan, "rows=90 ") {
				t.Errorf("%s: node %d answered %d rows, planned with %q", when, i, len(res.Rows), res.Plan)
			}
		}
		q, err := sql.Parse("SELECT k, v FROM t")
		if err != nil {
			t.Fatal(err)
		}
		if _, info, err := c.Optimize(q); err != nil || info.Rows != 90 {
			t.Errorf("%s: the planner sees %v rows (err %v), want 90", when, info, err)
		}
	}

	c := open()
	if err := c.CreateRelation(NewSchema("t", "k:string", "grp:int", "v:int")); err != nil {
		t.Fatal(err)
	}
	first, err := c.publishTyped(0, "t", vstore.OpInsert, typedRows(0, 100), 7)
	if err != nil {
		t.Fatal(err)
	}
	// The client's retry after a lost acknowledgement.
	if again, err := c.publishTyped(1, "t", vstore.OpInsert, typedRows(0, 100), 7); err != nil || again != first {
		t.Fatalf("retried publish: epoch %d, %v; want the original epoch %d", again, err, first)
	}
	gone := make(Rows, 10)
	for i := range gone {
		gone[i] = Row{fmt.Sprintf("k%04d", i), i % 5, i}
	}
	if _, err := c.Delete("t", gone); err != nil {
		t.Fatal(err)
	}
	check(c, "live")
	c.Shutdown()

	c = open()
	defer c.Shutdown()
	check(c, "reopened")
}

// TestRelationsListedAfterReopen: a freshly reopened durable cluster lists
// every relation — embedded and through each node's schema op — before any
// create, publish or query has touched it.
func TestRelationsListedAfterReopen(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCluster(3, WithDataDir(dir), WithSyncMode(SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "beta", "gamma"}
	for _, name := range want {
		if err := c.CreateRelation(NewSchema(name, "k:string", "v:int")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Publish("beta", Rows{{"x", 1}}); err != nil {
		t.Fatal(err)
	}
	c.Shutdown()

	c, err = NewCluster(3, WithDataDir(dir), WithSyncMode(SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if got := c.Relations(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Relations() = %v, want %v", got, want)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, cl := range serveAll(t, c) {
		rels, err := cl.Catalog(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range rels {
			got = append(got, r.Relation)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("schema op at node %d lists %v, want %v", i, got, want)
		}
	}
}

// TestEmbeddedAndServedShareOnePlan: for each query-mix template the
// explain text from Cluster.QueryOpts, from a served query on each node,
// and from Cluster.Optimize is identical — there is one road from SQL to a
// plan, and one catalog it reads.
func TestEmbeddedAndServedShareOnePlan(t *testing.T) {
	c := newTestCluster(t, 3)
	mustCreate(t, c, NewSchema("load", "k:string", "grp:int", "v:int"))
	mustCreate(t, c, NewSchema("dim", "grp:int", "label:string"))
	if _, err := c.PublishTyped(0, "load", typedRows(0, 500)); err != nil {
		t.Fatal(err)
	}
	mustPublish(t, c, "dim", Rows{{0, "zero"}, {1, "one"}, {2, "two"}, {3, "three"}, {4, "four"}})
	clients := serveAll(t, c)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, tc := range []struct {
		class, sql string
		prov       bool
	}{
		{"point", "SELECT k, grp, v FROM load WHERE k = 'k0042'", false},
		{"filter", "SELECT k, grp, v FROM load WHERE v >= 100 AND v < 200", false},
		{"groupby", "SELECT grp, COUNT(*), SUM(v) FROM load GROUP BY grp", false},
		{"topk", "SELECT k, grp, v FROM load ORDER BY v DESC LIMIT 10", false},
		{"join", "SELECT load.k, load.v, dim.label FROM load, dim WHERE load.grp = dim.grp AND load.v >= 100 AND load.v < 200", false},
		{"provenance", "SELECT k, grp, v FROM load WHERE v >= 100 AND v < 200", true},
	} {
		emb, err := c.QueryOpts(tc.sql, QueryOptions{Provenance: tc.prov})
		if err != nil {
			t.Fatalf("%s: %v", tc.class, err)
		}
		q, err := sql.Parse(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		plan, info, err := c.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		if opt := optimizer.Explain(plan, info); opt != emb.Plan {
			t.Errorf("%s: Optimize explains\n%s\nQueryOpts ran\n%s", tc.class, opt, emb.Plan)
		}
		for i, cl := range clients {
			res, err := cl.QueryOpts(ctx, tc.sql, client.QueryOptions{Provenance: tc.prov, Explain: true})
			if err != nil {
				t.Fatalf("%s at node %d: %v", tc.class, i, err)
			}
			if res.Plan != emb.Plan || len(res.Rows) != len(emb.Rows) {
				t.Errorf("%s at node %d: %d rows by\n%s\nembedded: %d rows by\n%s", tc.class, i, len(res.Rows), res.Plan, len(emb.Rows), emb.Plan)
			}
		}
	}
}

// TestQueryErrorMap: one query function, one error map. Embedded callers
// get the untyped cause (errors.As / errors.Is keep working); the wire
// types the same failures — bad_request for a query that cannot be
// parsed or bound, not_found for an unknown relation, the retryable
// unavailable when no replica of a catalog could be reached.
func TestQueryErrorMap(t *testing.T) {
	// Replication 1, so a relation's catalog lives on exactly one node:
	// "near" is a relation whose catalog is node 0's, "far" one whose
	// catalog is lost with nodes 1..3.
	c := newTestCluster(t, 4, WithReplication(1))
	near, far := "", ""
	for i := 0; near == "" || far == ""; i++ {
		name := fmt.Sprintf("r%d", i)
		mustCreate(t, c, NewSchema(name, "a:int", "b:string"))
		if _, local := c.local.Node(0).Store().Get(vstore.CatalogKVKey(name)); local {
			near = name
		} else {
			far = name
		}
	}
	srv, err := c.Serve("127.0.0.1:0", ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := client.Dial(srv.Addr(), client.Options{
		RefreshInterval: -1,
		Retry:           client.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 1; i < 4; i++ {
		c.Kill(i)
	}

	var parse *sql.Error
	var unknown *optimizer.UnknownTableError
	for _, tc := range []struct {
		name, sql string
		embedded  func(error) bool
		code      string
	}{
		{"parse", "SELEC a FROM " + near, func(err error) bool { return errors.As(err, &parse) }, wire.CodeBadRequest},
		{"bind", "SELECT nosuch FROM " + near, func(err error) bool { return !errors.As(err, &parse) && !errors.As(err, &unknown) }, wire.CodeBadRequest},
		{"unknown relation", "SELECT a FROM ghost", func(err error) bool { return errors.As(err, &unknown) && unknown.Table == "ghost" }, wire.CodeNotFound},
		{"catalog unreachable", "SELECT a FROM " + far, func(err error) bool { return errors.Is(err, cluster.ErrUnavailable) }, wire.CodeUnavailable},
	} {
		_, err := c.Query(tc.sql)
		var typed *wire.Error
		if err == nil || !tc.embedded(err) || errors.As(err, &typed) {
			t.Errorf("%s: embedded error %v (%T)", tc.name, err, err)
		}
		_, err = cl.Query(context.Background(), tc.sql)
		var werr *client.Error
		if !errors.As(err, &werr) || werr.Code != tc.code {
			t.Errorf("%s: served error %v, want code %s", tc.name, err, tc.code)
		}
	}
}

// TestDeepWhere: the planner folds a WHERE into a left-deep chain, one level
// per conjunct, and every node that receives the plan decodes it under the
// reader's nesting bound. A 500-conjunct predicate is planned, shipped,
// decoded on the other nodes and run; one past the bound is refused where it
// was asked, typed as the client's fault — never prepared locally only to fail
// at the first remote fragment.
func TestDeepWhere(t *testing.T) {
	c := newTestCluster(t, 3)
	mustCreate(t, c, NewSchema("t", "k:string", "grp:int", "v:int"))
	if _, err := c.PublishTyped(0, "t", typedRows(0, 200)); err != nil {
		t.Fatal(err)
	}
	cl := serveAll(t, c)[1]
	where := func(conjuncts int) string {
		var b strings.Builder
		b.WriteString("SELECT k FROM t WHERE v < 100")
		for i := 1; i < conjuncts; i++ {
			fmt.Fprintf(&b, " AND v <> %d", 1000+i)
		}
		return b.String()
	}
	if res := mustQuery(t, c, where(500)); len(res.Rows) != 100 {
		t.Errorf("500 conjuncts, embedded: %d rows, want 100", len(res.Rows))
	}
	if res, err := cl.Query(context.Background(), where(500)); err != nil || len(res.Rows) != 100 {
		t.Errorf("500 conjuncts, served: %v", err)
	}
	tooDeep := where(codec.MaxDepth + 10)
	if _, err := c.Query(tooDeep); err == nil {
		t.Error("a predicate nested past the bound was accepted")
	}
	var werr *client.Error
	if _, err := cl.Query(context.Background(), tooDeep); !errors.As(err, &werr) || werr.Code != wire.CodeBadRequest {
		t.Errorf("a predicate nested past the bound, served: %v, want code %s", err, wire.CodeBadRequest)
	}
}

// TestServedEndpointSurvivesRestart: a node's backend is re-pointed at the
// reopened node under its own lock, so the endpoint served off it before
// Kill + RestartNode keeps answering on the same *Server afterwards — and
// the swap does not race the queries in flight across it (run under -race).
func TestServedEndpointSurvivesRestart(t *testing.T) {
	c := newTestCluster(t, 3)
	mustCreate(t, c, NewSchema("t", "k:string", "grp:int", "v:int"))
	if _, err := c.PublishTyped(0, "t", typedRows(0, 200)); err != nil {
		t.Fatal(err)
	}
	const node = 1
	srv, err := c.Serve("127.0.0.1:0", ServeOptions{Node: node})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := client.Dial(srv.Addr(), client.Options{RefreshInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	query := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		res, err := cl.Query(ctx, "SELECT k, v FROM t WHERE v >= 0")
		if err == nil && len(res.Rows) != 200 {
			err = fmt.Errorf("answered %d rows, want 200", len(res.Rows))
		}
		return err
	}
	if err := query(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // queries in flight across the kill and the restart; may fail while the node is down
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = query()
				_ = c.CacheStats(node)
			}
		}
	}()
	c.Kill(node)
	time.Sleep(20 * time.Millisecond)
	if err := c.RestartNode(node); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()

	if err := query(); err != nil {
		t.Fatalf("after RestartNode the endpoint served off the node answers: %v", err)
	}
	if st := srv.Stats(); st.NodeID != c.NodeID(node) {
		t.Fatalf("endpoint now reports node %q, want %q", st.NodeID, c.NodeID(node))
	}
}

// TestEmbeddedScanRestartsAfterKill: an embedded query is collected, never
// streamed during execution — no row reaches the caller before the answer
// is complete — so RecoverRestart recovers even a plain scan from a node
// lost mid-query. (A served query of this shape streams, and a failure
// after rows have left is terminal: the client re-issues it.)
func TestEmbeddedScanRestartsAfterKill(t *testing.T) {
	c := newTestCluster(t, 5)
	mustCreate(t, c, NewSchema("zz", "k:string", "grp:int", "v:int"))
	const n = 60000
	for lo := 0; lo < n; lo += 10000 {
		if _, err := c.PublishTyped(0, "zz", typedRows(lo, lo+10000)); err != nil {
			t.Fatal(err)
		}
	}
	const q = "SELECT k, v FROM zz"
	start := time.Now()
	clean, err := c.QueryOpts(q, QueryOptions{Recovery: RecoverRestart})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Rows) != n || clean.Streamed != 0 {
		t.Fatalf("clean scan: %d rows, %d streamed during execution; want %d collected", len(clean.Rows), clean.Streamed, n)
	}
	go func(d time.Duration) { // lands mid-scan
		time.Sleep(d)
		c.Kill(3)
	}(time.Since(start) / 3)
	res, err := c.QueryOpts(q, QueryOptions{Recovery: RecoverRestart})
	if err != nil {
		t.Fatalf("scan across Kill(3): %v", err)
	}
	if len(res.Rows) != n || res.Streamed != 0 {
		t.Fatalf("scan across Kill(3): %d rows, %d streamed, %d restarts; want %d collected", len(res.Rows), res.Streamed, res.Restarts, n)
	}
	t.Logf("scan across Kill(3): %d restarts", res.Restarts)
}

// TestCatalogReadsSurviveNodeZero: Schema, RowCount and Optimize resolve
// the replicated catalogs through any live node, so they keep answering
// with node 0 gone — for relations whose catalog node 0 held no replica of
// too (eight relations over eight nodes, three copies each).
func TestCatalogReadsSurviveNodeZero(t *testing.T) {
	c := newTestCluster(t, 8)
	for i := 0; i < 8; i++ {
		rel := fmt.Sprintf("t%d", i)
		mustCreate(t, c, NewSchema(rel, "k:string", "grp:int", "v:int"))
		if _, err := c.PublishTyped(1, rel, typedRows(0, 50)); err != nil {
			t.Fatal(err)
		}
	}
	c.Kill(0)
	for i := 0; i < 8; i++ {
		rel := fmt.Sprintf("t%d", i)
		if s, ok := c.Schema(rel); !ok || len(s.Columns) != 3 {
			t.Fatalf("Schema(%s) with node 0 down: %v, %v", rel, s, ok)
		}
		if got := c.RowCount(rel); got != 50 {
			t.Fatalf("RowCount(%s) with node 0 down: %d, want 50", rel, got)
		}
		parsed, err := sql.Parse("SELECT k FROM " + rel + " WHERE v < 10")
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Optimize(parsed); err != nil {
			t.Fatalf("Optimize over %s with node 0 down: %v", rel, err)
		}
	}
}
