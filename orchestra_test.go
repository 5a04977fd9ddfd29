package orchestra

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"orchestra/internal/ring"
	"orchestra/internal/tuple"
)

func newTestCluster(t *testing.T, n int, opts ...Option) *Cluster {
	t.Helper()
	c, err := NewCluster(n, opts...)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

func mustCreate(t *testing.T, c *Cluster, def *SchemaDef) {
	t.Helper()
	if err := c.CreateRelation(def); err != nil {
		t.Fatalf("CreateRelation: %v", err)
	}
}

func mustPublish(t *testing.T, c *Cluster, rel string, rows Rows) Epoch {
	t.Helper()
	e, err := c.Publish(rel, rows)
	if err != nil {
		t.Fatalf("Publish(%s): %v", rel, err)
	}
	return e
}

func mustQuery(t *testing.T, c *Cluster, src string) *Result {
	t.Helper()
	res, err := c.Query(src)
	if err != nil {
		t.Fatalf("Query(%q): %v", src, err)
	}
	return res
}

// sortedStrings renders rows canonically for comparison.
func sortedStrings(rows []tuple.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func expectRows(t *testing.T, res *Result, want ...string) {
	t.Helper()
	got := sortedStrings(res.Rows)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("got %d rows %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d: got %s want %s (all: %v)", i, got[i], want[i], got)
		}
	}
}

func setupInventory(t *testing.T, c *Cluster) {
	mustCreate(t, c, NewSchema("inv", "item:string", "qty:int", "price:float").Key("item"))
	mustPublish(t, c, "inv", Rows{
		{"bolt", 90, 0.10},
		{"nut", 120, 0.05},
		{"washer", 200, 0.02},
		{"screw", 45, 0.12},
	})
}

func TestQuerySelectWhere(t *testing.T) {
	c := newTestCluster(t, 4)
	setupInventory(t, c)
	res := mustQuery(t, c, "SELECT item, qty FROM inv WHERE qty > 100")
	expectRows(t, res, `(nut, 120)`, `(washer, 200)`)
	if len(res.Columns) != 2 || res.Columns[0] != "item" {
		t.Fatalf("columns: %v", res.Columns)
	}
	if res.Plan == "" {
		t.Fatal("missing plan explanation")
	}
}

func TestQueryStar(t *testing.T) {
	c := newTestCluster(t, 3)
	setupInventory(t, c)
	res := mustQuery(t, c, "SELECT * FROM inv")
	if len(res.Rows) != 4 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	if len(res.Columns) != 3 {
		t.Fatalf("columns: %v", res.Columns)
	}
}

func TestQueryComputeAndOrder(t *testing.T) {
	c := newTestCluster(t, 4)
	setupInventory(t, c)
	res := mustQuery(t, c,
		"SELECT item, qty * 2 AS dbl FROM inv ORDER BY dbl DESC LIMIT 2")
	if len(res.Rows) != 2 {
		t.Fatalf("limit: %v", res.Rows)
	}
	if res.Rows[0][1].AsInt() != 400 || res.Rows[1][1].AsInt() != 240 {
		t.Fatalf("order: %v", res.Rows)
	}
}

func TestQueryJoin(t *testing.T) {
	c := newTestCluster(t, 4)
	setupInventory(t, c)
	mustCreate(t, c, NewSchema("supplier", "item:string", "vendor:string").Key("item"))
	mustPublish(t, c, "supplier", Rows{
		{"bolt", "acme"},
		{"nut", "acme"},
		{"washer", "globex"},
	})
	res := mustQuery(t, c,
		"SELECT inv.item, supplier.vendor FROM inv, supplier WHERE inv.item = supplier.item AND inv.qty > 100")
	expectRows(t, res, `(nut, acme)`, `(washer, globex)`)
}

func TestQueryGroupBy(t *testing.T) {
	c := newTestCluster(t, 4)
	mustCreate(t, c, NewSchema("sales", "id:int", "region:string", "amt:float").Key("id"))
	mustPublish(t, c, "sales", Rows{
		{1, "east", 10.0}, {2, "west", 20.0}, {3, "east", 30.0},
		{4, "west", 5.0}, {5, "east", 2.0},
	})
	res := mustQuery(t, c,
		"SELECT region, COUNT(*) AS n, SUM(amt) AS total FROM sales GROUP BY region ORDER BY region")
	if len(res.Rows) != 2 {
		t.Fatalf("groups: %v", res.Rows)
	}
	if res.Rows[0][0].Str != "east" || res.Rows[0][1].AsInt() != 3 || res.Rows[0][2].AsFloat() != 42.0 {
		t.Fatalf("east: %v", res.Rows[0])
	}
	if res.Rows[1][0].Str != "west" || res.Rows[1][2].AsFloat() != 25.0 {
		t.Fatalf("west: %v", res.Rows[1])
	}
}

func TestQueryPaperExample(t *testing.T) {
	// The running example of §V (Example 5.1):
	// SELECT x, MIN(z) FROM R, S WHERE R.y = S.y GROUP BY x.
	c := newTestCluster(t, 3)
	mustCreate(t, c, NewSchema("R", "x:string", "y:string").Key("x"))
	mustCreate(t, c, NewSchema("S", "y:string", "z:int").Key("y"))
	mustPublish(t, c, "R", Rows{{"a", "b"}, {"c", "d"}})
	mustPublish(t, c, "S", Rows{{"b", 7}, {"b", 3}, {"f", 9}})
	// S is keyed on y; two rows share y="b" — give S a composite key to
	// allow duplicates. Rebuild with distinct keys instead:
	res := mustQuery(t, c,
		"SELECT x, MIN(z) AS mz FROM R, S WHERE R.y = S.y GROUP BY x")
	expectRows(t, res, `(a, 3)`)
}

func TestQueryVersionedSnapshots(t *testing.T) {
	c := newTestCluster(t, 4)
	mustCreate(t, c, NewSchema("doc", "id:int", "body:string").Key("id"))
	e1 := mustPublish(t, c, "doc", Rows{{1, "draft"}})
	e2, err := c.Update("doc", Rows{{1, "final"}})
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if e2 <= e1 {
		t.Fatalf("epochs: %d then %d", e1, e2)
	}

	res1, err := c.QueryOpts("SELECT body FROM doc", QueryOptions{Epoch: e1})
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, res1, `(draft)`)

	res2 := mustQuery(t, c, "SELECT body FROM doc")
	expectRows(t, res2, `(final)`)

	// Deletes also version: the tuple disappears from the new epoch but
	// remains at the old one.
	e3, err := c.Delete("doc", Rows{{1, ""}})
	if err != nil {
		t.Fatalf("Delete: %v", err)
	}
	res3, err := c.QueryOpts("SELECT body FROM doc", QueryOptions{Epoch: e3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Rows) != 0 {
		t.Fatalf("after delete: %v", res3.Rows)
	}
	res4, err := c.QueryOpts("SELECT body FROM doc", QueryOptions{Epoch: e2})
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, res4, `(final)`)
}

func TestQueryFromAnyNode(t *testing.T) {
	c := newTestCluster(t, 4)
	setupInventory(t, c)
	for i := 0; i < 4; i++ {
		res, err := c.QueryOpts("SELECT item FROM inv", QueryOptions{Node: i})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if len(res.Rows) != 4 {
			t.Fatalf("node %d: %v", i, res.Rows)
		}
	}
}

func TestQueryWithIncrementalRecovery(t *testing.T) {
	c := newTestCluster(t, 6)
	mustCreate(t, c, NewSchema("big", "k:int", "g:int").Key("k"))
	rows := make(Rows, 3000)
	for i := range rows {
		rows[i] = Row{i, i % 37}
	}
	mustPublish(t, c, "big", rows)

	go func() {
		time.Sleep(2 * time.Millisecond)
		c.Kill(3)
	}()
	res, err := c.QueryOpts(
		"SELECT g, COUNT(*) AS n FROM big GROUP BY g",
		QueryOptions{Recovery: RecoverIncremental})
	if err != nil {
		t.Fatalf("query with failure: %v", err)
	}
	if len(res.Rows) != 37 {
		t.Fatalf("groups: %d", len(res.Rows))
	}
	total := int64(0)
	for _, r := range res.Rows {
		total += r[1].AsInt()
	}
	if total != 3000 {
		t.Fatalf("count total %d, want 3000 (complete and duplicate-free); phases=%d restarts=%d plan:\n%s",
			total, res.Phases, res.Restarts, res.Plan)
	}
}

func TestQueryWithRestartRecovery(t *testing.T) {
	c := newTestCluster(t, 5)
	setupInventory(t, c)
	c.Kill(2)
	res, err := c.QueryOpts("SELECT item FROM inv", QueryOptions{Recovery: RecoverRestart})
	if err != nil {
		t.Fatalf("query after kill: %v", err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows: %v", res.Rows)
	}
}

func TestQueryErrors(t *testing.T) {
	c := newTestCluster(t, 2)
	setupInventory(t, c)
	bad := []string{
		"not sql",
		"SELECT nosuch FROM inv",
		"SELECT item FROM nosuch",
	}
	for _, src := range bad {
		if _, err := c.Query(src); err == nil {
			t.Errorf("Query(%q): expected error", src)
		}
	}
	if _, err := c.QueryOpts("SELECT item FROM inv", QueryOptions{Node: 99}); err == nil {
		t.Error("expected error for bad node index")
	}
}

func TestPublishValidation(t *testing.T) {
	c := newTestCluster(t, 2)
	mustCreate(t, c, NewSchema("t", "a:int", "b:string").Key("a"))
	if _, err := c.Publish("t", Rows{{1}}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := c.Publish("t", Rows{{"x", "y"}}); err == nil {
		t.Error("type mismatch accepted")
	}
	if _, err := c.Publish("nosuch", Rows{{1, "a"}}); err == nil {
		t.Error("unknown relation accepted")
	}
	if err := c.CreateRelation(NewSchema("bad", "a:blob")); err == nil {
		t.Error("bad column type accepted")
	}
}

func TestNodeLifecycle(t *testing.T) {
	c := newTestCluster(t, 3)
	setupInventory(t, c)
	idx, err := c.AddNode()
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	res, err := c.QueryOpts("SELECT item FROM inv", QueryOptions{Node: idx})
	if err != nil {
		t.Fatalf("query from new node: %v", err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows: %v", res.Rows)
	}
	if err := c.RemoveNode(1); err != nil {
		t.Fatalf("RemoveNode: %v", err)
	}
	res2 := mustQuery(t, c, "SELECT item FROM inv")
	if len(res2.Rows) != 4 {
		t.Fatalf("after remove: %v", res2.Rows)
	}
}

// TestNodeIndexesAfterRemove: after a middle node is removed and another
// added, node indexes are the members in order, the newcomer last under a
// fresh name, and every index-taking method reaches the node NodeID names:
// QueryOpts and Serve resolve index i where Kill, Hang and OnNodeDown do.
func TestNodeIndexesAfterRemove(t *testing.T) {
	c := newTestCluster(t, 5)
	setupInventory(t, c)
	if err := c.RemoveNode(2); err != nil {
		t.Fatalf("RemoveNode: %v", err)
	}
	idx, err := c.AddNode()
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	want := []string{"orch-000", "orch-001", "orch-003", "orch-004", "orch-005"}
	if idx != len(want)-1 || c.Size() != len(want) {
		t.Fatalf("AddNode returned index %d of %d nodes, want %d of %d", idx, c.Size(), len(want)-1, len(want))
	}
	for i, id := range want {
		b, err := c.backend(i)
		if err != nil || c.NodeID(i) != id || string(b.Node().ID()) != id {
			t.Fatalf("index %d: NodeID %s, backend %v (%v); want %s", i, c.NodeID(i), b, err, id)
		}
		if res, err := c.QueryOpts("SELECT item FROM inv", QueryOptions{Node: i}); err != nil || len(res.Rows) != 4 {
			t.Fatalf("query at index %d: %v", i, err)
		}
	}
	if _, err := c.QueryOpts("SELECT item FROM inv", QueryOptions{Node: len(want)}); err == nil {
		t.Fatal("a query at an index past the last node ran")
	}
	c.Kill(3)
	for i, id := range want {
		if alive := c.local.Net.Alive(ring.NodeID(id)); alive != (i != 3) {
			t.Fatalf("after Kill(3), %s alive=%v", id, alive)
		}
	}
}

// TestAddNodeAfterRepairKeepsRows: a join between two repair rounds on
// every node. The join's drops are each node's own decision; a peer that
// catches up from that node's log must not replay them as deletes of
// records it still replicates.
func TestAddNodeAfterRepairKeepsRows(t *testing.T) {
	c := newTestCluster(t, 4)
	mustCreate(t, c, NewSchema("t", "k:int", "v:string").Key("k"))
	rows := make(Rows, 200)
	for i := range rows {
		rows[i] = Row{i, fmt.Sprintf("v%03d", i)}
	}
	mustPublish(t, c, "t", rows)
	repairAll := func(when string) {
		t.Helper()
		for i := 0; i < c.Size(); i++ {
			if err := c.RepairNode(i); err != nil {
				t.Fatalf("repair node %d %s the join: %v", i, when, err)
			}
		}
	}
	repairAll("before")
	if _, err := c.AddNode(); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	repairAll("after")
	for i := 0; i < c.Size(); i++ {
		res, err := c.QueryOpts("SELECT k, v FROM t", QueryOptions{Node: i})
		if err != nil {
			t.Fatalf("query at node %d: %v", i, err)
		}
		if len(res.Rows) != len(rows) {
			t.Errorf("query at node %d returns %d rows, want %d", i, len(res.Rows), len(rows))
		}
	}
}

func TestNetworkAccounting(t *testing.T) {
	c := newTestCluster(t, 4)
	setupInventory(t, c)
	c.ResetNetworkStats()
	mustQuery(t, c, "SELECT item FROM inv")
	st := c.NetworkStats()
	if st.TotalBytes <= 0 || st.TotalMsgs <= 0 {
		t.Fatalf("no traffic recorded: %+v", st)
	}
}

func TestStatsReporting(t *testing.T) {
	c := newTestCluster(t, 4)
	setupInventory(t, c)
	res := mustQuery(t, c, "SELECT item FROM inv")
	if res.Stats.Scanned != 4 {
		t.Fatalf("scanned: %+v", res.Stats)
	}
	if len(res.PerNode) != 4 {
		t.Fatalf("per-node stats: %v", res.PerNode)
	}
}

func TestLargerScaleSQL(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	c := newTestCluster(t, 8)
	mustCreate(t, c, NewSchema("fact", "id:int", "dim:int", "val:float").Key("id"))
	mustCreate(t, c, NewSchema("dim", "dim:int", "name:string").Key("dim"))
	var facts Rows
	for i := 0; i < 5000; i++ {
		facts = append(facts, Row{i, i % 50, float64(i % 997)})
	}
	mustPublish(t, c, "fact", facts)
	var dims Rows
	for d := 0; d < 50; d++ {
		dims = append(dims, Row{d, fmt.Sprintf("dim-%02d", d)})
	}
	mustPublish(t, c, "dim", dims)

	res := mustQuery(t, c, `
		SELECT name, COUNT(*) AS n, SUM(val) AS total
		FROM fact, dim
		WHERE fact.dim = dim.dim AND val < 500
		GROUP BY name ORDER BY name`)
	if len(res.Rows) != 50 {
		t.Fatalf("groups: %d", len(res.Rows))
	}
	var n int64
	for _, r := range res.Rows {
		n += r[1].AsInt()
	}
	want := int64(0)
	for i := 0; i < 5000; i++ {
		if i%997 < 500 {
			want++
		}
	}
	if n != want {
		t.Fatalf("total count %d want %d", n, want)
	}
}

func TestWeightedClusterShiftsLoad(t *testing.T) {
	// The load-balancing extension (§VIII future work): a node with 4x the
	// capacity of its peers owns ~4x the key space and therefore scans ~4x
	// the tuples of an evenly loaded relation.
	c := newTestCluster(t, 0, WithCapacities(4, 1, 1, 1, 1))
	mustCreate(t, c, NewSchema("load", "k:int", "v:int").Key("k"))
	rows := make(Rows, 6000)
	for i := range rows {
		rows[i] = Row{i, i}
	}
	mustPublish(t, c, "load", rows)

	res := mustQuery(t, c, "SELECT k, v FROM load")
	if len(res.Rows) != 6000 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	big := res.PerNode[c.NodeID(0)].Scanned
	var others uint64
	for i := 1; i < 5; i++ {
		others += res.PerNode[c.NodeID(i)].Scanned
	}
	avgOther := float64(others) / 4
	ratio := float64(big) / avgOther
	if ratio < 2.5 || ratio > 6 {
		t.Fatalf("capacity-4 node scanned %d vs avg %f (ratio %f), want ≈4x",
			big, avgOther, ratio)
	}
}

func TestQueryCacheMaterializedViews(t *testing.T) {
	c := newTestCluster(t, 3)
	setupInventory(t, c)
	c.EnableQueryCache(8)

	const q = "SELECT item, qty FROM inv WHERE qty > 100"
	r1 := mustQuery(t, c, q)
	if r1.Cached {
		t.Fatal("first execution must miss")
	}
	r2 := mustQuery(t, c, q)
	if !r2.Cached {
		t.Fatal("second execution must hit the view cache")
	}
	if len(r2.Rows) != len(r1.Rows) {
		t.Fatalf("cached rows differ: %v vs %v", r2.Rows, r1.Rows)
	}

	// A publish advances the epoch, so the view is naturally invalidated:
	// the next query recomputes and reflects the new data.
	mustPublish(t, c, "inv", Rows{{"rivet", 500, 0.08}})
	r3 := mustQuery(t, c, q)
	if r3.Cached {
		t.Fatal("query after publish must recompute")
	}
	if len(r3.Rows) != len(r1.Rows)+1 {
		t.Fatalf("fresh result missing new row: %v", r3.Rows)
	}

	// Historical queries hit their own epoch's entry.
	old, err := c.QueryOpts(q, QueryOptions{Epoch: r1.Epoch})
	if err != nil {
		t.Fatal(err)
	}
	if !old.Cached || len(old.Rows) != len(r1.Rows) {
		t.Fatalf("historical view: cached=%v rows=%d", old.Cached, len(old.Rows))
	}
}

func TestQueryCacheEviction(t *testing.T) {
	c := newTestCluster(t, 2)
	setupInventory(t, c)
	c.EnableQueryCache(2)
	queries := []string{
		"SELECT item FROM inv",
		"SELECT qty FROM inv",
		"SELECT price FROM inv",
	}
	for _, q := range queries {
		mustQuery(t, c, q)
	}
	// The first query was evicted (capacity 2): re-running misses.
	r := mustQuery(t, c, queries[0])
	if r.Cached {
		t.Fatal("evicted entry served")
	}
	// The last one is still resident.
	r2 := mustQuery(t, c, queries[2])
	if !r2.Cached {
		t.Fatal("resident entry missed")
	}
}
