package optimizer

import (
	"strings"
	"testing"

	"orchestra/internal/engine"
	"orchestra/internal/sql"
	"orchestra/internal/tuple"
)

func testCatalog() *MapCatalog {
	return &MapCatalog{
		Schemas: map[string]*tuple.Schema{
			"R": tuple.MustSchema("R", []tuple.Column{
				{Name: "x", Type: tuple.Int64},
				{Name: "y", Type: tuple.Int64},
			}, "x"),
			"S": tuple.MustSchema("S", []tuple.Column{
				{Name: "y", Type: tuple.Int64},
				{Name: "z", Type: tuple.Int64},
			}, "y"),
			"T": tuple.MustSchema("T", []tuple.Column{
				{Name: "z", Type: tuple.Int64},
				{Name: "w", Type: tuple.String},
			}, "z"),
		},
		Tables: map[string]TableStats{
			"R": {Rows: 100000, Distinct: map[string]int64{"y": 500}},
			"S": {Rows: 2000},
			"T": {Rows: 50000},
		},
	}
}

func build(t *testing.T, src string) (*engine.Plan, *Info) {
	t.Helper()
	q, err := sql.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, info, err := Build(q, testCatalog(), Environment{Nodes: 8})
	if err != nil {
		t.Fatalf("Build(%q): %v", src, err)
	}
	return p, info
}

func planString(p *engine.Plan) string { return p.String() }

func TestPlanSimpleScan(t *testing.T) {
	p, info := build(t, "SELECT x, y FROM R")
	str := planString(p)
	if !strings.Contains(str, "DistributedScan(R)") {
		t.Fatalf("no scan:\n%s", str)
	}
	if strings.Contains(str, "Rehash") {
		t.Fatalf("unneeded rehash:\n%s", str)
	}
	if info.Rows < 90000 {
		t.Fatalf("cardinality estimate off: %f", info.Rows)
	}
}

func TestPlanProjectionPushed(t *testing.T) {
	p, _ := build(t, "SELECT y FROM R")
	if !strings.Contains(planString(p), "Project") {
		t.Fatalf("expected node-side projection:\n%s", planString(p))
	}
}

func TestPlanComputePushed(t *testing.T) {
	p, _ := build(t, "SELECT x * 2, y FROM R")
	if !strings.Contains(planString(p), "Compute") {
		t.Fatalf("expected node-side compute:\n%s", planString(p))
	}
}

func TestPlanFilterAndSargable(t *testing.T) {
	q, err := sql.Parse("SELECT x FROM R WHERE x = 42")
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := Build(q, testCatalog(), Environment{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	scan := findScan(p.Root)
	if scan == nil {
		t.Fatal("no scan node")
	}
	if scan.Pred.Lo == nil || scan.Pred.Hi == nil {
		t.Fatalf("equality on key should produce both bounds: %+v", scan.Pred)
	}
	// The bounds must bracket exactly the encoding of 42.
	enc := tuple.AppendKeyValue(nil, tuple.I(42))
	if string(scan.Pred.Lo) != string(enc) {
		t.Fatalf("lo bound: %x", scan.Pred.Lo)
	}
	if !scan.Pred.Match(string(enc)) {
		t.Fatal("bound excludes the matching key")
	}
	enc43 := tuple.AppendKeyValue(nil, tuple.I(43))
	if scan.Pred.Match(string(enc43)) {
		t.Fatal("bound includes a non-matching key")
	}
}

func TestPlanRangeSargable(t *testing.T) {
	q, _ := sql.Parse("SELECT x FROM R WHERE x >= 10 AND x < 20")
	p, _, err := Build(q, testCatalog(), Environment{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	scan := findScan(p.Root)
	for v := int64(0); v < 30; v++ {
		enc := tuple.AppendKeyValue(nil, tuple.I(v))
		want := v >= 10 && v < 20
		if scan.Pred.Match(string(enc)) != want {
			t.Fatalf("v=%d: match=%v want %v", v, !want, want)
		}
	}
}

func TestPlanNonKeyFilterNotSargable(t *testing.T) {
	q, _ := sql.Parse("SELECT x FROM R WHERE y < 5")
	p, _, err := Build(q, testCatalog(), Environment{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	scan := findScan(p.Root)
	if scan.Pred.Lo != nil || scan.Pred.Hi != nil {
		t.Fatalf("non-key filter must not produce bounds: %+v", scan.Pred)
	}
	if !strings.Contains(planString(p), "Select") {
		t.Fatal("residual select missing")
	}
}

func findScan(n engine.Node) *engine.ScanNode {
	if s, ok := n.(*engine.ScanNode); ok {
		return s
	}
	for _, c := range n.Children() {
		if s := findScan(c); s != nil {
			return s
		}
	}
	return nil
}

func TestPlanJoinOnStorageKeySkipsRehash(t *testing.T) {
	// S is keyed on y; R.y is a foreign key. Joining on R.y = S.y means S
	// is already partitioned on the join key — only R needs a rehash.
	p, _ := build(t, "SELECT R.x, S.z FROM R, S WHERE R.y = S.y")
	str := planString(p)
	if c := strings.Count(str, "Rehash"); c != 1 {
		t.Fatalf("want exactly 1 rehash (S side colocated), got %d:\n%s", c, str)
	}
}

func TestPlanThreeWayJoin(t *testing.T) {
	p, info := build(t, "SELECT R.x FROM R, S, T WHERE R.y = S.y AND S.z = T.z")
	str := planString(p)
	if strings.Count(str, "Join") != 2 {
		t.Fatalf("want 2 joins:\n%s", str)
	}
	if info.JoinOrder == "" || info.GroupsExplored < 6 {
		t.Fatalf("search info: %+v", info)
	}
}

func TestPlanAggregatePartialForGlobal(t *testing.T) {
	p, info := build(t, "SELECT COUNT(*), SUM(y) FROM R")
	if info.AggMode != "partial" {
		t.Fatalf("global aggregate must be partial, got %q", info.AggMode)
	}
	hasFinalAgg := false
	for _, f := range p.Final {
		if _, ok := f.(*engine.FinalAgg); ok {
			hasFinalAgg = true
		}
	}
	if !hasFinalAgg {
		t.Fatalf("partial mode requires a final merge:\n%s", planString(p))
	}
}

func TestPlanGroupByChoosesMode(t *testing.T) {
	// Few groups (y has 500 distinct) → partial aggregation wins.
	_, info := build(t, "SELECT y, COUNT(*) FROM R GROUP BY y")
	if info.AggMode != "partial" {
		t.Fatalf("few groups should aggregate partially, got %q", info.AggMode)
	}
	// Grouping on the storage key: complete aggregation without rehash is
	// free, and the group count equals the row count (partial useless).
	p2, info2 := build(t, "SELECT x, COUNT(*) FROM R GROUP BY x")
	if info2.AggMode != "complete" {
		t.Fatalf("key-partitioned grouping should be complete, got %q", info2.AggMode)
	}
	if strings.Contains(planString(p2), "Rehash") {
		t.Fatalf("grouping on the storage key needs no rehash:\n%s", planString(p2))
	}
}

func TestPlanPaperRunningExample(t *testing.T) {
	// Example 5.1: SELECT x, MIN(z) FROM R, S WHERE R.y = S.y GROUP BY x.
	p, _ := build(t, "SELECT x, MIN(z) FROM R, S WHERE R.y = S.y GROUP BY x")
	str := planString(p)
	if !strings.Contains(str, "Join") || !strings.Contains(str, "Aggregate") {
		t.Fatalf("missing join/aggregate:\n%s", str)
	}
}

func TestPlanOrderByAndLimit(t *testing.T) {
	p, _ := build(t, "SELECT y, COUNT(*) AS n FROM R GROUP BY y ORDER BY n DESC LIMIT 5")
	var haveSort, haveLimit bool
	for _, f := range p.Final {
		switch f.(type) {
		case *engine.FinalSort:
			haveSort = true
		case *engine.FinalLimit:
			haveLimit = true
		}
	}
	if !haveSort || !haveLimit {
		t.Fatalf("final ops missing:\n%s", planString(p))
	}
}

func TestPlanBushyConsidered(t *testing.T) {
	// With a chain R–S–T the search must still explore the bushy split
	// ({R,S},{T}) etc.; verify memoization covered the full lattice.
	_, info := build(t, "SELECT R.x FROM R, S, T WHERE R.y = S.y AND S.z = T.z")
	if info.GroupsExplored != 7 { // 2^3 - 1 subsets
		t.Fatalf("groups explored = %d, want 7", info.GroupsExplored)
	}
}

func TestPlanErrors(t *testing.T) {
	cases := []string{
		"SELECT x FROM Unknown",
		"SELECT nosuch FROM R",
		"SELECT R.x FROM R, S WHERE R.y = S.y GROUP BY R.x + 1",
		"SELECT * , COUNT(*) FROM R",
		"SELECT x FROM R ORDER BY nosuch",
		"SELECT y FROM R, S WHERE R.y = S.y", // ambiguous column y
	}
	for _, src := range cases {
		q, err := sql.Parse(src)
		if err != nil {
			continue // parse-level error also acceptable
		}
		if _, _, err := Build(q, testCatalog(), Environment{Nodes: 4}); err == nil {
			t.Errorf("Build(%q): expected error", src)
		}
	}
}

func TestPlanSerializableRoundTrip(t *testing.T) {
	p, _ := build(t, "SELECT R.x, S.z FROM R, S WHERE R.y = S.y AND S.z > 3")
	enc := engine.EncodePlan(p)
	dec, err := engine.DecodePlan(enc)
	if err != nil {
		t.Fatalf("optimized plan does not round trip: %v", err)
	}
	if dec.String() != p.String() {
		t.Fatalf("mismatch:\n%s\n%s", dec, p)
	}
}

func TestExplain(t *testing.T) {
	p, info := build(t, "SELECT y, COUNT(*) FROM R GROUP BY y")
	s := Explain(p, info)
	if !strings.Contains(s, "cost=") || !strings.Contains(s, "Aggregate") {
		t.Fatalf("explain output: %s", s)
	}
	// The pushdown class: a stream plan with no final operator relays the
	// fragments' blocks; any final operator keeps plain stream.
	for sql, class := range map[string]string{
		"SELECT y, COUNT(*) FROM R GROUP BY y":  "partial-agg",
		"SELECT x, y FROM R WHERE y < 3":        "stream(relay)",
		"SELECT y, x FROM R":                    "stream(relay)",
		"SELECT x, y FROM R LIMIT 5":            "stream",
		"SELECT x, y FROM R ORDER BY y LIMIT 3": "top-k",
	} {
		p, info := build(t, sql)
		if s := Explain(p, info); !strings.Contains(s, " ship="+class+"\n") {
			t.Errorf("%s: want ship=%s in\n%s", sql, class, s)
		}
	}
}

func TestPlanCoveringIndexScan(t *testing.T) {
	// Only the key column x is referenced: the scan reads the index pages
	// alone (Table I covering index scan).
	p, _ := build(t, "SELECT x FROM R WHERE x < 100")
	scan := findScan(p.Root)
	if !scan.Covering {
		t.Fatalf("expected covering scan:\n%s", planString(p))
	}
	// Touching a non-key column disables it.
	p2, _ := build(t, "SELECT x FROM R WHERE y < 100")
	if findScan(p2.Root).Covering {
		t.Fatalf("covering scan must not be used when y is referenced")
	}
	// Counting over keys only also covers.
	p3, _ := build(t, "SELECT COUNT(*) FROM R")
	if !findScan(p3.Root).Covering {
		t.Fatalf("count(*) should use covering scan:\n%s", planString(p3))
	}
}
