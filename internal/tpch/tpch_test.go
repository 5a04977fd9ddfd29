package tpch

import (
	"testing"

	"orchestra/internal/tuple"
)

func TestRowCounts(t *testing.T) {
	c := RowCounts(1.0)
	if c["orders"] != baseOrders || c["lineitem"] != baseOrders*linesPerOrd {
		t.Fatalf("sf=1 counts: %v", c)
	}
	if c["region"] != 5 || c["nation"] != 25 {
		t.Fatalf("fixed tables scale: %v", c)
	}
	small := RowCounts(0.001)
	if small["supplier"] < 1 {
		t.Fatalf("tiny sf must keep at least one row: %v", small)
	}
}

func TestSchemasComplete(t *testing.T) {
	schemas := Schemas()
	if len(schemas) != 8 {
		t.Fatalf("want 8 tables, got %d", len(schemas))
	}
	arity := map[string]int{
		"region": 3, "nation": 4, "supplier": 7, "customer": 8,
		"part": 9, "partsupp": 5, "orders": 9, "lineitem": 16,
	}
	for _, s := range schemas {
		if s.Arity() != arity[s.Relation] {
			t.Errorf("%s arity %d, want %d", s.Relation, s.Arity(), arity[s.Relation])
		}
	}
}

func TestGenerateDeterministicAndConsistent(t *testing.T) {
	a := Generate(0.002, 7)
	b := Generate(0.002, 7)
	for name := range a {
		if len(a[name]) != len(b[name]) {
			t.Fatalf("%s: nondeterministic size", name)
		}
	}
	if !a["lineitem"][0].Equal(b["lineitem"][0]) {
		t.Fatal("nondeterministic rows")
	}

	// Key relationships: every lineitem references an existing order;
	// every order references an existing customer.
	data := a
	nOrders := int64(len(data["orders"]))
	nCust := int64(len(data["customer"]))
	for _, l := range data["lineitem"] {
		ok := l[0].AsInt()
		if ok < 1 || ok > nOrders {
			t.Fatalf("lineitem orderkey %d out of range", ok)
		}
	}
	for _, o := range data["orders"] {
		ck := o[1].AsInt()
		if ck < 1 || ck > nCust {
			t.Fatalf("order custkey %d out of range", ck)
		}
	}
	// Nation regionkeys are valid.
	for _, n := range data["nation"] {
		rk := n[2].AsInt()
		if rk < 0 || rk > 4 {
			t.Fatalf("nation regionkey %d", rk)
		}
	}
}

func TestGenerateUniqueKeys(t *testing.T) {
	data := Generate(0.002, 3)
	schemas := map[string]*tuple.Schema{}
	for _, s := range Schemas() {
		schemas[s.Relation] = s
	}
	for name, rows := range data {
		s := schemas[name]
		seen := make(map[string]bool, len(rows))
		for _, r := range rows {
			k := string(tuple.EncodeKey(r, s.KeyColumns()))
			if seen[k] {
				t.Fatalf("%s: duplicate key %v", name, r.Project(s.KeyColumns()))
			}
			seen[k] = true
		}
	}
}

func TestGenerateSelectivities(t *testing.T) {
	data := Generate(0.01, 11)
	// Q6-style predicate selectivity should be a few percent, not 0 or 1.
	match := 0
	for _, l := range data["lineitem"] {
		ship := l[10].AsInt()
		disc := l[6].AsFloat()
		qty := l[4].AsFloat()
		if ship >= 19940101 && ship < 19950101 && disc >= 0.05 && disc <= 0.07 && qty < 24 {
			match++
		}
	}
	frac := float64(match) / float64(len(data["lineitem"]))
	if frac <= 0 || frac > 0.2 {
		t.Fatalf("Q6 selectivity %f implausible", frac)
	}
	// Return flag R appears (Q10 depends on it).
	rCount := 0
	for _, l := range data["lineitem"] {
		if l[8].Str == "R" {
			rCount++
		}
	}
	if rCount == 0 {
		t.Fatal("no R lineitems")
	}
	// Market segments are spread (Q3 filter).
	segs := map[string]int{}
	for _, c := range data["customer"] {
		segs[c[6].Str]++
	}
	if len(segs) != 5 {
		t.Fatalf("segments: %v", segs)
	}
}

func TestDates(t *testing.T) {
	data := Generate(0.002, 5)
	for _, l := range data["lineitem"] {
		ship := l[10].AsInt()
		if ship < 19920101 || ship > 19990101 {
			t.Fatalf("shipdate %d out of range", ship)
		}
	}
}

func TestQueriesNamed(t *testing.T) {
	qs := Queries()
	if len(qs) != 5 {
		t.Fatalf("want 5 queries, got %d", len(qs))
	}
	for _, q := range qs {
		if QueryByName(q.Name).SQL != q.SQL {
			t.Fatalf("QueryByName(%s) broken", q.Name)
		}
	}
	if QueryByName("Q99").SQL != "" {
		t.Fatal("unknown query should be empty")
	}
}
