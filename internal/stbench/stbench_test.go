package stbench

import (
	"slices"
	"strings"
	"testing"

	"orchestra/internal/tuple"
)

func TestSchemasMatchPaperArities(t *testing.T) {
	want := map[string]int{
		"stb_copy": 7, // Copy: 7-attribute relation
		"stb_sel":  6, // Select: 6-attribute relation
		"stb_j7":   7, // Join inputs: 7, 5, 9 attributes
		"stb_j5":   5,
		"stb_j9":   9,
		"stb_cat":  6, // Concatenate: 6-attribute relation
		"stb_corr": 7, // Correspondence source: 7 attributes
		"stb_map":  4,
	}
	schemas := Schemas()
	if len(schemas) != len(want) {
		t.Fatalf("got %d schemas", len(schemas))
	}
	for _, s := range schemas {
		if s.Arity() != want[s.Relation] {
			t.Errorf("%s arity %d, want %d", s.Relation, s.Arity(), want[s.Relation])
		}
	}
}

func TestGenerateShapes(t *testing.T) {
	cfg := Config{Tuples: 500, Seed: 1}
	data := Generate(cfg)
	for _, s := range Schemas() {
		rows, ok := data[s.Relation]
		if !ok {
			t.Fatalf("missing relation %s", s.Relation)
		}
		wantRows := 500
		if s.Relation == "stb_map" {
			wantRows = 1000 // correspondence table default size
		}
		if len(rows) != wantRows {
			t.Fatalf("%s: %d rows", s.Relation, len(rows))
		}
		for _, r := range rows {
			if len(r) != s.Arity() {
				t.Fatalf("%s: row arity %d", s.Relation, len(r))
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Tuples: 100, Seed: 42})
	b := Generate(Config{Tuples: 100, Seed: 42})
	for name := range a {
		for i := range a[name] {
			if !a[name][i].Equal(b[name][i]) {
				t.Fatalf("%s row %d differs", name, i)
			}
		}
	}
	c := Generate(Config{Tuples: 100, Seed: 43})
	if a["stb_copy"][0].Equal(c["stb_copy"][0]) {
		t.Fatal("different seeds produced identical data")
	}
}

func TestStringWidths(t *testing.T) {
	// The paper's tables carry 25-character variable-length strings; the
	// generator should average near that.
	data := Generate(Config{Tuples: 2000, Seed: 9})
	total, n := 0, 0
	for _, r := range data["stb_copy"] {
		for _, v := range r[1:] {
			total += len(v.Str)
			n++
		}
	}
	avg := float64(total) / float64(n)
	if avg < 22 || avg > 28 {
		t.Fatalf("avg string length %f, want ≈25", avg)
	}
}

func TestJoinConnectivity(t *testing.T) {
	// The Join scenario must actually produce matches: j1 values of stb_j7
	// must intersect stb_j5's, and stb_j5's j2 must intersect stb_j9's.
	data := Generate(Config{Tuples: 1000, Seed: 5})
	j1In5 := map[string]bool{}
	j2In9 := map[string]bool{}
	for _, r := range data["stb_j5"] {
		j1In5[r[1].Str] = true
	}
	for _, r := range data["stb_j9"] {
		j2In9[r[1].Str] = true
	}
	matches := 0
	for _, r := range data["stb_j7"] {
		if j1In5[r[1].Str] {
			matches++
		}
	}
	if matches == 0 {
		t.Fatal("no j1 matches between stb_j7 and stb_j5")
	}
	m2 := 0
	for _, r := range data["stb_j5"] {
		if j2In9[r[2].Str] {
			m2++
		}
	}
	if m2 == 0 {
		t.Fatal("no j2 matches between stb_j5 and stb_j9")
	}
}

func TestCorrespondenceCoverage(t *testing.T) {
	// Every stb_corr (c1, c2) pair must resolve through the map table (the
	// correspondence replaces a Skolem function, so lookups must hit).
	data := Generate(Config{Tuples: 500, Seed: 6})
	pairs := map[[2]string]bool{}
	for _, r := range data["stb_map"] {
		pairs[[2]string{r[1].Str, r[2].Str}] = true
	}
	for _, r := range data["stb_corr"] {
		if !pairs[[2]string{r[1].Str, r[2].Str}] {
			t.Fatalf("unmatched correspondence pair %v", r)
		}
	}
}

func TestScenariosAndRelations(t *testing.T) {
	ss := Scenarios()
	if len(ss) != 5 {
		t.Fatalf("want 5 scenarios, got %d", len(ss))
	}
	schemas := Schemas()
	for _, s := range ss {
		if !slices.ContainsFunc(schemas, func(r *tuple.Schema) bool { return strings.Contains(s.SQL, " "+r.Relation) }) {
			t.Errorf("%s reads none of the source relations", s.Name)
		}
	}
}

func TestKeysUnique(t *testing.T) {
	data := Generate(Config{Tuples: 300, Seed: 2})
	schemas := map[string]*tuple.Schema{}
	for _, s := range Schemas() {
		schemas[s.Relation] = s
	}
	for name, rows := range data {
		s := schemas[name]
		seen := map[string]bool{}
		for _, r := range rows {
			k := string(tuple.EncodeKey(r, s.KeyColumns()))
			if seen[k] {
				t.Fatalf("%s: duplicate key", name)
			}
			seen[k] = true
		}
	}
}
