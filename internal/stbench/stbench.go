// Package stbench generates the STBenchmark-style schema-mapping workload
// of paper §VI-A. The paper ran the STBenchmark instance/mapping generator
// (ToXGene) with default parameters and nesting depth zero; this package is
// the deterministic synthetic equivalent: wide relations whose attributes
// are 25-character variable-length strings (except one integer field), at
// 100K-1.6M tuples per relation, with the five mapping scenarios studied:
// Copy, Select, Join (7 ⋈ 5 ⋈ 9 attributes on two join attributes),
// Concatenate, and Correspondence (a value correspondence table replacing
// the Skolem function, as the paper did).
package stbench

import (
	"fmt"
	"math/rand"

	"orchestra/internal/tuple"
)

// Config parameterizes the generator.
type Config struct {
	// Tuples is the row count per generated relation (the paper sweeps
	// 100K-1.6M; defaults to 10K for laptop-scale runs).
	Tuples int
	// Seed makes generation deterministic.
	Seed int64
	// JoinPool is the number of distinct join-attribute values (controls
	// join selectivity; default Tuples/4).
	JoinPool int
	// CorrSize is the correspondence table size (default 1000).
	CorrSize int
}

func (c Config) withDefaults() Config {
	if c.Tuples <= 0 {
		c.Tuples = 10000
	}
	if c.JoinPool <= 0 {
		c.JoinPool = c.Tuples/4 + 1
	}
	if c.CorrSize <= 0 {
		c.CorrSize = 1000
	}
	return c
}

// Scenario is one mapping scenario: a name and the query that implements
// the mapping over the source relations.
type Scenario struct {
	Name string
	SQL  string
}

// Scenarios returns the five mapping scenarios of §VI-A.
func Scenarios() []Scenario {
	return []Scenario{
		{Name: "Copy", SQL: "SELECT * FROM stb_copy"},
		{Name: "Select", SQL: "SELECT * FROM stb_sel WHERE v < 500"},
		{Name: "Join", SQL: "SELECT a.k, a.s1, b.s1, c.s1, c.s6 " +
			"FROM stb_j7 a, stb_j5 b, stb_j9 c " +
			"WHERE a.j1 = b.j1 AND b.j2 = c.j2"},
		{Name: "Concatenate", SQL: "SELECT s1 || s2 || s3 AS cat, s4, s5 FROM stb_cat"},
		{Name: "Correspondence", SQL: "SELECT s.k, s.s1, s.s2, s.s3, s.s4, m.id " +
			"FROM stb_corr s, stb_map m " +
			"WHERE s.c1 = m.c1 AND s.c2 = m.c2"},
	}
}

// strCol names s1..sN string columns.
func strCols(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("s%d", i+1)
	}
	return out
}

// Schemas returns the source relations of the five scenarios. All tables
// are keyed on the integer column k and otherwise carry 25-char strings,
// matching the paper's description of the STBenchmark data.
func Schemas() []*tuple.Schema {
	mk := func(name string, extra []tuple.Column, strNames ...string) *tuple.Schema {
		cols := []tuple.Column{{Name: "k", Type: tuple.Int64}}
		cols = append(cols, extra...)
		for _, s := range strNames {
			cols = append(cols, tuple.Column{Name: s, Type: tuple.String})
		}
		return tuple.MustSchema(name, cols, "k")
	}
	return []*tuple.Schema{
		// Copy: 7 attributes.
		mk("stb_copy", nil, strCols(6)...),
		// Select: 6 attributes, one integer predicate field.
		mk("stb_sel", []tuple.Column{{Name: "v", Type: tuple.Int64}}, strCols(4)...),
		// Join: 7-, 5-, and 9-attribute relations; j1/j2 join attributes.
		mk("stb_j7", []tuple.Column{{Name: "j1", Type: tuple.String}}, strCols(5)...),
		mk("stb_j5", []tuple.Column{
			{Name: "j1", Type: tuple.String}, {Name: "j2", Type: tuple.String}},
			strCols(2)...),
		mk("stb_j9", []tuple.Column{{Name: "j2", Type: tuple.String}}, strCols(7)...),
		// Concatenate: 6 attributes; three get concatenated.
		mk("stb_cat", nil, strCols(5)...),
		// Correspondence: 7-attribute source plus the correspondence table
		// mapping (c1, c2) to an integer ID (the Skolem replacement).
		mk("stb_corr", []tuple.Column{
			{Name: "c1", Type: tuple.String}, {Name: "c2", Type: tuple.String}},
			strCols(4)...),
		tuple.MustSchema("stb_map", []tuple.Column{
			{Name: "mk", Type: tuple.Int64},
			{Name: "c1", Type: tuple.String},
			{Name: "c2", Type: tuple.String},
			{Name: "id", Type: tuple.Int64},
		}, "mk"),
	}
}

const strChars = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

// randString generates a variable-length string averaging 25 characters,
// as in the STBenchmark tables.
func randString(rng *rand.Rand) string {
	n := 20 + rng.Intn(11) // 20..30, mean 25
	b := make([]byte, n)
	for i := range b {
		b[i] = strChars[rng.Intn(len(strChars))]
	}
	return string(b)
}

// poolValue deterministically names a join/correspondence pool value.
func poolValue(kind string, i int) string {
	return fmt.Sprintf("%s-%08d-xxxxxxxxxxxxxxx", kind, i) // 25+ chars
}

// Generate produces all source relations. The result maps relation name to
// rows; generation is deterministic in cfg.Seed.
func Generate(cfg Config) map[string][]tuple.Row {
	cfg = cfg.withDefaults()
	out := make(map[string][]tuple.Row)
	n := cfg.Tuples

	gen := func(name string, mk func(rng *rand.Rand, i int) tuple.Row, rows int) {
		rng := rand.New(rand.NewSource(cfg.Seed ^ int64(len(name))<<32 ^ int64(rows)))
		rs := make([]tuple.Row, rows)
		for i := range rs {
			rs[i] = mk(rng, i)
		}
		out[name] = rs
	}

	gen("stb_copy", func(rng *rand.Rand, i int) tuple.Row {
		r := tuple.Row{tuple.I(int64(i))}
		for j := 0; j < 6; j++ {
			r = append(r, tuple.S(randString(rng)))
		}
		return r
	}, n)

	gen("stb_sel", func(rng *rand.Rand, i int) tuple.Row {
		r := tuple.Row{tuple.I(int64(i)), tuple.I(int64(rng.Intn(10000)))}
		for j := 0; j < 4; j++ {
			r = append(r, tuple.S(randString(rng)))
		}
		return r
	}, n)

	gen("stb_j7", func(rng *rand.Rand, i int) tuple.Row {
		r := tuple.Row{tuple.I(int64(i)), tuple.S(poolValue("j1", rng.Intn(cfg.JoinPool)))}
		for j := 0; j < 5; j++ {
			r = append(r, tuple.S(randString(rng)))
		}
		return r
	}, n)

	gen("stb_j5", func(rng *rand.Rand, i int) tuple.Row {
		r := tuple.Row{
			tuple.I(int64(i)),
			tuple.S(poolValue("j1", rng.Intn(cfg.JoinPool))),
			tuple.S(poolValue("j2", rng.Intn(cfg.JoinPool))),
		}
		for j := 0; j < 2; j++ {
			r = append(r, tuple.S(randString(rng)))
		}
		return r
	}, n)

	gen("stb_j9", func(rng *rand.Rand, i int) tuple.Row {
		r := tuple.Row{tuple.I(int64(i)), tuple.S(poolValue("j2", rng.Intn(cfg.JoinPool)))}
		for j := 0; j < 7; j++ {
			r = append(r, tuple.S(randString(rng)))
		}
		return r
	}, n)

	gen("stb_cat", func(rng *rand.Rand, i int) tuple.Row {
		r := tuple.Row{tuple.I(int64(i))}
		for j := 0; j < 5; j++ {
			r = append(r, tuple.S(randString(rng)))
		}
		return r
	}, n)

	gen("stb_corr", func(rng *rand.Rand, i int) tuple.Row {
		pair := rng.Intn(cfg.CorrSize)
		r := tuple.Row{
			tuple.I(int64(i)),
			tuple.S(poolValue("c1", pair)),
			tuple.S(poolValue("c2", pair)),
		}
		for j := 0; j < 4; j++ {
			r = append(r, tuple.S(randString(rng)))
		}
		return r
	}, n)

	gen("stb_map", func(rng *rand.Rand, i int) tuple.Row {
		return tuple.Row{
			tuple.I(int64(i)),
			tuple.S(poolValue("c1", i)),
			tuple.S(poolValue("c2", i)),
			tuple.I(int64(100000 + i)),
		}
	}, cfg.CorrSize)

	return out
}
