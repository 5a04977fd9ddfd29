package main

// gen.go is the one place benchmark inputs come from: the rows of the
// load and dim relations, the SQL templates with their parameters, the
// order operations run in, and the model every answer is checked against.
// The program under test receives only the rows and SQL generated here.

import (
	"fmt"
	"math/rand"
)

const (
	groups     = 17   // load.grp = row index % groups; dim has one row per group
	rangeWidth = 1000 // result rows of every filter/prov/join template
	topK       = 100
)

// dataset is the seeded content of relation load(k, grp, v): row i has
// k = "k%06d" of i, grp = i % 17 and v = perm[i], a seeded permutation
// of 0..n-1, so a range on v selects a known set of rows.
type dataset struct {
	n    int
	keys []string
	perm []int64 // v of row i
	inv  []int32 // row index holding value v
}

func newDataset(rng *rand.Rand, n int) *dataset {
	d := &dataset{n: n, keys: make([]string, n), perm: make([]int64, n), inv: make([]int32, n)}
	for i, v := range rng.Perm(n) {
		d.keys[i] = fmt.Sprintf("k%06d", i)
		d.perm[i] = int64(v)
		d.inv[v] = int32(i)
	}
	return d
}

// rows returns rows [lo, hi) in the form client.Publish takes.
func (d *dataset) rows(lo, hi int) [][]any {
	out := make([][]any, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, []any{d.keys[i], int64(i % groups), d.perm[i]})
	}
	return out
}

func dimLabel(g int) string { return fmt.Sprintf("label-%02d", g) }

func dimRows() [][]any {
	out := make([][]any, groups)
	for g := range out {
		out[g] = []any{int64(g), dimLabel(g)}
	}
	return out
}

// op is one generated operation: the SQL the program receives and the
// model check of its answer.
type op struct {
	class string
	sql   string
	prov  bool // run with QueryOptions.Provenance
	// newCheck starts the verification of one execution of the op.
	newCheck func() checker
}

// checker verifies one answer as its batches arrive. finish receives how
// many rows of load (a prefix of the dataset, in row order) were visible
// at the epoch the answer was computed at.
type checker interface {
	add(rows [][]any) error
	finish(visible int) error
}

// digest summarises a set of load rows well enough to catch a missing,
// duplicated or foreign row: count, sum of v and sum of v squared.
type digest struct {
	count      int
	sum, sumSq uint64
}

func (g *digest) addV(v int64) {
	g.count++
	g.sum += uint64(v)
	g.sumSq += uint64(v) * uint64(v)
}

// rangeDigest is the model answer for v in [lo, hi) over the first
// visible rows.
func (d *dataset) rangeDigest(lo, hi int64, visible int) digest {
	var g digest
	for v := lo; v < hi && v < int64(d.n); v++ {
		if int(d.inv[v]) < visible {
			g.addV(v)
		}
	}
	return g
}

func asInt(x any) (int64, bool) { v, ok := x.(int64); return v, ok }

// rowIndex checks that the dataset has a row pairing k with v and
// returns its index.
func (d *dataset) rowIndex(k, v any) (int, error) {
	vi, ok := asInt(v)
	if !ok || vi < 0 || vi >= int64(d.n) {
		return 0, fmt.Errorf("v = %v is outside the dataset", v)
	}
	i := int(d.inv[vi])
	if ks, _ := k.(string); ks != d.keys[i] {
		return 0, fmt.Errorf("row v=%d has k=%v, want %s", vi, k, d.keys[i])
	}
	return i, nil
}

// loadRow checks that r is a (k, grp, v) row of the dataset and returns
// its index.
func (d *dataset) loadRow(r []any) (int, error) {
	if len(r) != 3 {
		return 0, fmt.Errorf("row arity %d, want 3", len(r))
	}
	i, err := d.rowIndex(r[0], r[2])
	if err != nil {
		return 0, err
	}
	if g, ok := asInt(r[1]); !ok || g != int64(i%groups) {
		return 0, fmt.Errorf("row %s has grp=%v, want %d", d.keys[i], r[1], i%groups)
	}
	return i, nil
}

// rangeCheck verifies a SELECT k, grp, v ... WHERE v in [lo, hi) answer:
// every row is a dataset row inside the range, and the set matches the
// model's digest (so no row is missing or repeated).
type rangeCheck struct {
	d      *dataset
	lo, hi int64
	got    digest
}

func (c *rangeCheck) add(rows [][]any) error {
	for _, r := range rows {
		i, err := c.d.loadRow(r)
		if err != nil {
			return err
		}
		v := c.d.perm[i]
		if v < c.lo || v >= c.hi {
			return fmt.Errorf("v = %d outside [%d, %d)", v, c.lo, c.hi)
		}
		c.got.addV(v)
	}
	return nil
}

func (c *rangeCheck) finish(visible int) error {
	if want := c.d.rangeDigest(c.lo, c.hi, visible); c.got != want {
		return fmt.Errorf("range [%d, %d): got %d rows (sum v %d), want %d rows (sum v %d)",
			c.lo, c.hi, c.got.count, c.got.sum, want.count, want.sum)
	}
	return nil
}

func (d *dataset) rangeOp(class string, lo int64, prov bool) op {
	hi := lo + rangeWidth
	return op{class: class, prov: prov,
		sql:      fmt.Sprintf("SELECT k, grp, v FROM load WHERE v >= %d AND v < %d", lo, hi),
		newCheck: func() checker { return &rangeCheck{d: d, lo: lo, hi: hi} }}
}

// scanOp returns every row of load.
func (d *dataset) scanOp() op {
	return op{class: "scan", sql: "SELECT k, grp, v FROM load WHERE v >= 0",
		newCheck: func() checker { return &rangeCheck{d: d, lo: 0, hi: int64(d.n)} }}
}

// pointCheck verifies WHERE k = key of row i: exactly that row once it is
// visible, nothing before.
type pointCheck struct {
	d    *dataset
	i    int
	rows int
}

func (c *pointCheck) add(rows [][]any) error {
	for _, r := range rows {
		i, err := c.d.loadRow(r)
		if err != nil {
			return err
		}
		if i != c.i {
			return fmt.Errorf("point lookup of %s returned %s", c.d.keys[c.i], c.d.keys[i])
		}
		c.rows++
	}
	return nil
}

func (c *pointCheck) finish(visible int) error {
	want := 0
	if c.i < visible {
		want = 1
	}
	if c.rows != want {
		return fmt.Errorf("point lookup of %s: %d rows, want %d", c.d.keys[c.i], c.rows, want)
	}
	return nil
}

func (d *dataset) pointOp(i int) op {
	return op{class: "point", sql: fmt.Sprintf("SELECT k, grp, v FROM load WHERE k = '%s'", d.keys[i]),
		newCheck: func() checker { return &pointCheck{d: d, i: i} }}
}

// groupCheck verifies SELECT grp, COUNT(*), SUM(v) ... GROUP BY grp
// against the exact per-group rows of the model.
type groupCheck struct {
	d    *dataset
	got  [groups][2]int64 // (count, sum) per group
	seen [groups]bool
}

func (c *groupCheck) add(rows [][]any) error {
	for _, r := range rows {
		if len(r) != 3 {
			return fmt.Errorf("row arity %d, want 3", len(r))
		}
		g, ok1 := asInt(r[0])
		n, ok2 := asInt(r[1])
		s, ok3 := asInt(r[2])
		if !ok1 || !ok2 || !ok3 || g < 0 || g >= groups {
			return fmt.Errorf("group row %v is not (group, count, sum)", r)
		}
		if c.seen[g] {
			return fmt.Errorf("group %d was returned twice", g)
		}
		c.seen[g], c.got[g] = true, [2]int64{n, s}
	}
	return nil
}

func (c *groupCheck) finish(visible int) error {
	var want [groups][2]int64
	for i := 0; i < visible; i++ {
		want[i%groups][0]++
		want[i%groups][1] += c.d.perm[i]
	}
	if c.got != want {
		return fmt.Errorf("group-by rows (count, sum) = %v, want %v", c.got, want)
	}
	return nil
}

func (d *dataset) groupOp() op {
	return op{class: "groupby", sql: "SELECT grp, COUNT(*), SUM(v) FROM load GROUP BY grp",
		newCheck: func() checker { return &groupCheck{d: d} }}
}

// topkCheck verifies ORDER BY v DESC LIMIT K: the K largest v, in order.
type topkCheck struct {
	d    *dataset
	next int64 // the v the next row must carry
	rows int
}

func (c *topkCheck) add(rows [][]any) error {
	for _, r := range rows {
		i, err := c.d.loadRow(r)
		if err != nil {
			return err
		}
		if v := c.d.perm[i]; v != c.next {
			return fmt.Errorf("top-k row %d has v=%d, want %d", c.rows, v, c.next)
		}
		c.next--
		c.rows++
	}
	return nil
}

func (c *topkCheck) finish(int) error {
	if c.rows != topK {
		return fmt.Errorf("top-k returned %d rows, want %d", c.rows, topK)
	}
	return nil
}

func (d *dataset) topkOp() op {
	return op{class: "topk", sql: fmt.Sprintf("SELECT k, grp, v FROM load ORDER BY v DESC LIMIT %d", topK),
		newCheck: func() checker { return &topkCheck{d: d, next: int64(d.n - 1)} }}
}

// joinCheck verifies load ⋈ dim ON grp with v in [lo, hi): every row
// pairs a load row with its group's label, and the cardinality and
// digest match the model.
type joinCheck struct {
	d      *dataset
	lo, hi int64
	got    digest
}

func (c *joinCheck) add(rows [][]any) error {
	for _, r := range rows {
		if len(r) != 3 {
			return fmt.Errorf("row arity %d, want 3", len(r))
		}
		i, err := c.d.rowIndex(r[0], r[1])
		if err != nil {
			return err
		}
		v := c.d.perm[i]
		if v < c.lo || v >= c.hi {
			return fmt.Errorf("join row v = %d outside [%d, %d)", v, c.lo, c.hi)
		}
		if want := dimLabel(i % groups); r[2] != want {
			return fmt.Errorf("join row v=%d has label %v, want %s", v, r[2], want)
		}
		c.got.addV(v)
	}
	return nil
}

func (c *joinCheck) finish(visible int) error {
	if want := c.d.rangeDigest(c.lo, c.hi, visible); c.got != want {
		return fmt.Errorf("join: got %d rows, want %d", c.got.count, want.count)
	}
	return nil
}

func (d *dataset) joinOp(lo int64) op {
	hi := lo + rangeWidth
	return op{class: "join",
		sql:      fmt.Sprintf("SELECT load.k, load.v, dim.label FROM load, dim WHERE load.grp = dim.grp AND load.v >= %d AND load.v < %d", lo, hi),
		newCheck: func() checker { return &joinCheck{d: d, lo: lo, hi: hi} }}
}

// rangeStart draws the lower bound of a rangeWidth-wide range inside the
// first limit values of v.
func rangeStart(rng *rand.Rand, limit int) int64 {
	return int64(rng.Intn(limit - rangeWidth + 1))
}

// workloadInput is everything one run of a workload feeds the program.
type workloadInput struct {
	data *dataset
	// seeded is how many rows of data set-up publishes; the rest (if any)
	// is published during the run in publishBatch-row batches.
	seeded int
	// cycles[c] is the fixed operation order client c walks, round-robin.
	cycles [][]op
}

const (
	seedBatch    = 2000 // rows per set-up publish
	publishBatch = 250  // rows per publish of the open-loop writer
	cycleRounds  = 16   // parameter sets per operation class in a cycle
)

// generate builds a workload's inputs from the seed. publishes is the
// number of publishBatch-row batches the run will publish after set-up
// (zero for the read-only workloads).
func generate(name string, seed int64, publishes int) (*workloadInput, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "scan-wide.n3":
		d := newDataset(rng, 100000)
		scan := []op{d.scanOp()}
		return &workloadInput{data: d, seeded: d.n, cycles: [][]op{scan, scan}}, nil

	case "query-mix.n3":
		d := newDataset(rng, 100000)
		var cycle []op
		for r := 0; r < cycleRounds; r++ {
			lo := rangeStart(rng, d.n)
			cycle = append(cycle,
				d.pointOp(rng.Intn(d.n)),
				d.rangeOp("filter", lo, false),
				d.groupOp(),
				d.topkOp(),
				d.joinOp(rangeStart(rng, d.n)),
				d.rangeOp("prov", lo, true))
		}
		// The second client walks the same cycle half a round ahead, so the
		// two are rarely in the same operation class at once.
		return &workloadInput{data: d, seeded: d.n, cycles: [][]op{cycle, rotate(cycle, 3)}}, nil

	case "hot-1k.n3":
		d := newDataset(rng, 5000)
		var cycle []op
		for r := 0; r < cycleRounds; r++ {
			lo := rangeStart(rng, d.n)
			cycle = append(cycle, d.rangeOp("range", lo, false))
		}
		return &workloadInput{data: d, seeded: d.n, cycles: [][]op{cycle, rotate(cycle, cycleRounds/2)}}, nil

	case "publish-mixed.n3":
		const preseeded = 20000
		d := newDataset(rng, preseeded+publishes*publishBatch)
		// The reader cycles eight templates over the relation being
		// published, each round with fresh parameters: ranges drawn from the
		// whole final value space (so answers grow as the writer publishes)
		// and point lookups of keys both seeded and still to come. A cycle
		// outlasts several publishes, so range and point queries reach the
		// engine every time; only the parameterless group-by repeats within
		// an epoch and is served from the view cache.
		var cycle []op
		for r := 0; r < cycleRounds; r++ {
			for t := 0; t < 3; t++ {
				cycle = append(cycle, d.rangeOp("filter", rangeStart(rng, d.n), false), d.pointOp(rng.Intn(d.n)))
			}
			cycle = append(cycle, d.groupOp(), d.groupOp())
		}
		return &workloadInput{data: d, seeded: preseeded, cycles: [][]op{cycle}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func rotate(ops []op, by int) []op {
	out := make([]op, 0, len(ops))
	out = append(out, ops[by:]...)
	return append(out, ops[:by]...)
}
