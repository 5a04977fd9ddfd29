package optimizer

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"orchestra/internal/cluster"
	"orchestra/internal/engine"
	"orchestra/internal/sql"
	"orchestra/internal/tuple"
)

// Info reports what the optimizer decided, for logging and EXPERIMENTS.
type Info struct {
	// Cost is the modeled completion time (seconds) of the chosen plan.
	Cost float64
	// Rows is the estimated result cardinality.
	Rows float64
	// JoinOrder is a textual rendering of the chosen join tree.
	JoinOrder string
	// GroupsExplored counts memo groups materialized during search.
	GroupsExplored int
	// AggMode records the chosen aggregation strategy ("", "partial",
	// "complete").
	AggMode string
}

// Build optimizes a parsed single-block query into a distributed engine
// plan. The search is top-down over table subsets with memoization; within
// each memo group, alternatives are kept per partitioning property and
// dominated candidates are pruned (branch-and-bound at the group level).
// Bushy join trees are considered.
func Build(q *sql.Query, cat Catalog, env Environment) (*engine.Plan, *Info, error) {
	env = env.WithDefaults()
	b, err := bind(q, cat)
	if err != nil {
		return nil, nil, err
	}
	s := &search{b: b, env: env, memo: make(map[uint32]map[string]*candidate)}

	full := uint32(1)<<len(b.tables) - 1
	alts := s.optimize(full)
	best := cheapest(alts)
	if best == nil {
		return nil, nil, fmt.Errorf("optimizer: no plan found")
	}

	info := &Info{
		Cost:           best.cost,
		Rows:           best.rows,
		JoinOrder:      best.order,
		GroupsExplored: len(s.memo),
	}
	plan, err := s.lower(q, best, info)
	if err != nil {
		return nil, nil, err
	}
	if err := plan.Finalize(); err != nil {
		return nil, nil, err
	}
	info.Rows = best.rows
	return plan, info, nil
}

// candidate is one physical alternative for a memo group.
type candidate struct {
	node  engine.Node
	cols  []colID // output layout (base columns, in row order)
	rows  float64
	width float64 // average encoded bytes per row
	cost  float64 // accumulated modeled cost, seconds
	prop  string  // partitioning property ("" = none/unknown)
	order string  // textual join order for Info
}

type search struct {
	b    *binding
	env  Environment
	memo map[uint32]map[string]*candidate
}

func cheapest(alts map[string]*candidate) *candidate {
	var best *candidate
	for _, c := range alts {
		if best == nil || c.cost < best.cost {
			best = c
		}
	}
	return best
}

// optimize returns the non-dominated alternatives (best per partitioning
// property) for the table subset.
func (s *search) optimize(set uint32) map[string]*candidate {
	if alts, ok := s.memo[set]; ok {
		return alts
	}
	alts := make(map[string]*candidate)
	consider := func(c *candidate) {
		if c == nil {
			return
		}
		// Branch-and-bound at the group level: a candidate is kept only if
		// it is the cheapest seen for its partitioning property.
		if cur, ok := alts[c.prop]; ok && cur.cost <= c.cost {
			return
		}
		alts[c.prop] = c
	}

	if popcount(set) == 1 {
		ti := trailingZeros(set)
		consider(s.scanCandidate(ti))
		s.memo[set] = alts
		return alts
	}

	// Enumerate splits (bushy: all subset pairs). Prefer connected splits;
	// fall back to cross joins only when no split is connected.
	type split struct{ l, r uint32 }
	var connected, cross []split
	for l := (set - 1) & set; l > 0; l = (l - 1) & set {
		r := set &^ l
		if l > r {
			continue // each unordered pair once; commutativity handled below
		}
		if len(s.edgesBetween(l, r)) > 0 {
			connected = append(connected, split{l, r})
		} else {
			cross = append(cross, split{l, r})
		}
	}
	splits := connected
	if len(splits) == 0 {
		splits = cross
	}
	for _, sp := range splits {
		lAlts := s.optimize(sp.l)
		rAlts := s.optimize(sp.r)
		edges := s.edgesBetween(sp.l, sp.r)
		for _, lc := range lAlts {
			for _, rc := range rAlts {
				// Join commutativity: both orientations.
				consider(s.joinCandidate(lc, rc, sp.l, edges))
				consider(s.joinCandidate(rc, lc, sp.r, flipEdges(edges)))
			}
		}
	}
	s.memo[set] = alts
	return alts
}

func popcount(x uint32) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func trailingZeros(x uint32) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

// edgesBetween returns the equi-join edges connecting two disjoint subsets,
// oriented left-to-right and ordered canonically by equivalence class.
func (s *search) edgesBetween(l, r uint32) []joinEdge {
	var out []joinEdge
	for _, e := range s.b.joins {
		lBit, rBit := uint32(1)<<e.l.table, uint32(1)<<e.r.table
		switch {
		case l&lBit != 0 && r&rBit != 0:
			out = append(out, e)
		case l&rBit != 0 && r&lBit != 0:
			out = append(out, joinEdge{l: e.r, r: e.l})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return s.b.classOf[out[i].l] < s.b.classOf[out[j].l]
	})
	// Drop duplicate classes (transitively implied equalities) so the hash
	// key is minimal and matches across plans.
	dedup := out[:0]
	seen := map[int]bool{}
	for _, e := range out {
		c := s.b.classOf[e.l]
		if !seen[c] {
			seen[c] = true
			dedup = append(dedup, e)
		}
	}
	return dedup
}

func flipEdges(edges []joinEdge) []joinEdge {
	out := make([]joinEdge, len(edges))
	for i, e := range edges {
		out[i] = joinEdge{l: e.r, r: e.l}
	}
	return out
}

// --- leaf (scan) candidates ---

func (s *search) scanCandidate(ti int) *candidate {
	t := s.b.tables[ti]
	scan := &engine.ScanNode{Relation: t.ref.Table, Pred: s.sargable(ti)}
	rows := float64(t.stats.Rows)
	var cols []colID
	width := 0.0
	var cost float64
	if s.b.keyOnly(ti) {
		// Covering index scan (Table I): only key attributes are needed, so
		// tuple IDs are decoded at the index nodes and the data storage
		// pass is skipped entirely. The output layout is the key columns in
		// key order.
		scan.Covering = true
		for _, k := range t.schema.Key {
			cols = append(cols, colID{table: ti, col: k})
			width += columnWidth(t.schema.Columns[k].Type)
		}
		cost = rows / float64(s.env.Nodes) * s.env.TupleCPU
	} else {
		cols = make([]colID, t.schema.Arity())
		for ci := range cols {
			cols[ci] = colID{table: ti, col: ci}
			width += columnWidth(t.schema.Columns[ci].Type)
		}
		cost = rows / float64(s.env.Nodes) * (s.env.TupleDisk + s.env.TupleCPU)
	}

	var node engine.Node = scan
	if len(s.b.filters[ti]) > 0 {
		pred, err := s.tableFilterExpr(ti, cols)
		if err == nil {
			node = &engine.SelectNode{Pred: pred, Child: node}
			rows *= s.filterSelectivity(ti)
			cost += rows / float64(s.env.Nodes) * s.env.TupleCPU
		}
	}
	keyCols := make([]colID, len(t.schema.Key))
	for i, k := range t.schema.Key {
		keyCols[i] = colID{table: ti, col: k}
	}
	return &candidate{
		node:  node,
		cols:  cols,
		rows:  math.Max(rows, 1),
		width: width,
		cost:  cost,
		prop:  s.b.propOf(keyCols),
		order: t.ref.Name(),
	}
}

// tableFilterExpr conjoins a table's filters over its scan layout.
func (s *search) tableFilterExpr(ti int, cols []colID) (engine.Expr, error) {
	resolve := func(cr sql.ColRef) (int, error) {
		id, err := s.b.lookupColumn(cr)
		if err != nil {
			return 0, err
		}
		for pos, c := range cols {
			if c == id {
				return pos, nil
			}
		}
		return 0, fmt.Errorf("optimizer: column %s not in layout", cr)
	}
	var pred engine.Expr
	for _, f := range s.b.filters[ti] {
		e, err := convertScalar(f, resolve)
		if err != nil {
			return nil, err
		}
		if pred == nil {
			pred = e
		} else {
			pred = engine.B(engine.OpAnd, pred, e)
		}
	}
	return pred, nil
}

// sargable derives index-level key bounds from the table's filters on the
// leading key column. The full predicate is always retained as a residual
// select, so the bounds only need to be a superset of the matching keys;
// with the order-preserving key encoding (type tags 0x01-0x03 < 0xFE) the
// bounds below are in fact exact on the leading column.
func (s *search) sargable(ti int) cluster.KeyPred {
	t := s.b.tables[ti]
	if len(t.schema.Key) == 0 {
		return cluster.AllPred()
	}
	leadName := t.schema.Columns[t.schema.Key[0]].Name
	var pred cluster.KeyPred
	tightenLo := func(b []byte) {
		if pred.Lo == nil || string(b) > string(pred.Lo) {
			pred.Lo = b
		}
	}
	tightenHi := func(b []byte) {
		if pred.Hi == nil || string(b) < string(pred.Hi) {
			pred.Hi = b
		}
	}
	enc := func(e sql.Expr) ([]byte, bool) {
		v, ok := literalValue(e)
		if !ok {
			return nil, false
		}
		return tuple.AppendKeyValue(nil, v), true
	}
	for _, f := range s.b.filters[ti] {
		switch e := f.(type) {
		case sql.BinExpr:
			cr, ok := e.L.(sql.ColRef)
			if !ok || cr.Column != leadName {
				continue
			}
			b, ok := enc(e.R)
			if !ok {
				continue
			}
			switch e.Op {
			case sql.OpEq:
				tightenLo(b)
				tightenHi(append(append([]byte(nil), b...), 0xFE))
			case sql.OpGe:
				tightenLo(b)
			case sql.OpGt:
				tightenLo(append(append([]byte(nil), b...), 0xFE))
			case sql.OpLt:
				tightenHi(b)
			case sql.OpLe:
				tightenHi(append(append([]byte(nil), b...), 0xFE))
			}
		case sql.BetweenExpr:
			cr, ok := e.E.(sql.ColRef)
			if !ok || cr.Column != leadName {
				continue
			}
			if b, ok := enc(e.Lo); ok {
				tightenLo(b)
			}
			if b, ok := enc(e.Hi); ok {
				tightenHi(append(append([]byte(nil), b...), 0xFE))
			}
		}
	}
	return pred
}

func literalValue(e sql.Expr) (tuple.Value, bool) {
	switch t := e.(type) {
	case sql.IntLit:
		return tuple.I(t.V), true
	case sql.FloatLit:
		return tuple.F(t.V), true
	case sql.StringLit:
		return tuple.S(t.V), true
	}
	return tuple.Value{}, false
}

// filterSelectivity estimates the combined selectivity of a table's
// filters with standard heuristics.
func (s *search) filterSelectivity(ti int) float64 {
	sel := 1.0
	for _, f := range s.b.filters[ti] {
		sel *= conjunctSelectivity(f, s, ti)
	}
	return sel
}

func conjunctSelectivity(e sql.Expr, s *search, ti int) float64 {
	switch t := e.(type) {
	case sql.BinExpr:
		switch t.Op {
		case sql.OpEq:
			if cr, ok := t.L.(sql.ColRef); ok {
				return 1 / math.Max(1, float64(s.distinctOf(ti, cr.Column)))
			}
			return 0.1
		case sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
			return 1.0 / 3
		case sql.OpNe:
			return 0.9
		case sql.OpOr:
			a := conjunctSelectivity(t.L, s, ti)
			b := conjunctSelectivity(t.R, s, ti)
			return math.Min(1, a+b)
		case sql.OpAnd:
			return conjunctSelectivity(t.L, s, ti) * conjunctSelectivity(t.R, s, ti)
		}
		return 0.5
	case sql.BetweenExpr:
		return 1.0 / 4
	case sql.NotExpr:
		return 1 - conjunctSelectivity(t.E, s, ti)
	default:
		return 0.5
	}
}

// distinctOf estimates a column's distinct count.
func (s *search) distinctOf(ti int, column string) int64 {
	t := s.b.tables[ti]
	if d, ok := t.stats.Distinct[column]; ok && d > 0 {
		return d
	}
	for i, k := range t.schema.Key {
		if i == 0 && t.schema.Columns[k].Name == column && len(t.schema.Key) == 1 {
			return t.stats.Rows // single-column key is unique
		}
	}
	d := t.stats.Rows / 10
	if d < 1 {
		d = 1
	}
	return d
}

// --- join candidates ---

// joinCandidate builds left ⋈ right with rehash enforcers as needed.
func (s *search) joinCandidate(lc, rc *candidate, _ uint32, edges []joinEdge) *candidate {
	if len(edges) == 0 {
		// Cross join: rehash right to a single synthetic key is not
		// supported; broadcast semantics are out of scope, so evaluate as
		// a join on a constant key by rehashing both sides on no columns.
		return nil
	}
	leftIDs := make([]colID, len(edges))
	rightIDs := make([]colID, len(edges))
	for i, e := range edges {
		leftIDs[i], rightIDs[i] = e.l, e.r
	}
	targetProp := s.b.propOf(leftIDs)

	leftKeys, err := positionsOf(lc.cols, leftIDs)
	if err != nil {
		return nil
	}
	rightKeys, err := positionsOf(rc.cols, rightIDs)
	if err != nil {
		return nil
	}

	cost := lc.cost + rc.cost
	lNode, lCost := s.enforce(lc, leftKeys, targetProp)
	rNode, rCost := s.enforce(rc, rightKeys, targetProp)
	cost += lCost + rCost

	outRows := s.joinCardinality(lc, rc, edges)
	n := float64(s.env.Nodes)
	cost += (lc.rows+rc.rows)/n*s.env.TupleCPU + outRows/n*s.env.TupleCPU

	return &candidate{
		node: &engine.JoinNode{
			LeftKeys:  leftKeys,
			RightKeys: rightKeys,
			Left:      lNode,
			Right:     rNode,
		},
		cols:  append(append([]colID(nil), lc.cols...), rc.cols...),
		rows:  math.Max(outRows, 1),
		width: lc.width + rc.width,
		cost:  cost,
		prop:  targetProp,
		order: "(" + lc.order + " ⋈ " + rc.order + ")",
	}
}

// enforce inserts a rehash when the candidate is not already partitioned
// compatibly (the enforcer of the Volcano framework).
func (s *search) enforce(c *candidate, keys []int, targetProp string) (engine.Node, float64) {
	if c.prop == targetProp {
		return c.node, 0 // colocated: no data movement
	}
	n := float64(s.env.Nodes)
	cost := c.rows/n*s.env.TupleCPU*2 + (c.rows/n)*c.width/s.env.LinkBytesPerSec
	return &engine.RehashNode{Keys: keys, Child: c.node}, cost
}

func positionsOf(layout []colID, ids []colID) ([]int, error) {
	out := make([]int, len(ids))
	for i, id := range ids {
		found := -1
		for pos, c := range layout {
			if c == id {
				found = pos
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("optimizer: column not in layout")
		}
		out[i] = found
	}
	return out, nil
}

// joinCardinality estimates |L ⋈ R| with the standard distinct-value model.
func (s *search) joinCardinality(lc, rc *candidate, edges []joinEdge) float64 {
	out := lc.rows * rc.rows
	for _, e := range edges {
		dl := float64(s.distinctOf(e.l.table, s.colName(e.l)))
		dr := float64(s.distinctOf(e.r.table, s.colName(e.r)))
		out /= math.Max(1, math.Max(dl, dr))
	}
	return math.Max(out, 1)
}

func (s *search) colName(c colID) string {
	return s.b.tables[c.table].schema.Columns[c.col].Name
}

// --- lowering of the post-join pipeline ---

// lower attaches cross-table residual filters, projections or aggregation,
// and the initiator-side final operators to the chosen join tree.
func (s *search) lower(q *sql.Query, best *candidate, info *Info) (*engine.Plan, error) {
	node := best.node
	cols := best.cols
	resolve := func(cr sql.ColRef) (int, error) {
		id, err := s.b.lookupColumn(cr)
		if err != nil {
			return 0, err
		}
		for pos, c := range cols {
			if c == id {
				return pos, nil
			}
		}
		return 0, fmt.Errorf("optimizer: column %s not available", cr)
	}

	// Residual cross-table predicates.
	for _, e := range s.b.cross {
		pred, err := convertScalar(e, resolve)
		if err != nil {
			return nil, err
		}
		node = &engine.SelectNode{Pred: pred, Child: node}
	}

	hasAgg := len(q.GroupBy) > 0
	for _, item := range q.Select {
		if !item.Star && sql.ContainsAggregate(item.Expr) {
			hasAgg = true
		}
	}

	var plan *engine.Plan
	var err error
	if hasAgg {
		plan, err = s.lowerAggregate(q, node, cols, best, resolve, info)
	} else {
		plan, err = s.lowerProjection(q, node, cols, resolve)
	}
	if err != nil {
		return nil, err
	}
	return plan, nil
}

// outputName returns the visible name of a select item for ORDER BY
// resolution.
func outputName(item sql.SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	if cr, ok := item.Expr.(sql.ColRef); ok {
		return cr.Column
	}
	return ""
}

// resolveOrderBy maps ORDER BY expressions onto output column positions.
func resolveOrderBy(q *sql.Query, outNames []string, outExprs []string) ([]engine.SortKey, error) {
	var keys []engine.SortKey
	for _, o := range q.OrderBy {
		pos := -1
		if cr, ok := o.Expr.(sql.ColRef); ok && cr.Table == "" {
			for i, n := range outNames {
				if n == cr.Column {
					pos = i
					break
				}
			}
		}
		if pos < 0 {
			want := o.Expr.String()
			for i, e := range outExprs {
				if e == want {
					pos = i
					break
				}
			}
		}
		if pos < 0 {
			return nil, fmt.Errorf("optimizer: ORDER BY %s does not name an output column", o.Expr)
		}
		keys = append(keys, engine.SortKey{Col: pos, Desc: o.Desc})
	}
	return keys, nil
}

// lowerProjection handles aggregate-free queries: compute or project the
// select list at the nodes, then final sort/limit at the initiator.
func (s *search) lowerProjection(q *sql.Query, node engine.Node, cols []colID, resolve func(sql.ColRef) (int, error)) (*engine.Plan, error) {
	var outNames, outExprs []string
	var exprs []engine.Expr
	allPlain := true
	var plainCols []int
	for _, item := range q.Select {
		if item.Star {
			for pos, c := range cols {
				exprs = append(exprs, engine.C(pos))
				plainCols = append(plainCols, pos)
				outNames = append(outNames, s.colName(c))
				outExprs = append(outExprs, s.colName(c))
			}
			continue
		}
		e, err := convertScalar(item.Expr, resolve)
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, e)
		if c, ok := e.(engine.Col); ok {
			plainCols = append(plainCols, c.Idx)
		} else {
			allPlain = false
		}
		outNames = append(outNames, outputName(item))
		outExprs = append(outExprs, item.Expr.String())
	}

	identity := allPlain && len(plainCols) == len(cols)
	if identity {
		for i, p := range plainCols {
			if p != i {
				identity = false
				break
			}
		}
	}
	switch {
	case identity:
		// SELECT * (or the full layout in order): no operator needed.
	case allPlain:
		node = &engine.ProjectNode{Cols: plainCols, Child: node}
	default:
		node = &engine.ComputeNode{Exprs: exprs, Child: node}
	}

	plan := &engine.Plan{Root: node}
	sortKeys, err := resolveOrderBy(q, outNames, outExprs)
	if err != nil {
		return nil, err
	}
	if len(sortKeys) > 0 {
		plan.Final = append(plan.Final, &engine.FinalSort{Keys: sortKeys})
	}
	if q.Limit >= 0 {
		plan.Final = append(plan.Final, &engine.FinalLimit{N: q.Limit})
	}
	return plan, nil
}

// aggRef is one distinct aggregate application found in the select list.
type aggRef struct {
	fn  string
	arg sql.Expr // nil for COUNT(*)
	key string   // canonical text for dedup
}

// lowerAggregate handles grouping queries. The input is first narrowed by
// a compute to exactly [group columns..., aggregate arguments...]; then
// either per-node partial aggregation with a final merge at the initiator,
// or a rehash on the grouping key followed by complete aggregation —
// whichever the cost model prefers (the rehash is skipped when the input
// is already partitioned on the grouping key).
func (s *search) lowerAggregate(q *sql.Query, node engine.Node, cols []colID, best *candidate, resolve func(sql.ColRef) (int, error), info *Info) (*engine.Plan, error) {
	// Group-by expressions must be plain columns (engine restriction).
	groupIDs := make([]colID, len(q.GroupBy))
	groupExprs := make([]engine.Expr, len(q.GroupBy))
	for i, g := range q.GroupBy {
		cr, ok := g.(sql.ColRef)
		if !ok {
			return nil, fmt.Errorf("optimizer: GROUP BY must reference columns, got %s", g)
		}
		id, err := s.b.lookupColumn(cr)
		if err != nil {
			return nil, err
		}
		groupIDs[i] = id
		pos, err := resolve(cr)
		if err != nil {
			return nil, err
		}
		groupExprs[i] = engine.C(pos)
	}

	// Collect distinct aggregates from the select list.
	var aggs []aggRef
	aggPos := map[string]int{}
	collect := func(e sql.Expr) error {
		var walk func(sql.Expr) error
		walk = func(e sql.Expr) error {
			switch t := e.(type) {
			case sql.AggExpr:
				key := t.String()
				if _, ok := aggPos[key]; !ok {
					aggPos[key] = len(aggs)
					aggs = append(aggs, aggRef{fn: t.Func, arg: t.Arg, key: key})
				}
			case sql.BinExpr:
				if err := walk(t.L); err != nil {
					return err
				}
				return walk(t.R)
			case sql.NotExpr:
				return walk(t.E)
			case sql.BetweenExpr:
				if err := walk(t.E); err != nil {
					return err
				}
				if err := walk(t.Lo); err != nil {
					return err
				}
				return walk(t.Hi)
			}
			return nil
		}
		return walk(e)
	}
	for _, item := range q.Select {
		if item.Star {
			return nil, fmt.Errorf("optimizer: SELECT * cannot be combined with aggregation")
		}
		if err := collect(item.Expr); err != nil {
			return nil, err
		}
	}

	// Pre-aggregation compute: [groups..., agg args...]. COUNT(*) needs no
	// input column; a constant placeholder keeps positions aligned.
	pre := append([]engine.Expr(nil), groupExprs...)
	specs := make([]engine.AggSpec, len(aggs))
	for i, a := range aggs {
		col := len(pre)
		if a.arg == nil {
			specs[i] = engine.AggSpec{Func: engine.AggCount, Col: -1}
			pre = append(pre, engine.CI(1))
			continue
		}
		e, err := convertScalar(a.arg, resolve)
		if err != nil {
			return nil, err
		}
		pre = append(pre, e)
		fn, ok := map[string]engine.AggFunc{
			"COUNT": engine.AggCount, "SUM": engine.AggSum,
			"MIN": engine.AggMin, "MAX": engine.AggMax, "AVG": engine.AggAvg,
		}[a.fn]
		if !ok {
			return nil, fmt.Errorf("optimizer: unknown aggregate %s", a.fn)
		}
		specs[i] = engine.AggSpec{Func: fn, Col: col}
	}
	node = &engine.ComputeNode{Exprs: pre, Child: node}
	groupPos := make([]int, len(groupExprs))
	for i := range groupPos {
		groupPos[i] = i
	}

	// Cost the two strategies.
	n := float64(s.env.Nodes)
	groups := 1.0
	for _, id := range groupIDs {
		groups *= float64(s.distinctOf(id.table, s.colName(id)))
	}
	groups = math.Min(math.Max(groups, 1), best.rows)
	outWidth := float64(len(pre)) * 10
	partialRows := math.Min(groups*n, best.rows)
	partialCost := best.rows/n*s.env.TupleCPU +
		partialRows*outWidth/s.env.InitiatorBytesPerSec +
		partialRows*s.env.TupleCPU
	completeCost := best.rows/n*s.env.TupleCPU +
		groups*outWidth/s.env.InitiatorBytesPerSec
	alreadyPartitioned := len(groupIDs) > 0 && best.prop == s.b.propOf(groupIDs)
	if !alreadyPartitioned {
		completeCost += best.rows/n*s.env.TupleCPU*2 + (best.rows/n)*best.width/s.env.LinkBytesPerSec
	}

	plan := &engine.Plan{}
	if len(groupExprs) > 0 && completeCost < partialCost {
		info.AggMode = "complete"
		info.Cost += completeCost
		if !alreadyPartitioned {
			node = &engine.RehashNode{Keys: groupPos, Child: node}
		}
		plan.Root = &engine.AggNode{
			GroupCols: groupPos,
			Aggs:      specs,
			Mode:      engine.AggComplete,
			Child:     node,
		}
	} else {
		info.AggMode = "partial"
		info.Cost += partialCost
		plan.Root = &engine.AggNode{
			GroupCols: groupPos,
			Aggs:      specs,
			Mode:      engine.AggPartial,
			Child:     node,
		}
		plan.Final = append(plan.Final, &engine.FinalAgg{GroupCols: groupPos, Aggs: specs})
	}

	// Post-aggregation output: rows are [groups..., agg results...]. Remap
	// the select list over that layout; skip the compute when the select
	// list is exactly the layout.
	aggResolve := func(cr sql.ColRef) (int, error) {
		id, err := s.b.lookupColumn(cr)
		if err != nil {
			return 0, err
		}
		for i, g := range groupIDs {
			if g == id {
				return i, nil
			}
		}
		return 0, fmt.Errorf("optimizer: %s is neither grouped nor aggregated", cr)
	}
	var finalExprs []engine.Expr
	var outNames, outExprs []string
	identity := len(q.Select) == len(groupExprs)+len(specs)
	for i, item := range q.Select {
		e, err := convertAggExpr(item.Expr, aggResolve, aggPos, len(groupExprs))
		if err != nil {
			return nil, err
		}
		finalExprs = append(finalExprs, e)
		if c, ok := e.(engine.Col); !ok || c.Idx != i {
			identity = false
		}
		outNames = append(outNames, outputName(item))
		outExprs = append(outExprs, item.Expr.String())
	}
	if !identity {
		plan.Final = append(plan.Final, &engine.FinalCompute{Exprs: finalExprs})
	}

	sortKeys, err := resolveOrderBy(q, outNames, outExprs)
	if err != nil {
		return nil, err
	}
	if len(sortKeys) > 0 {
		plan.Final = append(plan.Final, &engine.FinalSort{Keys: sortKeys})
	}
	if q.Limit >= 0 {
		plan.Final = append(plan.Final, &engine.FinalLimit{N: q.Limit})
	}
	return plan, nil
}

// convertAggExpr lowers a select expression over the aggregate output
// layout: group columns resolve through aggResolve, aggregate applications
// resolve to their result positions.
func convertAggExpr(e sql.Expr, aggResolve func(sql.ColRef) (int, error), aggPos map[string]int, nGroups int) (engine.Expr, error) {
	switch t := e.(type) {
	case sql.AggExpr:
		pos, ok := aggPos[t.String()]
		if !ok {
			return nil, fmt.Errorf("optimizer: aggregate %s not collected", t)
		}
		return engine.C(nGroups + pos), nil
	case sql.ColRef:
		pos, err := aggResolve(t)
		if err != nil {
			return nil, err
		}
		return engine.C(pos), nil
	case sql.IntLit:
		return engine.CI(t.V), nil
	case sql.FloatLit:
		return engine.CF(t.V), nil
	case sql.StringLit:
		return engine.CS(t.V), nil
	case sql.NotExpr:
		inner, err := convertAggExpr(t.E, aggResolve, aggPos, nGroups)
		if err != nil {
			return nil, err
		}
		return engine.Not{E: inner}, nil
	case sql.BinExpr:
		l, err := convertAggExpr(t.L, aggResolve, aggPos, nGroups)
		if err != nil {
			return nil, err
		}
		r, err := convertAggExpr(t.R, aggResolve, aggPos, nGroups)
		if err != nil {
			return nil, err
		}
		op, ok := binOps[t.Op]
		if !ok {
			return nil, fmt.Errorf("optimizer: unsupported operator %q", t.Op)
		}
		return engine.B(op, l, r), nil
	default:
		return nil, fmt.Errorf("optimizer: unsupported expression %T after aggregation", e)
	}
}

// Explain renders the chosen plan and estimates for humans. ship names
// the engine's final-pipeline pushdown class for the plan ("stream",
// "stream(relay)", "top-k", "partial-agg", or "collect") — how the answer
// will reach the initiator when the query runs without provenance.
func Explain(p *engine.Plan, info *Info) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cost=%.6fs rows=%.0f order=%s", info.Cost, info.Rows, info.JoinOrder)
	if info.AggMode != "" {
		fmt.Fprintf(&b, " agg=%s", info.AggMode)
	}
	fmt.Fprintf(&b, " ship=%s", engine.PushdownClass(p))
	b.WriteString("\n")
	b.WriteString(p.String())
	return b.String()
}
