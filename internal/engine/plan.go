package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"orchestra/internal/cluster"
)

// Plan is a distributed query plan: a tree of operators replicated on every
// snapshot node (the distributed fragment, implicitly topped by a ship
// operator) plus the final processing performed at the query initiator
// (§V-B: "All data is ultimately collected at the query initiator node,
// which may do final processing, such as the last stage of aggregation, or
// a final sort").
type Plan struct {
	Root  Node
	Final []FinalOp

	ops int // scans and rehashes numbered by Finalize
}

// Node is one operator of the distributed fragment.
type Node interface {
	Children() []Node
	append(dst []byte) []byte
	String() string
}

// node kind tags for serialization.
const (
	nodeScan    = byte(1)
	nodeSelect  = byte(2)
	nodeProject = byte(3)
	nodeCompute = byte(4)
	nodeJoin    = byte(5)
	nodeAgg     = byte(6)
	nodeRehash  = byte(7)
)

// ScanNode reads a relation at the query's snapshot epoch. With Covering
// set, only key attributes are produced, read directly from the index pages
// without touching the data storage nodes (Table I, covering index scan).
type ScanNode struct {
	Relation string
	Pred     cluster.KeyPred // sargable predicate pushed to index nodes
	Covering bool
	ScanID   int // assigned by Finalize
}

// Children returns no children (leaf).
func (s *ScanNode) Children() []Node { return nil }

func (s *ScanNode) String() string {
	kind := "DistributedScan"
	if s.Covering {
		kind = "CoveringIndexScan"
	}
	return fmt.Sprintf("%s(%s)", kind, s.Relation)
}

// SelectNode filters rows by a boolean expression (Table I, select).
type SelectNode struct {
	Pred  Expr
	Child Node
}

// Children returns the single input.
func (s *SelectNode) Children() []Node { return []Node{s.Child} }

func (s *SelectNode) String() string { return fmt.Sprintf("Select(%s)", s.Pred) }

// ProjectNode keeps the listed columns in order (Table I, project).
type ProjectNode struct {
	Cols  []int
	Child Node
}

// Children returns the single input.
func (p *ProjectNode) Children() []Node { return []Node{p.Child} }

func (p *ProjectNode) String() string { return fmt.Sprintf("Project(%v)", p.Cols) }

// ComputeNode evaluates scalar expressions; its output row is exactly the
// expression results (Table I, compute-function).
type ComputeNode struct {
	Exprs []Expr
	Child Node
}

// Children returns the single input.
func (c *ComputeNode) Children() []Node { return []Node{c.Child} }

func (c *ComputeNode) String() string { return fmt.Sprintf("Compute(%s)", exprsString(c.Exprs)) }

// JoinNode is a pipelined (symmetric) hash join on positional key columns
// (Table I, join). Inputs must already be co-partitioned on the join key —
// the planner inserts RehashNodes to enforce this.
type JoinNode struct {
	LeftKeys  []int
	RightKeys []int
	Left      Node
	Right     Node
}

// Children returns both inputs.
func (j *JoinNode) Children() []Node { return []Node{j.Left, j.Right} }

func (j *JoinNode) String() string {
	return fmt.Sprintf("Join(L%v = R%v)", j.LeftKeys, j.RightKeys)
}

// AggMode selects how an aggregate participates in a multi-stage plan.
type AggMode uint8

const (
	// AggComplete computes final aggregates directly (input already
	// partitioned on the grouping key).
	AggComplete AggMode = iota + 1
	// AggPartial computes per-node partial states to be re-aggregated.
	AggPartial
)

// AggFunc enumerates aggregate functions.
type AggFunc uint8

const (
	AggCount AggFunc = iota + 1
	AggSum
	AggMin
	AggMax
	AggAvg
)

func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggAvg:
		return "AVG"
	default:
		return fmt.Sprintf("agg(%d)", uint8(f))
	}
}

// AggSpec is one aggregate computation; Col is the input column (-1 for
// COUNT(*)).
type AggSpec struct {
	Func AggFunc
	Col  int
}

// AggNode is the blocking hash-based grouping operator, which "supports
// re-aggregation of partially aggregated intermediate results" (Table I).
type AggNode struct {
	GroupCols []int
	Aggs      []AggSpec
	Mode      AggMode
	Child     Node
}

// Children returns the single input.
func (a *AggNode) Children() []Node { return []Node{a.Child} }

func (a *AggNode) String() string {
	mode := "complete"
	if a.Mode == AggPartial {
		mode = "partial"
	}
	specs := make([]string, len(a.Aggs))
	for i, s := range a.Aggs {
		specs[i] = fmt.Sprintf("%s($%d)", s.Func, s.Col)
	}
	return fmt.Sprintf("Aggregate[%s](group %v; %s)", mode, a.GroupCols, strings.Join(specs, ", "))
}

// RehashNode repartitions its input across the snapshot nodes by hashing
// the key columns (Table I, rehash) — the exchange boundary of the plan.
type RehashNode struct {
	Keys   []int
	ExchID int // assigned by Finalize
	Child  Node
}

// Children returns the single input.
func (r *RehashNode) Children() []Node { return []Node{r.Child} }

func (r *RehashNode) String() string { return fmt.Sprintf("Rehash(%v)", r.Keys) }

// --- final (initiator-side) operators ---

// FinalOp processes collected rows at the initiator.
type FinalOp interface {
	appendFinal(dst []byte) []byte
	String() string
}

const (
	finalAgg     = byte(1)
	finalSort    = byte(2)
	finalCompute = byte(3)
	finalLimit   = byte(4)
)

// FinalAgg merges partial aggregate states shipped by the nodes (the last
// stage of aggregation at the initiator).
type FinalAgg struct {
	GroupCols []int
	Aggs      []AggSpec
}

func (f *FinalAgg) String() string { return fmt.Sprintf("FinalAgg(group %v)", f.GroupCols) }

// SortKey orders by a column, optionally descending.
type SortKey struct {
	Col  int
	Desc bool
}

// FinalSort orders the collected rows.
type FinalSort struct {
	Keys []SortKey
}

func (f *FinalSort) String() string { return fmt.Sprintf("FinalSort(%v)", f.Keys) }

// FinalCompute maps rows through scalar expressions.
type FinalCompute struct {
	Exprs []Expr
}

func (f *FinalCompute) String() string { return fmt.Sprintf("FinalCompute(%s)", exprsString(f.Exprs)) }

// FinalLimit truncates the result.
type FinalLimit struct {
	N int
}

func (f *FinalLimit) String() string { return fmt.Sprintf("FinalLimit(%d)", f.N) }

// --- plan assembly ---

// Finalize assigns scan and exchange identifiers and validates the tree.
// Both kinds draw from one sequence, so an identifier names one operator of
// the plan — which is what lets a phase marker address either kind. It must
// be called once before execution or serialization.
func (p *Plan) Finalize() error {
	p.ops = 0
	return p.walkAssign(p.Root)
}

func (p *Plan) walkAssign(n Node) error {
	if n == nil {
		return errors.New("engine: nil plan node")
	}
	switch t := n.(type) {
	case *ScanNode:
		if t.Relation == "" {
			return errors.New("engine: scan of empty relation name")
		}
		t.ScanID = p.ops
		p.ops++
	case *RehashNode:
		if len(t.Keys) == 0 {
			return errors.New("engine: rehash without keys")
		}
		t.ExchID = p.ops
		p.ops++
	case *JoinNode:
		if len(t.LeftKeys) == 0 || len(t.LeftKeys) != len(t.RightKeys) {
			return errors.New("engine: join key arity mismatch")
		}
	case *AggNode:
		if t.Mode != AggComplete && t.Mode != AggPartial {
			return errors.New("engine: aggregate without mode")
		}
	}
	for _, c := range n.Children() {
		if err := p.walkAssign(c); err != nil {
			return err
		}
	}
	return nil
}

// Relations returns the distinct relation names scanned by the plan.
func (p *Plan) Relations() []string {
	seen := map[string]bool{}
	var out []string
	var walk func(Node)
	walk = func(n Node) {
		if s, ok := n.(*ScanNode); ok && !seen[s.Relation] {
			seen[s.Relation] = true
			out = append(out, s.Relation)
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(p.Root)
	return out
}

func (p *Plan) String() string {
	var b strings.Builder
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.String())
		b.WriteString("\n")
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(p.Root, 0)
	for _, f := range p.Final {
		fmt.Fprintf(&b, "final: %s\n", f)
	}
	return b.String()
}

// --- serialization ---

func appendInts(dst []byte, xs []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(xs)))
	for _, x := range xs {
		dst = binary.AppendVarint(dst, int64(x))
	}
	return dst
}

func decodeInts(data []byte) ([]int, int, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 || count > 1<<16 {
		return nil, 0, errors.New("engine: bad int list")
	}
	off := n
	out := make([]int, count)
	for i := range out {
		v, m := binary.Varint(data[off:])
		if m <= 0 {
			return nil, 0, errors.New("engine: bad int")
		}
		out[i] = int(v)
		off += m
	}
	return out, off, nil
}

func appendBytesField(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// readBytesField reads a length-prefixed field, returning it and the bytes
// consumed.
func readBytesField(data []byte) ([]byte, int, error) {
	l, n := binary.Uvarint(data)
	if n <= 0 || l > uint64(len(data)-n) {
		return nil, 0, errors.New("engine: truncated bytes field")
	}
	return data[n : n+int(l)], n + int(l), nil
}

func (s *ScanNode) append(dst []byte) []byte {
	dst = append(dst, nodeScan)
	dst = appendBytesField(dst, []byte(s.Relation))
	dst = appendBytesField(dst, s.Pred.Lo)
	dst = appendBytesField(dst, s.Pred.Hi)
	if s.Covering {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return binary.AppendUvarint(dst, uint64(s.ScanID))
}

func (s *SelectNode) append(dst []byte) []byte {
	dst = append(dst, nodeSelect)
	dst = s.Pred.append(dst)
	return s.Child.append(dst)
}

func (p *ProjectNode) append(dst []byte) []byte {
	dst = append(dst, nodeProject)
	dst = appendInts(dst, p.Cols)
	return p.Child.append(dst)
}

func (c *ComputeNode) append(dst []byte) []byte {
	dst = append(dst, nodeCompute)
	dst = encodeExprs(dst, c.Exprs)
	return c.Child.append(dst)
}

func (j *JoinNode) append(dst []byte) []byte {
	dst = append(dst, nodeJoin)
	dst = appendInts(dst, j.LeftKeys)
	dst = appendInts(dst, j.RightKeys)
	dst = j.Left.append(dst)
	return j.Right.append(dst)
}

func (a *AggNode) append(dst []byte) []byte {
	dst = append(dst, nodeAgg, byte(a.Mode))
	dst = appendInts(dst, a.GroupCols)
	dst = binary.AppendUvarint(dst, uint64(len(a.Aggs)))
	for _, s := range a.Aggs {
		dst = append(dst, byte(s.Func))
		dst = binary.AppendVarint(dst, int64(s.Col))
	}
	return a.Child.append(dst)
}

func (r *RehashNode) append(dst []byte) []byte {
	dst = append(dst, nodeRehash)
	dst = appendInts(dst, r.Keys)
	dst = binary.AppendUvarint(dst, uint64(r.ExchID))
	return r.Child.append(dst)
}

func decodeNode(data []byte) (Node, int, error) {
	if len(data) == 0 {
		return nil, 0, errors.New("engine: empty node")
	}
	switch data[0] {
	case nodeScan:
		off := 1
		rel, n, err := readBytesField(data[off:])
		if err != nil {
			return nil, 0, err
		}
		off += n
		lo, n, err := readBytesField(data[off:])
		if err != nil {
			return nil, 0, err
		}
		off += n
		hi, n, err := readBytesField(data[off:])
		if err != nil {
			return nil, 0, err
		}
		off += n
		if off >= len(data) {
			return nil, 0, errors.New("engine: truncated scan")
		}
		covering := data[off] == 1
		off++
		id, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return nil, 0, errors.New("engine: bad scan id")
		}
		off += n
		s := &ScanNode{Relation: string(rel), Covering: covering, ScanID: int(id)}
		if len(lo) > 0 {
			s.Pred.Lo = append([]byte(nil), lo...)
		}
		if len(hi) > 0 {
			s.Pred.Hi = append([]byte(nil), hi...)
		}
		return s, off, nil
	case nodeSelect:
		pred, n, err := DecodeExpr(data[1:])
		if err != nil {
			return nil, 0, err
		}
		child, m, err := decodeNode(data[1+n:])
		if err != nil {
			return nil, 0, err
		}
		return &SelectNode{Pred: pred, Child: child}, 1 + n + m, nil
	case nodeProject:
		cols, n, err := decodeInts(data[1:])
		if err != nil {
			return nil, 0, err
		}
		child, m, err := decodeNode(data[1+n:])
		if err != nil {
			return nil, 0, err
		}
		return &ProjectNode{Cols: cols, Child: child}, 1 + n + m, nil
	case nodeCompute:
		exprs, n, err := decodeExprs(data[1:])
		if err != nil {
			return nil, 0, err
		}
		child, m, err := decodeNode(data[1+n:])
		if err != nil {
			return nil, 0, err
		}
		return &ComputeNode{Exprs: exprs, Child: child}, 1 + n + m, nil
	case nodeJoin:
		off := 1
		lk, n, err := decodeInts(data[off:])
		if err != nil {
			return nil, 0, err
		}
		off += n
		rk, n, err := decodeInts(data[off:])
		if err != nil {
			return nil, 0, err
		}
		off += n
		left, n, err := decodeNode(data[off:])
		if err != nil {
			return nil, 0, err
		}
		off += n
		right, n, err := decodeNode(data[off:])
		if err != nil {
			return nil, 0, err
		}
		off += n
		return &JoinNode{LeftKeys: lk, RightKeys: rk, Left: left, Right: right}, off, nil
	case nodeAgg:
		if len(data) < 2 {
			return nil, 0, errors.New("engine: truncated agg")
		}
		mode := AggMode(data[1])
		off := 2
		groups, n, err := decodeInts(data[off:])
		if err != nil {
			return nil, 0, err
		}
		off += n
		count, n := binary.Uvarint(data[off:])
		if n <= 0 || count > 1<<12 {
			return nil, 0, errors.New("engine: bad agg spec count")
		}
		off += n
		specs := make([]AggSpec, count)
		for i := range specs {
			if off >= len(data) {
				return nil, 0, errors.New("engine: truncated agg spec")
			}
			specs[i].Func = AggFunc(data[off])
			off++
			v, m := binary.Varint(data[off:])
			if m <= 0 {
				return nil, 0, errors.New("engine: bad agg col")
			}
			specs[i].Col = int(v)
			off += m
		}
		child, m, err := decodeNode(data[off:])
		if err != nil {
			return nil, 0, err
		}
		return &AggNode{GroupCols: groups, Aggs: specs, Mode: mode, Child: child}, off + m, nil
	case nodeRehash:
		cols, n, err := decodeInts(data[1:])
		if err != nil {
			return nil, 0, err
		}
		off := 1 + n
		id, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return nil, 0, errors.New("engine: bad exch id")
		}
		off += n
		child, m, err := decodeNode(data[off:])
		if err != nil {
			return nil, 0, err
		}
		return &RehashNode{Keys: cols, ExchID: int(id), Child: child}, off + m, nil
	default:
		return nil, 0, fmt.Errorf("engine: unknown node tag %d", data[0])
	}
}

func (f *FinalAgg) appendFinal(dst []byte) []byte {
	dst = append(dst, finalAgg)
	dst = appendInts(dst, f.GroupCols)
	dst = binary.AppendUvarint(dst, uint64(len(f.Aggs)))
	for _, s := range f.Aggs {
		dst = append(dst, byte(s.Func))
		dst = binary.AppendVarint(dst, int64(s.Col))
	}
	return dst
}

func (f *FinalSort) appendFinal(dst []byte) []byte {
	dst = append(dst, finalSort)
	dst = binary.AppendUvarint(dst, uint64(len(f.Keys)))
	for _, k := range f.Keys {
		dst = binary.AppendUvarint(dst, uint64(k.Col))
		if k.Desc {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

func (f *FinalCompute) appendFinal(dst []byte) []byte {
	dst = append(dst, finalCompute)
	return encodeExprs(dst, f.Exprs)
}

func (f *FinalLimit) appendFinal(dst []byte) []byte {
	dst = append(dst, finalLimit)
	return binary.AppendUvarint(dst, uint64(f.N))
}

func decodeFinalOp(data []byte) (FinalOp, int, error) {
	if len(data) == 0 {
		return nil, 0, errors.New("engine: empty final op")
	}
	switch data[0] {
	case finalAgg:
		groups, n, err := decodeInts(data[1:])
		if err != nil {
			return nil, 0, err
		}
		off := 1 + n
		count, n := binary.Uvarint(data[off:])
		if n <= 0 || count > 1<<12 {
			return nil, 0, errors.New("engine: bad final agg count")
		}
		off += n
		specs := make([]AggSpec, count)
		for i := range specs {
			if off >= len(data) {
				return nil, 0, errors.New("engine: truncated final agg")
			}
			specs[i].Func = AggFunc(data[off])
			off++
			v, m := binary.Varint(data[off:])
			if m <= 0 {
				return nil, 0, errors.New("engine: bad final agg col")
			}
			specs[i].Col = int(v)
			off += m
		}
		return &FinalAgg{GroupCols: groups, Aggs: specs}, off, nil
	case finalSort:
		count, n := binary.Uvarint(data[1:])
		if n <= 0 || count > 1<<12 {
			return nil, 0, errors.New("engine: bad sort count")
		}
		off := 1 + n
		keys := make([]SortKey, count)
		for i := range keys {
			col, m := binary.Uvarint(data[off:])
			if m <= 0 || off+m >= len(data) {
				return nil, 0, errors.New("engine: bad sort key")
			}
			off += m
			keys[i] = SortKey{Col: int(col), Desc: data[off] == 1}
			off++
		}
		return &FinalSort{Keys: keys}, off, nil
	case finalCompute:
		exprs, n, err := decodeExprs(data[1:])
		if err != nil {
			return nil, 0, err
		}
		return &FinalCompute{Exprs: exprs}, 1 + n, nil
	case finalLimit:
		v, n := binary.Uvarint(data[1:])
		if n <= 0 {
			return nil, 0, errors.New("engine: bad limit")
		}
		return &FinalLimit{N: int(v)}, 1 + n, nil
	default:
		return nil, 0, fmt.Errorf("engine: unknown final op %d", data[0])
	}
}

// EncodePlan serializes a finalized plan for dissemination with the query.
func EncodePlan(p *Plan) []byte {
	dst := p.Root.append(nil)
	dst = binary.AppendUvarint(dst, uint64(len(p.Final)))
	for _, f := range p.Final {
		dst = f.appendFinal(dst)
	}
	return dst
}

// DecodePlan reverses EncodePlan and re-finalizes the plan.
func DecodePlan(data []byte) (*Plan, error) {
	root, n, err := decodeNode(data)
	if err != nil {
		return nil, err
	}
	p := &Plan{Root: root}
	count, m := binary.Uvarint(data[n:])
	if m <= 0 || count > 1<<12 {
		return nil, errors.New("engine: bad final op count")
	}
	off := n + m
	for i := uint64(0); i < count; i++ {
		f, k, err := decodeFinalOp(data[off:])
		if err != nil {
			return nil, err
		}
		p.Final = append(p.Final, f)
		off += k
	}
	if off != len(data) {
		return nil, fmt.Errorf("engine: %d trailing plan bytes", len(data)-off)
	}
	if err := p.Finalize(); err != nil {
		return nil, err
	}
	return p, nil
}
