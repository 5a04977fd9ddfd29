package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"orchestra/internal/cluster"
	"orchestra/internal/codec"
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
// be called once before execution or serialization. A plan that nests deeper
// than codec.MaxDepth is refused here, at the initiator, because every node
// that received it would refuse to decode it.
func (p *Plan) Finalize() error {
	p.ops = 0
	if err := p.walkAssign(p.Root, 1); err != nil {
		return err
	}
	for _, f := range p.Final {
		if c, ok := f.(*FinalCompute); ok && !exprsFit(1, c.Exprs...) {
			return errTooDeep
		}
	}
	return nil
}

var errTooDeep = fmt.Errorf("engine: plan nests deeper than %d levels", codec.MaxDepth)

// exprsFit reports whether expressions rooted at nesting level depth stay
// within codec.MaxDepth, counting levels as their decoder does.
func exprsFit(depth int, exprs ...Expr) bool {
	if depth > codec.MaxDepth {
		return false
	}
	for _, e := range exprs {
		switch t := e.(type) {
		case Bin:
			if !exprsFit(depth+1, t.L, t.R) {
				return false
			}
		case Not:
			if !exprsFit(depth+1, t.E) {
				return false
			}
		}
	}
	return true
}

func (p *Plan) walkAssign(n Node, depth int) error {
	if n == nil {
		return errors.New("engine: nil plan node")
	}
	if depth > codec.MaxDepth {
		return errTooDeep
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
	case *SelectNode:
		if !exprsFit(depth+1, t.Pred) {
			return errTooDeep
		}
	case *ComputeNode:
		if !exprsFit(depth+1, t.Exprs...) {
			return errTooDeep
		}
	}
	for _, c := range n.Children() {
		if err := p.walkAssign(c, depth+1); err != nil {
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

// readInts reverses appendInts.
func readInts(r *codec.Reader) []int {
	out := make([]int, r.Count(1))
	for i := range out {
		out[i] = int(r.Varint())
	}
	return out
}

func appendAggSpecs(dst []byte, specs []AggSpec) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(specs)))
	for _, s := range specs {
		dst = append(dst, byte(s.Func))
		dst = binary.AppendVarint(dst, int64(s.Col))
	}
	return dst
}

func readAggSpecs(r *codec.Reader) []AggSpec {
	specs := make([]AggSpec, r.Count(2)) // function, column
	for i := range specs {
		specs[i] = AggSpec{Func: AggFunc(r.U8()), Col: int(r.Varint())}
	}
	return specs
}

func (s *ScanNode) append(dst []byte) []byte {
	dst = append(dst, nodeScan)
	dst = codec.AppendBytes(dst, []byte(s.Relation))
	dst = codec.AppendBytes(dst, s.Pred.Lo)
	dst = codec.AppendBytes(dst, s.Pred.Hi)
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
	dst = appendAggSpecs(dst, a.Aggs)
	return a.Child.append(dst)
}

func (r *RehashNode) append(dst []byte) []byte {
	dst = append(dst, nodeRehash)
	dst = appendInts(dst, r.Keys)
	dst = binary.AppendUvarint(dst, uint64(r.ExchID))
	return r.Child.append(dst)
}

// decodeNode reads one operator and, recursively, its inputs. A failed read
// leaves the reader failed and the returned tree unusable; DecodePlan checks
// once, at the end.
func decodeNode(r *codec.Reader) Node {
	if !r.Enter() {
		return nil
	}
	defer r.Leave()
	switch tag := r.U8(); tag {
	case nodeScan:
		s := &ScanNode{Relation: r.Str()}
		// A bound is absent when empty; a present one must not alias the payload.
		s.Pred.Lo = append([]byte(nil), r.Bytes()...)
		s.Pred.Hi = append([]byte(nil), r.Bytes()...)
		s.Covering = r.U8() == 1
		s.ScanID = int(r.Uvarint())
		return s
	case nodeSelect:
		return &SelectNode{Pred: decodeExpr(r), Child: decodeNode(r)}
	case nodeProject:
		return &ProjectNode{Cols: readInts(r), Child: decodeNode(r)}
	case nodeCompute:
		return &ComputeNode{Exprs: decodeExprs(r), Child: decodeNode(r)}
	case nodeJoin:
		return &JoinNode{LeftKeys: readInts(r), RightKeys: readInts(r), Left: decodeNode(r), Right: decodeNode(r)}
	case nodeAgg:
		return &AggNode{Mode: AggMode(r.U8()), GroupCols: readInts(r), Aggs: readAggSpecs(r), Child: decodeNode(r)}
	case nodeRehash:
		return &RehashNode{Keys: readInts(r), ExchID: int(r.Uvarint()), Child: decodeNode(r)}
	default:
		r.Fail(fmt.Errorf("engine: unknown node tag %d", tag))
		return nil
	}
}

func (f *FinalAgg) appendFinal(dst []byte) []byte {
	dst = append(dst, finalAgg)
	dst = appendInts(dst, f.GroupCols)
	return appendAggSpecs(dst, f.Aggs)
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

func decodeFinalOp(r *codec.Reader) FinalOp {
	switch tag := r.U8(); tag {
	case finalAgg:
		return &FinalAgg{GroupCols: readInts(r), Aggs: readAggSpecs(r)}
	case finalSort:
		keys := make([]SortKey, r.Count(2)) // column, direction
		for i := range keys {
			keys[i] = SortKey{Col: int(r.Uvarint()), Desc: r.U8() == 1}
		}
		return &FinalSort{Keys: keys}
	case finalCompute:
		return &FinalCompute{Exprs: decodeExprs(r)}
	case finalLimit:
		return &FinalLimit{N: int(r.Uvarint())}
	default:
		r.Fail(fmt.Errorf("engine: unknown final op %d", tag))
		return nil
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
	r := codec.NewReader(data)
	p := &Plan{Root: decodeNode(&r)}
	for n := r.Count(2); n > 0 && r.Err() == nil; n-- { // a tag and a count or a value
		p.Final = append(p.Final, decodeFinalOp(&r))
	}
	if err := r.Done("engine: plan"); err != nil {
		return nil, err
	}
	if err := p.Finalize(); err != nil {
		return nil, err
	}
	return p, nil
}
