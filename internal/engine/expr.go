package engine

import (
	"encoding/binary"
	"fmt"
	"strings"

	"orchestra/internal/codec"
	"orchestra/internal/tuple"
)

// Expr is a serializable scalar expression evaluated per tuple by the
// select and compute-function operators (Table I).
type Expr interface {
	// append serializes the expression.
	append(dst []byte) []byte
	// String renders the expression for diagnostics.
	String() string
}

// Comparison and arithmetic operator codes.
type OpCode uint8

const (
	OpEq OpCode = iota + 1
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpAnd
	OpOr
	OpConcat
)

func (o OpCode) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpConcat:
		return "||"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// expression node tags for serialization.
const (
	exprCol   = byte(1)
	exprConst = byte(2)
	exprBin   = byte(3)
	exprNot   = byte(4)
)

// Col references an input column by position.
type Col struct{ Idx int }

func (c Col) append(dst []byte) []byte {
	dst = append(dst, exprCol)
	return binary.AppendUvarint(dst, uint64(c.Idx))
}

func (c Col) String() string { return fmt.Sprintf("$%d", c.Idx) }

// Const is a literal value.
type Const struct{ Val tuple.Value }

func (c Const) append(dst []byte) []byte {
	dst = append(dst, exprConst)
	return tuple.AppendKeyValue(dst, c.Val)
}

func (c Const) String() string {
	if c.Val.T == tuple.String {
		return fmt.Sprintf("%q", c.Val.Str)
	}
	return c.Val.String()
}

// Bin applies a binary operator.
type Bin struct {
	Op   OpCode
	L, R Expr
}

func (b Bin) append(dst []byte) []byte {
	dst = append(dst, exprBin, byte(b.Op))
	dst = b.L.append(dst)
	return b.R.append(dst)
}

func (b Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Not negates a boolean expression.
type Not struct{ E Expr }

func (n Not) append(dst []byte) []byte {
	dst = append(dst, exprNot)
	return n.E.append(dst)
}

func (n Not) String() string { return fmt.Sprintf("NOT %s", n.E) }

// Convenience constructors.

// C references column i.
func C(i int) Expr { return Col{Idx: i} }

// CI builds an int literal.
func CI(v int64) Expr { return Const{Val: tuple.I(v)} }

// CF builds a float literal.
func CF(v float64) Expr { return Const{Val: tuple.F(v)} }

// CS builds a string literal.
func CS(v string) Expr { return Const{Val: tuple.S(v)} }

// B builds a binary expression.
func B(op OpCode, l, r Expr) Expr { return Bin{Op: op, L: l, R: r} }

// decodeExpr reads one expression and, recursively, its operands.
func decodeExpr(r *codec.Reader) Expr {
	if !r.Enter() {
		return nil
	}
	defer r.Leave()
	switch tag := r.U8(); tag {
	case exprCol:
		return Col{Idx: int(r.Uvarint())}
	case exprConst:
		return Const{Val: readConst(r)}
	case exprBin:
		return Bin{Op: OpCode(r.U8()), L: decodeExpr(r), R: decodeExpr(r)}
	case exprNot:
		return Not{E: decodeExpr(r)}
	default:
		r.Fail(fmt.Errorf("engine: unknown expr tag %d", tag))
		return nil
	}
}

// readConst reads one literal in tuple.AppendKeyValue's encoding: the reader
// finds where the value ends, tuple.DecodeKey decodes it.
func readConst(r *codec.Reader) tuple.Value {
	start := r.Pos()
	switch tag := r.U8(); tag {
	case 0x01, 0x02: // int64, float64: eight bytes
		r.Fixed(8)
	case 0x03: // string: 0x00 0x00 ends it; 0x00 and any other byte is an escape pair
		for r.Err() == nil && (r.U8() != 0 || r.U8() != 0) {
		}
	default:
		r.Fail(fmt.Errorf("engine: bad const tag %d", tag))
	}
	if r.Err() != nil {
		return tuple.Value{}
	}
	vals, err := tuple.DecodeKey(r.Since(start))
	if err != nil {
		r.Fail(err)
		return tuple.Value{}
	}
	return vals[0]
}

// exprList helpers for plans with several expressions.

func encodeExprs(dst []byte, exprs []Expr) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(exprs)))
	for _, e := range exprs {
		dst = e.append(dst)
	}
	return dst
}

func decodeExprs(r *codec.Reader) []Expr {
	out := make([]Expr, r.Count(2)) // a tag and at least one byte of operand
	for i := range out {
		out[i] = decodeExpr(r)
	}
	return out
}

func exprsString(exprs []Expr) string {
	parts := make([]string, len(exprs))
	for i, e := range exprs {
		parts[i] = e.String()
	}
	return strings.Join(parts, ", ")
}
