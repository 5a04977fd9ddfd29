package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"orchestra/internal/tuple"
)

// Expr is a serializable scalar expression evaluated per tuple by the
// select and compute-function operators (Table I).
type Expr interface {
	// Eval computes the expression over a row.
	Eval(row tuple.Row) tuple.Value
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

// Eval returns the referenced column value.
func (c Col) Eval(row tuple.Row) tuple.Value { return row[c.Idx] }

func (c Col) append(dst []byte) []byte {
	dst = append(dst, exprCol)
	return binary.AppendUvarint(dst, uint64(c.Idx))
}

func (c Col) String() string { return fmt.Sprintf("$%d", c.Idx) }

// Const is a literal value.
type Const struct{ Val tuple.Value }

// Eval returns the literal.
func (c Const) Eval(tuple.Row) tuple.Value { return c.Val }

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

// truth converts a value to a boolean (nonzero / nonempty).
func truth(v tuple.Value) bool {
	switch v.T {
	case tuple.Int64:
		return v.I64 != 0
	case tuple.Float64:
		return v.F64 != 0
	case tuple.String:
		return v.Str != ""
	default:
		return false
	}
}

func boolVal(b bool) tuple.Value {
	if b {
		return tuple.I(1)
	}
	return tuple.I(0)
}

// Eval computes the binary operation with numeric coercion.
func (b Bin) Eval(row tuple.Row) tuple.Value {
	switch b.Op {
	case OpAnd:
		return boolVal(truth(b.L.Eval(row)) && truth(b.R.Eval(row)))
	case OpOr:
		return boolVal(truth(b.L.Eval(row)) || truth(b.R.Eval(row)))
	}
	l := b.L.Eval(row)
	r := b.R.Eval(row)
	switch b.Op {
	case OpEq:
		return boolVal(l.Cmp(r) == 0)
	case OpNe:
		return boolVal(l.Cmp(r) != 0)
	case OpLt:
		return boolVal(l.Cmp(r) < 0)
	case OpLe:
		return boolVal(l.Cmp(r) <= 0)
	case OpGt:
		return boolVal(l.Cmp(r) > 0)
	case OpGe:
		return boolVal(l.Cmp(r) >= 0)
	case OpConcat:
		return tuple.S(l.String() + r.String())
	case OpAdd, OpSub, OpMul, OpDiv:
		if l.T == tuple.Int64 && r.T == tuple.Int64 {
			switch b.Op {
			case OpAdd:
				return tuple.I(l.I64 + r.I64)
			case OpSub:
				return tuple.I(l.I64 - r.I64)
			case OpMul:
				return tuple.I(l.I64 * r.I64)
			case OpDiv:
				if r.I64 == 0 {
					return tuple.I(0)
				}
				return tuple.I(l.I64 / r.I64)
			}
		}
		lf, rf := l.AsFloat(), r.AsFloat()
		switch b.Op {
		case OpAdd:
			return tuple.F(lf + rf)
		case OpSub:
			return tuple.F(lf - rf)
		case OpMul:
			return tuple.F(lf * rf)
		case OpDiv:
			if rf == 0 {
				return tuple.F(0)
			}
			return tuple.F(lf / rf)
		}
	}
	return tuple.I(0)
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

// Eval negates the operand's truth value.
func (n Not) Eval(row tuple.Row) tuple.Value { return boolVal(!truth(n.E.Eval(row))) }

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

// DecodeExpr parses a serialized expression, returning it and the bytes
// consumed.
func DecodeExpr(data []byte) (Expr, int, error) {
	if len(data) == 0 {
		return nil, 0, errors.New("engine: empty expression")
	}
	switch data[0] {
	case exprCol:
		idx, n := binary.Uvarint(data[1:])
		if n <= 0 {
			return nil, 0, errors.New("engine: bad column ref")
		}
		return Col{Idx: int(idx)}, 1 + n, nil
	case exprConst:
		vals, err := decodeOneKeyValue(data[1:])
		if err != nil {
			return nil, 0, err
		}
		return Const{Val: vals.v}, 1 + vals.n, nil
	case exprBin:
		if len(data) < 2 {
			return nil, 0, errors.New("engine: truncated binop")
		}
		op := OpCode(data[1])
		l, ln, err := DecodeExpr(data[2:])
		if err != nil {
			return nil, 0, err
		}
		r, rn, err := DecodeExpr(data[2+ln:])
		if err != nil {
			return nil, 0, err
		}
		return Bin{Op: op, L: l, R: r}, 2 + ln + rn, nil
	case exprNot:
		e, n, err := DecodeExpr(data[1:])
		if err != nil {
			return nil, 0, err
		}
		return Not{E: e}, 1 + n, nil
	default:
		return nil, 0, fmt.Errorf("engine: unknown expr tag %d", data[0])
	}
}

type decodedValue struct {
	v tuple.Value
	n int
}

// decodeOneKeyValue decodes a single AppendKeyValue-encoded value and
// reports its length.
func decodeOneKeyValue(data []byte) (decodedValue, error) {
	if len(data) == 0 {
		return decodedValue{}, errors.New("engine: empty const")
	}
	switch data[0] {
	case 0x01, 0x02: // int64 / float64: tag + 8 bytes
		if len(data) < 9 {
			return decodedValue{}, errors.New("engine: truncated const")
		}
		vals, err := tuple.DecodeKey(data[:9])
		if err != nil {
			return decodedValue{}, err
		}
		return decodedValue{v: vals[0], n: 9}, nil
	case 0x03: // string: find the 0x00 0x00 terminator honoring escapes
		i := 1
		for i < len(data) {
			if data[i] != 0x00 {
				i++
				continue
			}
			if i+1 >= len(data) {
				return decodedValue{}, errors.New("engine: truncated const string")
			}
			if data[i+1] == 0x00 {
				vals, err := tuple.DecodeKey(data[:i+2])
				if err != nil {
					return decodedValue{}, err
				}
				return decodedValue{v: vals[0], n: i + 2}, nil
			}
			i += 2 // escape pair
		}
		return decodedValue{}, errors.New("engine: unterminated const string")
	default:
		return decodedValue{}, fmt.Errorf("engine: bad const tag %d", data[0])
	}
}

// exprList helpers for plans with several expressions.

func encodeExprs(dst []byte, exprs []Expr) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(exprs)))
	for _, e := range exprs {
		dst = e.append(dst)
	}
	return dst
}

func decodeExprs(data []byte) ([]Expr, int, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 || count > 1<<16 {
		return nil, 0, errors.New("engine: bad expr list")
	}
	off := n
	out := make([]Expr, 0, count)
	for i := uint64(0); i < count; i++ {
		e, m, err := DecodeExpr(data[off:])
		if err != nil {
			return nil, 0, err
		}
		out = append(out, e)
		off += m
	}
	return out, off, nil
}

func exprsString(exprs []Expr) string {
	parts := make([]string, len(exprs))
	for i, e := range exprs {
		parts[i] = e.String()
	}
	return strings.Join(parts, ", ")
}
