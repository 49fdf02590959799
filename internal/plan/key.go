package plan

import (
	"crypto/sha256"
	"encoding/binary"
	"math"

	"costest/internal/sqlpred"
)

// Key is a fixed-size structural key of a subplan: the first 128 bits of a
// SHA-256 over the node's logical content and its children's keys. Like
// Signature it covers the operator, table, index, filter, index condition,
// parameterized join, join condition, sort keys and aggregates, and excludes
// the Est*/True* annotations, so equal subplans share a key wherever they
// sit in a plan. The hash is unkeyed: every process and replica derives the
// same key for the same subplan.
type Key [16]byte

// FoldKey returns n's key given the keys of its children, computed
// bottom-up so a whole plan is keyed in time linear in its node count.
// left and right are ignored when the corresponding child is nil. The
// node's local content is written as typed, length-prefixed fields (an
// explicit count for lists, a tag for every optional part), so two
// different subplans never share an input to the hash.
func (n *Node) FoldKey(left, right Key) Key {
	var buf [256]byte
	b := append(buf[:0], byte(n.Type))
	b = appendString(b, n.Table)
	b = appendString(b, n.Index)
	b = appendPred(b, n.Filter)
	if n.IndexCond != nil {
		b = appendPred(b, n.IndexCond)
	} else {
		b = append(b, predNil)
	}
	b = appendJoin(b, n.ParamJoin)
	b = appendJoin(b, n.JoinCond)
	b = binary.AppendUvarint(b, uint64(len(n.SortKeys)))
	for _, k := range n.SortKeys {
		b = appendColRef(b, k)
	}
	b = binary.AppendUvarint(b, uint64(len(n.Aggs)))
	for _, a := range n.Aggs {
		b = appendColRef(append(b, byte(a.Func)), a.Col)
	}
	b = appendChild(b, n.Left != nil, left)
	b = appendChild(b, n.Right != nil, right)
	sum := sha256.Sum256(b)
	return Key(sum[:16])
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendColRef(b []byte, c ColRef) []byte {
	return appendString(appendString(b, c.Table), c.Column)
}

func appendJoin(b []byte, jc *JoinCond) []byte {
	if jc == nil {
		return append(b, 0)
	}
	return appendColRef(appendColRef(append(b, 1), jc.Left), jc.Right)
}

func appendChild(b []byte, present bool, k Key) []byte {
	if !present {
		return append(b, 0)
	}
	return append(append(b, 1), k[:]...)
}

// Predicate tags. An atom's operand is written the way the feature encoder
// reads it: the IN list for IN, the string operand for string atoms, the
// numeric operand otherwise.
const (
	predNil byte = iota
	predAnd
	predOr
	predIn
	predStr
	predNum
)

func appendPred(b []byte, p sqlpred.Pred) []byte {
	switch p := p.(type) {
	case nil:
		return append(b, predNil)
	case *sqlpred.Bool:
		tag := predAnd
		if p.Kind == sqlpred.Or {
			tag = predOr
		}
		return appendPred(appendPred(append(b, tag), p.Left), p.Right)
	case *sqlpred.Atom:
		switch {
		case p.Op == sqlpred.OpIn:
			b = binary.AppendUvarint(append(b, predIn), uint64(len(p.InVals)))
			for _, v := range p.InVals {
				b = appendString(b, v)
			}
		case p.IsStr:
			b = appendString(append(b, predStr), p.StrVal)
		default:
			b = binary.LittleEndian.AppendUint64(append(b, predNum), math.Float64bits(p.NumVal))
		}
		return appendString(appendString(append(b, byte(p.Op)), p.Table), p.Column)
	default:
		panic("plan: unknown predicate node")
	}
}
