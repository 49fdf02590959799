// Package plan defines the physical query-plan algebra the estimators
// operate on: scans, joins, sorts and aggregates arranged in a binary tree,
// mirroring the plan operations the paper extracts from PostgreSQL (Table 1).
package plan

import (
	"fmt"
	"strings"

	"costest/internal/sqlpred"
)

// NodeType is a physical operator.
type NodeType int

// Physical operators (the paper's operation one-hot vocabulary).
const (
	SeqScan NodeType = iota
	IndexScan
	HashJoin
	MergeJoin
	NestedLoop
	Sort
	Aggregate
	NumNodeTypes // size of the operation one-hot space
)

var nodeTypeNames = [...]string{
	"Seq Scan", "Index Scan", "Hash Join", "Merge Join", "Nested Loop", "Sort", "Aggregate",
}

func (t NodeType) String() string {
	if int(t) < len(nodeTypeNames) {
		return nodeTypeNames[t]
	}
	return fmt.Sprintf("NodeType(%d)", int(t))
}

// IsJoin reports whether the operator combines two inputs.
func (t NodeType) IsJoin() bool {
	return t == HashJoin || t == MergeJoin || t == NestedLoop
}

// IsScan reports whether the operator reads a base table.
func (t NodeType) IsScan() bool { return t == SeqScan || t == IndexScan }

// ColRef names a column of a table.
type ColRef struct {
	Table, Column string
}

func (c ColRef) String() string { return c.Table + "." + c.Column }

// JoinCond is an equi-join condition left = right.
type JoinCond struct {
	Left, Right ColRef
}

func (j JoinCond) String() string { return j.Left.String() + " = " + j.Right.String() }

// AggFunc is an aggregate function.
type AggFunc int

// Aggregate functions used by the paper's generated projections
// (Section 4.3: MIN, MAX, COUNT).
const (
	AggMin AggFunc = iota
	AggMax
	AggCount
)

func (f AggFunc) String() string {
	switch f {
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return "COUNT"
	}
}

// AggSpec is one output aggregate.
type AggSpec struct {
	Func AggFunc
	Col  ColRef // ignored for COUNT(*)
}

// Node is a physical plan node. Scans populate Table/Index/Filter; joins
// populate JoinCond; Sort populates SortKeys; Aggregate populates Aggs.
// Estimation annotations (Est*) are written by estimators and ground-truth
// annotations (True*) by the executor.
type Node struct {
	Type NodeType

	// Scan fields.
	Table  string
	Index  string       // index name for IndexScan
	Filter sqlpred.Pred // residual single-table filter evaluated at this node

	// IndexScan range/equality condition on the indexed column, when the
	// scan is driven by a filter. For the inner side of an index nested
	// loop the condition instead comes from the outer tuple at runtime
	// (ParamJoin is set on the scan).
	IndexCond *sqlpred.Atom
	ParamJoin *JoinCond // inner index scan parameterized by outer join key

	// Join fields.
	JoinCond *JoinCond

	// Sort fields.
	SortKeys []ColRef

	// Aggregate fields.
	Aggs []AggSpec

	Left, Right *Node

	// Estimates (filled by the estimator under evaluation).
	EstRows float64
	EstCost float64
	// Ground truth (filled by the executor).
	TrueRows float64
	TrueCost float64
}

// Tables returns the base tables covered by the subtree, in DFS order.
func (n *Node) Tables() []string {
	var out []string
	n.Walk(func(m *Node) {
		if m.Type.IsScan() {
			out = append(out, m.Table)
		}
	})
	return out
}

// Walk visits the subtree pre-order.
func (n *Node) Walk(f func(*Node)) {
	if n == nil {
		return
	}
	f(n)
	n.Left.Walk(f)
	n.Right.Walk(f)
}

// Count returns the number of nodes in the subtree.
func (n *Node) Count() int {
	c := 0
	n.Walk(func(*Node) { c++ })
	return c
}

// Depth returns the height of the subtree (leaf = 1).
func (n *Node) Depth() int {
	if n == nil {
		return 0
	}
	l, r := n.Left.Depth(), n.Right.Depth()
	if l > r {
		return l + 1
	}
	return r + 1
}

// Signature renders the logical content of the subtree as a human-readable
// string, for logs, tests and corpus deduplication. It re-renders the whole
// subtree on every call, so nothing on the serving or training path calls
// it; the Representation Memory Pool (Section 3) keys on FoldKey instead.
func (n *Node) Signature() string {
	var b strings.Builder
	n.writeSignature(&b)
	return b.String()
}

func (n *Node) writeSignature(b *strings.Builder) {
	if n == nil {
		b.WriteByte('_')
		return
	}
	fmt.Fprintf(b, "%d[", int(n.Type))
	if n.Table != "" {
		b.WriteString(n.Table)
	}
	if n.Index != "" {
		b.WriteByte('/')
		b.WriteString(n.Index)
	}
	if n.Filter != nil {
		b.WriteByte('|')
		b.WriteString(n.Filter.String())
	}
	if n.IndexCond != nil {
		b.WriteByte('@')
		b.WriteString(n.IndexCond.String())
	}
	if n.ParamJoin != nil {
		b.WriteByte('#')
		b.WriteString(n.ParamJoin.String())
	}
	if n.JoinCond != nil {
		b.WriteString(n.JoinCond.String())
	}
	for _, k := range n.SortKeys {
		b.WriteString(k.String())
		b.WriteByte(',')
	}
	for _, a := range n.Aggs {
		b.WriteString(a.Func.String())
		b.WriteString(a.Col.String())
		b.WriteByte(',')
	}
	b.WriteByte(']')
	if n.Left != nil || n.Right != nil {
		b.WriteByte('(')
		n.Left.writeSignature(b)
		b.WriteByte(',')
		n.Right.writeSignature(b)
		b.WriteByte(')')
	}
}

// String renders the plan as an indented EXPLAIN-style tree.
func (n *Node) String() string {
	var b strings.Builder
	n.format(&b, 0)
	return b.String()
}

func (n *Node) format(b *strings.Builder, depth int) {
	if n == nil {
		return
	}
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Type.String())
	if n.Table != "" {
		fmt.Fprintf(b, " on %s", n.Table)
	}
	if n.Index != "" {
		fmt.Fprintf(b, " using %s", n.Index)
	}
	if n.JoinCond != nil {
		fmt.Fprintf(b, " (%s)", n.JoinCond)
	}
	if n.ParamJoin != nil {
		fmt.Fprintf(b, " [param %s]", n.ParamJoin)
	}
	if n.IndexCond != nil {
		fmt.Fprintf(b, " [cond %s]", n.IndexCond)
	}
	if n.Filter != nil {
		fmt.Fprintf(b, " filter: %s", n.Filter)
	}
	if n.TrueRows > 0 || n.EstRows > 0 {
		fmt.Fprintf(b, "  (est=%.0f real=%.0f)", n.EstRows, n.TrueRows)
	}
	b.WriteByte('\n')
	n.Left.format(b, depth+1)
	n.Right.format(b, depth+1)
}

// Clone deep-copies the plan tree (annotations included; predicates shared,
// as they are immutable).
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := *n
	c.Left = n.Left.Clone()
	c.Right = n.Right.Clone()
	return &c
}

// CardinalityNode returns the node whose output cardinality defines "the
// query's cardinality": the topmost non-aggregate, non-sort node. Aggregates
// always output one row, so query-level cardinality metrics (and the paper's
// card targets) are taken below them.
func (n *Node) CardinalityNode() *Node {
	cur := n
	for cur != nil && (cur.Type == Aggregate || cur.Type == Sort) {
		cur = cur.Left
	}
	if cur == nil {
		return n
	}
	return cur
}
