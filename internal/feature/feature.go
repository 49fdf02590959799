// Package feature extracts and encodes plan-node features the way
// Section 4.1 of the paper prescribes: physical operation one-hot vectors,
// metadata bitmaps over columns/tables/indexes, predicate trees encoded
// atom-by-atom as ⟨column, operator, operand⟩ vectors (numeric operands
// normalized, string operands embedded), and per-table sample bitmaps. It
// also lays plans out in the level-order form used for batch training
// (Section 4.3).
package feature

import (
	"fmt"

	"costest/internal/plan"
	"costest/internal/sqlpred"
	"costest/internal/stats"
	"costest/internal/strembed"
)

// Encoder turns physical plans into model-ready tensors.
type Encoder struct {
	Cat *stats.Catalog
	Str strembed.StringEncoder
	// UseSampleBitmap toggles the Sample Bitmap feature (the paper's
	// "Sample" ablation column in Table 6).
	UseSampleBitmap bool
}

// NewEncoder builds an encoder over the catalog with the given string
// operand encoder.
func NewEncoder(cat *stats.Catalog, str strembed.StringEncoder, useSampleBitmap bool) *Encoder {
	return &Encoder{Cat: cat, Str: str, UseSampleBitmap: useSampleBitmap}
}

// Feature dimensions.

// OpDim is the operation one-hot width.
func (e *Encoder) OpDim() int { return int(plan.NumNodeTypes) }

// MetaDim is the metadata bitmap width: columns ∪ tables ∪ indexes.
func (e *Encoder) MetaDim() int {
	s := e.Cat.DB.Schema
	return s.NumColumns() + s.NumTables() + s.NumIndexes()
}

// BitmapDim is the sample-bitmap width (0 when disabled).
func (e *Encoder) BitmapDim() int {
	if !e.UseSampleBitmap {
		return 0
	}
	return e.Cat.SampleSize
}

// AtomDim is the width of one predicate-tree node vector:
// [isAnd, isOr | column one-hot | operator one-hot | numeric operand | string embedding].
func (e *Encoder) AtomDim() int {
	return 2 + e.Cat.DB.Schema.NumColumns() + int(sqlpred.NumOps) + 1 + e.Str.Dim()
}

// PredNode is one node of an encoded predicate tree, in DFS preorder.
type PredNode struct {
	IsLeaf      bool
	Bool        sqlpred.BoolKind // for internal nodes
	Vec         []float64        // AtomDim features
	Left, Right int              // indices into EncodedPred.Nodes; -1 for leaves
}

// EncodedPred is a predicate tree with per-node feature vectors. Nodes[0] is
// the root when non-empty.
type EncodedPred struct {
	Nodes []PredNode
}

// Empty reports whether there is no predicate.
func (p *EncodedPred) Empty() bool { return len(p.Nodes) == 0 }

// EncodedNode is one encoded plan node.
type EncodedNode struct {
	Op     []float64 // operation one-hot
	Meta   []float64 // metadata bitmap
	Bitmap []float64 // sample bitmap (nil when disabled/absent)
	Pred   EncodedPred
	Left   int // child indices into EncodedPlan.Nodes; -1 when absent
	Right  int

	// Key is the subtree's structural key (plan.Node.FoldKey), keying the
	// representation memory pool.
	Key plan.Key

	// Supervision targets copied from the executed plan.
	TrueRows float64
	TrueCost float64
}

// EncodedPlan is a fully encoded plan tree.
type EncodedPlan struct {
	Nodes []EncodedNode
	Root  int
	// Levels lists node indices grouped by height above the leaves
	// (Levels[0] = leaves), the width-first layout of Section 4.3.
	Levels [][]int32
	// Query-level targets: Cost is the root's cumulative cost, Card the
	// output of the topmost non-aggregate node.
	Cost float64
	Card float64
	// CardNode indexes the node defining Card.
	CardNode int
}

// Encode converts an executed plan into tensors. The plan must carry
// TrueRows/TrueCost annotations if the sample will be used for training.
func (e *Encoder) Encode(root *plan.Node) (*EncodedPlan, error) {
	ep := &EncodedPlan{Root: 0}
	cardNode := root.CardinalityNode()
	if _, err := e.encodeNode(root, ep, cardNode); err != nil {
		return nil, err
	}
	ep.Cost = root.TrueCost
	ep.Card = cardNode.TrueRows
	ep.buildLevels()
	return ep, nil
}

func (e *Encoder) encodeNode(n *plan.Node, ep *EncodedPlan, cardNode *plan.Node) (int, error) {
	idx := len(ep.Nodes)
	ep.Nodes = append(ep.Nodes, EncodedNode{Left: -1, Right: -1})
	if n == cardNode {
		ep.CardNode = idx
	}

	enc := EncodedNode{Left: -1, Right: -1, TrueRows: n.TrueRows, TrueCost: n.TrueCost}
	enc.Op = e.encodeOp(n)
	enc.Meta = e.encodeMeta(n)
	pred, err := e.encodePred(nodePredicate(n))
	if err != nil {
		return 0, err
	}
	enc.Pred = pred
	if e.UseSampleBitmap && n.Type.IsScan() {
		if p := scanPredicate(n); p != nil {
			bm, err := e.Cat.SampleBitmap(n.Table, p)
			if err != nil {
				return 0, err
			}
			enc.Bitmap = bm
		}
	}

	var lk, rk plan.Key
	if n.Left != nil {
		l, err := e.encodeNode(n.Left, ep, cardNode)
		if err != nil {
			return 0, err
		}
		enc.Left, lk = l, ep.Nodes[l].Key
	}
	if n.Right != nil {
		r, err := e.encodeNode(n.Right, ep, cardNode)
		if err != nil {
			return 0, err
		}
		enc.Right, rk = r, ep.Nodes[r].Key
	}
	enc.Key = n.FoldKey(lk, rk)
	ep.Nodes[idx] = enc
	return idx, nil
}

func (e *Encoder) encodeOp(n *plan.Node) []float64 {
	v := make([]float64, e.OpDim())
	v[int(n.Type)] = 1
	return v
}

// encodeMeta ORs the one-hot vectors of every column, table and index the
// node touches.
func (e *Encoder) encodeMeta(n *plan.Node) []float64 {
	s := e.Cat.DB.Schema
	v := make([]float64, e.MetaDim())
	setCol := func(table, col string) {
		if id := s.ColumnID(table, col); id >= 0 {
			v[id] = 1
		}
	}
	setTable := func(t string) {
		if id := s.TableID(t); id >= 0 {
			v[s.NumColumns()+id] = 1
		}
	}
	setIndex := func(name string) {
		if id := s.IndexID(name); id >= 0 {
			v[s.NumColumns()+s.NumTables()+id] = 1
		}
	}
	if n.Table != "" {
		setTable(n.Table)
	}
	if n.Index != "" {
		setIndex(n.Index)
	}
	sqlpred.Walk(n.Filter, func(a *sqlpred.Atom) { setCol(a.Table, a.Column) })
	if n.IndexCond != nil {
		setCol(n.IndexCond.Table, n.IndexCond.Column)
	}
	for _, jc := range []*plan.JoinCond{n.JoinCond, n.ParamJoin} {
		if jc != nil {
			setCol(jc.Left.Table, jc.Left.Column)
			setCol(jc.Right.Table, jc.Right.Column)
			setTable(jc.Left.Table)
			setTable(jc.Right.Table)
		}
	}
	for _, k := range n.SortKeys {
		setCol(k.Table, k.Column)
		setTable(k.Table)
	}
	for _, a := range n.Aggs {
		if a.Col.Table != "" {
			setCol(a.Col.Table, a.Col.Column)
			setTable(a.Col.Table)
		}
	}
	return v
}

// nodePredicate collects the predicate material at a node: scan filters
// (with the index condition folded in) and join conditions.
func nodePredicate(n *plan.Node) sqlpred.Pred {
	switch {
	case n.Type.IsScan():
		return scanPredicate(n)
	case n.JoinCond != nil:
		return joinAtom(n.JoinCond)
	default:
		return nil
	}
}

func scanPredicate(n *plan.Node) sqlpred.Pred {
	p := n.Filter
	if n.IndexCond != nil {
		p = sqlpred.AndAll(n.IndexCond, p)
	}
	return p
}

// joinAtom represents an equi-join condition as a pseudo-atom: both columns
// are set in the column one-hot and the operand is empty.
func joinAtom(jc *plan.JoinCond) *sqlpred.Atom {
	return &sqlpred.Atom{
		Table:  jc.Left.Table,
		Column: jc.Left.Column,
		Op:     sqlpred.OpEq,
		// The right side is carried via joinRight in encodeAtomVec.
		StrVal: joinRightMarker + jc.Right.Table + "." + jc.Right.Column,
	}
}

// joinRightMarker tags the StrVal of a join pseudo-atom; the encoder decodes
// it into a second column bit instead of a string operand.
const joinRightMarker = "\x00join:"

// encodePred converts a predicate tree into an EncodedPred.
func (e *Encoder) encodePred(p sqlpred.Pred) (EncodedPred, error) {
	var ep EncodedPred
	if p == nil {
		return ep, nil
	}
	if _, err := e.encodePredNode(p, &ep); err != nil {
		return EncodedPred{}, err
	}
	return ep, nil
}

func (e *Encoder) encodePredNode(p sqlpred.Pred, ep *EncodedPred) (int, error) {
	idx := len(ep.Nodes)
	ep.Nodes = append(ep.Nodes, PredNode{Left: -1, Right: -1})
	switch n := p.(type) {
	case *sqlpred.Atom:
		vec, err := e.encodeAtomVec(n)
		if err != nil {
			return 0, err
		}
		ep.Nodes[idx] = PredNode{IsLeaf: true, Vec: vec, Left: -1, Right: -1}
	case *sqlpred.Bool:
		l, err := e.encodePredNode(n.Left, ep)
		if err != nil {
			return 0, err
		}
		r, err := e.encodePredNode(n.Right, ep)
		if err != nil {
			return 0, err
		}
		vec := make([]float64, e.AtomDim())
		if n.Kind == sqlpred.And {
			vec[0] = 1
		} else {
			vec[1] = 1
		}
		ep.Nodes[idx] = PredNode{Bool: n.Kind, Vec: vec, Left: l, Right: r}
	default:
		return 0, fmt.Errorf("feature: unknown predicate node %T", p)
	}
	return idx, nil
}

// encodeAtomVec lays out one atom:
// [isAnd=0, isOr=0 | column one-hot | op one-hot | numeric | string embed].
func (e *Encoder) encodeAtomVec(a *sqlpred.Atom) ([]float64, error) {
	s := e.Cat.DB.Schema
	v := make([]float64, e.AtomDim())
	colBase := 2
	opBase := colBase + s.NumColumns()
	numBase := opBase + int(sqlpred.NumOps)
	strBase := numBase + 1

	if id := s.ColumnID(a.Table, a.Column); id >= 0 {
		v[colBase+id] = 1
	} else {
		return nil, fmt.Errorf("feature: unknown column %s.%s", a.Table, a.Column)
	}
	v[opBase+int(a.Op)] = 1

	// Join pseudo-atom: second column bit, no operand.
	if len(a.StrVal) > len(joinRightMarker) && a.StrVal[:len(joinRightMarker)] == joinRightMarker {
		ref := a.StrVal[len(joinRightMarker):]
		for i := 0; i < len(ref); i++ {
			if ref[i] == '.' {
				if id := s.ColumnID(ref[:i], ref[i+1:]); id >= 0 {
					v[colBase+id] = 1
				}
				break
			}
		}
		return v, nil
	}

	switch {
	case a.Op == sqlpred.OpIn:
		copy(v[strBase:], e.embedMany(a.InVals))
	case a.IsStr:
		copy(v[strBase:], e.Str.Embed(a.StrVal))
	default:
		v[numBase] = e.Cat.NormalizeNumeric(a.Table, a.Column, a.NumVal)
	}
	return v, nil
}

func (e *Encoder) embedMany(vals []string) []float64 {
	out := make([]float64, e.Str.Dim())
	if len(vals) == 0 {
		return out
	}
	for _, v := range vals {
		vec := e.Str.Embed(v)
		for i := range out {
			out[i] += vec[i]
		}
	}
	for i := range out {
		out[i] /= float64(len(vals))
	}
	return out
}

// buildLevels groups nodes by height above the leaves so batch training can
// run whole levels at once (Section 4.3's width-first encoding).
func (ep *EncodedPlan) buildLevels() {
	heights := make([]int, len(ep.Nodes))
	var height func(i int) int
	height = func(i int) int {
		if i < 0 {
			return -1
		}
		if heights[i] > 0 {
			return heights[i]
		}
		h := 0
		n := ep.Nodes[i]
		if l := height(n.Left); l+1 > h {
			h = l + 1
		}
		if r := height(n.Right); r+1 > h {
			h = r + 1
		}
		heights[i] = h
		return h
	}
	maxH := 0
	for i := range ep.Nodes {
		if h := height(i); h > maxH {
			maxH = h
		}
	}
	ep.Levels = make([][]int32, maxH+1)
	for i := range ep.Nodes {
		h := heights[i]
		ep.Levels[h] = append(ep.Levels[h], int32(i))
	}
}

// Depth returns the number of levels.
func (ep *EncodedPlan) Depth() int { return len(ep.Levels) }
