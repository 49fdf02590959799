package plan

import (
	"testing"

	"costest/internal/sqlpred"
)

// treeKey folds the keys of n's subtree bottom-up, the way the feature
// encoder does.
func treeKey(n *Node) Key {
	var l, r Key
	if n.Left != nil {
		l = treeKey(n.Left)
	}
	if n.Right != nil {
		r = treeKey(n.Right)
	}
	return n.FoldKey(l, r)
}

// TestFoldKeyCoversLogicalContent changes one logical field at a time and
// requires a new key; annotation changes must keep it.
func TestFoldKeyCoversLogicalContent(t *testing.T) {
	base := treeKey(sampleTree())
	if treeKey(sampleTree()) != base {
		t.Fatal("identical plans must share keys")
	}
	atom := func(op sqlpred.Op) *sqlpred.Atom {
		return &sqlpred.Atom{Table: "title", Column: "production_year", Op: op, NumVal: 2000}
	}
	col := ColRef{Table: "title", Column: "id"}
	for name, mutate := range map[string]func(n *Node){
		"type":       func(n *Node) { n.Left.Type = MergeJoin },
		"table":      func(n *Node) { n.Left.Left.Table = "title" },
		"index":      func(n *Node) { n.Left.Left.Index = "mc_movie_id" },
		"filter op":  func(n *Node) { n.Left.Right.Filter = atom(sqlpred.OpLt) },
		"filter num": func(n *Node) { n.Left.Right.Filter.(*sqlpred.Atom).NumVal = 2001 },
		"filter or": func(n *Node) {
			n.Left.Right.Filter = &sqlpred.Bool{Kind: sqlpred.Or, Left: atom(sqlpred.OpGt), Right: atom(sqlpred.OpLt)}
		},
		"index cond": func(n *Node) { n.Left.Right.IndexCond = atom(sqlpred.OpGt) },
		"param join": func(n *Node) { n.Left.Right.ParamJoin = n.Left.JoinCond },
		"join cond":  func(n *Node) { n.Left.JoinCond.Right.Column = "kind_id" },
		"sort keys":  func(n *Node) { n.SortKeys = []ColRef{col} },
		"aggs":       func(n *Node) { n.Aggs = append(n.Aggs, AggSpec{Func: AggMin, Col: col}) },
		"swap":       func(n *Node) { n.Left.Left, n.Left.Right = n.Left.Right, n.Left.Left },
		"drop child": func(n *Node) { n.Left.Right = nil },
	} {
		n := sampleTree()
		mutate(n)
		if treeKey(n) == base {
			t.Errorf("%s: changing it kept the key", name)
		}
	}
	n := sampleTree()
	n.Walk(func(m *Node) { m.EstRows, m.EstCost, m.TrueRows, m.TrueCost = 1, 2, 3, 4 })
	if treeKey(n) != base {
		t.Error("annotations changed the key")
	}
}
