package feature

import (
	"testing"

	"costest/internal/plan"
	"costest/internal/sqlpred"
	"costest/internal/workload"
)

func inScan(vals ...string) *plan.Node {
	return &plan.Node{Type: plan.SeqScan, Table: "movie_companies",
		Filter: &sqlpred.Atom{Table: "movie_companies", Column: "note",
			Op: sqlpred.OpIn, InVals: vals, IsStr: true}}
}

// TestKeySeparatesAmbiguousINLists pins the case the Signature rendering
// cannot tell apart: IN ('a','b') and IN ('a, b') render identically but
// encode different predicate vectors, so they must not share a pool key.
func TestKeySeparatesAmbiguousINLists(t *testing.T) {
	a, b := inScan("a", "b"), inScan("a, b")
	if a.Signature() != b.Signature() {
		t.Fatalf("signatures differ (%q vs %q); the ambiguity this test pins is gone",
			a.Signature(), b.Signature())
	}
	e := newEncoder()
	ea, err := e.Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := e.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	if ea.Nodes[0].Key == eb.Nodes[0].Key {
		t.Fatal("IN ('a','b') and IN ('a, b') share a key")
	}
}

// labeledCorpus plans and executes the test-size Synthetic and JOBFull
// corpora.
func labeledCorpus(t *testing.T) []*workload.Labeled {
	t.Helper()
	lab := &workload.Labeler{Planner: testPl, Engine: testEng}
	qs := append(workload.Synthetic(testDB, 41, 60), workload.JOBFull(testDB, 43, 30)...)
	samples := lab.Label(qs)
	if len(samples) < 30 {
		t.Fatalf("only %d/%d corpus queries labeled", len(samples), len(qs))
	}
	return samples
}

// encodeKeys encodes root and returns each subplan's key in plan.Walk
// (preorder) order, which is the order Encode lays nodes out in.
func encodeKeys(t *testing.T, e *Encoder, root *plan.Node) []plan.Key {
	t.Helper()
	ep, err := e.Encode(root)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]plan.Key, len(ep.Nodes))
	for i := range ep.Nodes {
		keys[i] = ep.Nodes[i].Key
	}
	return keys
}

// TestKeyMatchesSignatureOverCorpora is the collision check over the
// generated corpora: on every subplan, keys and signatures partition the
// subplans identically — equal signatures give equal keys and no two
// distinct signatures share a key.
func TestKeyMatchesSignatureOverCorpora(t *testing.T) {
	e := newEncoder()
	keyOf := map[string]plan.Key{}
	sigOf := map[plan.Key]string{}
	for _, s := range labeledCorpus(t) {
		keys := encodeKeys(t, e, s.Plan)
		i := 0
		s.Plan.Walk(func(n *plan.Node) {
			sig, key := n.Signature(), keys[i]
			i++
			if k, ok := keyOf[sig]; ok && k != key {
				t.Fatalf("equal signatures, different keys: %s", sig)
			}
			if other, ok := sigOf[key]; ok && other != sig {
				t.Fatalf("key collision between %s and %s", sig, other)
			}
			keyOf[sig], sigOf[key] = key, sig
		})
	}
	t.Logf("%d distinct subplans", len(keyOf))
	if len(keyOf) < 100 {
		t.Fatalf("only %d distinct subplans; the check is too small", len(keyOf))
	}
}

// TestKeyIsStructural checks the key depends on the subtree alone, not on
// where it sits: a cloned subtree keeps its key under a different parent
// and on its own, while swapping a join's inputs changes the key.
func TestKeyIsStructural(t *testing.T) {
	e := newEncoder()
	joins := 0
	for _, s := range labeledCorpus(t) {
		keys := encodeKeys(t, e, s.Plan)
		i := 0
		s.Plan.Walk(func(n *plan.Node) {
			key := keys[i]
			i++
			if got := encodeKeys(t, e, n.Clone())[0]; got != key {
				t.Fatalf("subtree re-keyed on its own: %s", n.Signature())
			}
			wrapped := &plan.Node{Type: plan.Sort,
				SortKeys: []plan.ColRef{{Table: "title", Column: "id"}}, Left: n.Clone()}
			if got := encodeKeys(t, e, wrapped)[1]; got != key {
				t.Fatalf("subtree re-keyed under a new parent: %s", n.Signature())
			}
			if n.Left == nil || n.Right == nil {
				return
			}
			swapped := n.Clone()
			swapped.Left, swapped.Right = swapped.Right, swapped.Left
			if swapped.Left.Signature() == swapped.Right.Signature() {
				return
			}
			joins++
			if encodeKeys(t, e, swapped)[0] == key {
				t.Fatalf("swapping inputs kept the key: %s", n.Signature())
			}
		})
	}
	if joins == 0 {
		t.Fatal("no two-input subplans in the corpora")
	}
}
