package core

import (
	"costest/internal/feature"
)

// InferenceSession owns every per-node forward buffer the model needs to
// evaluate one plan — embedding segments, predicate-tree states, cell
// states, head scratch — sized from the model config and reused across
// calls. After warm-up on the largest plan shape it has seen, steady-state
// Estimate/EstimateWithPool performs zero heap allocations per plan, the
// property that lets the estimator sit inside an optimizer's
// plan-enumeration loop (the paper's Table 12 use case).
//
// A session is bound to one model and is NOT safe for concurrent use; give
// each goroutine its own (Model.Estimate maintains an internal sync.Pool of
// sessions for the convenience API).
type InferenceSession struct {
	m *Model

	// nodes[i] is the reusable forward state for plan node i; visited marks
	// which slots the current call filled (pool hits skip subtrees).
	nodes   []nodeState
	visited []bool

	// preds is a bump-allocated arena of predicate-tree node states; predOff
	// is the high-water mark of the current call.
	preds   []*predState
	predOff int

	// scratch evaluates the estimation heads on representations that have no
	// node slot (cardinality nodes served straight from the memory pool).
	scratch nodeState

	// out1 is the shared 1-wide output buffer of the head sigmoid layers.
	out1 []float64

	// poolGen is the snapshot generation this session stamps on memory-pool
	// traffic: GetGen only accepts entries recorded under the same
	// generation and PutGen records it. Zero for standalone sessions
	// (matching a fresh pool's generation); a Server sets it to the bound
	// snapshot's version so pooled representations never cross a hot swap.
	poolGen uint64

	// grads is the training-only backward arena; hg the reusable per-node
	// head-gradient buffer.
	grads f64Arena
	hg    []headGrad
}

// NewSession returns a session bound to m with warm head scratch. Node and
// predicate buffers grow on first contact with each plan shape and are
// reused afterwards.
func NewSession(m *Model) *InferenceSession {
	s := &InferenceSession{m: m, out1: make([]float64, 1)}
	s.initSlot(&s.scratch)
	return s
}

// Rebind points the session at a different model sharing the original's
// configuration and encoder — a hot-swapped snapshot. Every buffer is sized
// by the configuration alone, so the warm arenas carry over and the rebind
// itself is one pointer store; it panics if the models are not
// interchangeable. The caller owns concurrency: a session must not be
// rebound while it is evaluating.
func (s *InferenceSession) Rebind(m *Model) {
	if m.Cfg != s.m.Cfg || m.Enc != s.m.Enc {
		panic("core: Rebind across different model configurations")
	}
	s.m = m
}

// begin prepares the session for one plan evaluation.
func (s *InferenceSession) begin(ep *feature.EncodedPlan) {
	n := len(ep.Nodes)
	for len(s.nodes) < n {
		s.nodes = append(s.nodes, nodeState{})
		s.initSlot(&s.nodes[len(s.nodes)-1])
	}
	if cap(s.visited) < n {
		s.visited = make([]bool, n)
	}
	s.visited = s.visited[:n]
	for i := range s.visited {
		s.visited[i] = false
	}
	s.predOff = 0
}

// initSlot allocates one node slot's buffers for the model's configuration.
func (s *InferenceSession) initSlot(ns *nodeState) {
	m := s.m
	ns.opOut = make([]float64, m.eOp)
	ns.metaOut = make([]float64, m.eMeta)
	if m.bmL != nil {
		ns.bmOut = make([]float64, m.eBm)
	}
	ns.predOut = make([]float64, m.ePred)
	ns.e = make([]float64, m.embedDim())
	switch m.Cfg.Rep {
	case RepLSTM:
		ns.cell = m.repCell.newState()
	case RepNN:
		ns.nnZ = make([]float64, m.embedDim()+2*m.Cfg.Hidden)
		ns.nnR = make([]float64, m.Cfg.Hidden)
		ns.nnG = make([]float64, m.Cfg.Hidden) // unused channel stays zero
	}
	ns.costHOut = make([]float64, m.Cfg.EstHidden)
	ns.cardHOut = make([]float64, m.Cfg.EstHidden)
}

// takePreds hands out n predicate-state slots from the arena, growing it on
// first contact with a larger predicate tree.
func (s *InferenceSession) takePreds(n int) []*predState {
	for len(s.preds) < s.predOff+n {
		s.preds = append(s.preds, &predState{})
	}
	out := s.preds[s.predOff : s.predOff+n]
	s.predOff += n
	return out
}

// Estimate runs the model over an encoded plan and returns denormalized
// estimates: the cost at the root, and the cardinality at the topmost
// non-aggregate node (aggregates always emit one row, so the query's
// cardinality is defined below them).
//
// costlint:noalloc
func (s *InferenceSession) Estimate(ep *feature.EncodedPlan) (cost, card float64) {
	return s.EstimateWithPool(ep, nil)
}

// EstimateWithPool is Estimate with a representation memory pool: sub-plans
// already in the pool reuse their stored representations, and new sub-plan
// representations are inserted (the paper's online workflow, Section 3).
//
// costlint:noalloc
func (s *InferenceSession) EstimateWithPool(ep *feature.EncodedPlan, pool *MemoryPool) (cost, card float64) {
	m := s.m
	s.begin(ep)
	root := s.forwardNode(ep, ep.Root, pool)
	s.forwardHeads(root)
	cardNS := root
	if ep.CardNode != ep.Root {
		cardNS = nil
		if s.visited[ep.CardNode] {
			cardNS = &s.nodes[ep.CardNode]
		}
		if cardNS == nil && pool != nil {
			// The cardinality node was skipped because an enclosing sub-plan
			// came from the pool; fetch its representation by key.
			if _, r, ok := pool.GetGen(ep.Nodes[ep.CardNode].Key, s.poolGen); ok {
				s.scratch.r = r
				cardNS = &s.scratch
			}
		}
		if cardNS == nil {
			// A bounded pool may have evicted the cardinality node while an
			// enclosing sub-plan stayed resident: recompute its subtree.
			cardNS = s.forwardNode(ep, ep.CardNode, pool)
		}
		if cardNS != root {
			s.forwardHeads(cardNS)
		}
	}
	return m.CostNorm.Denormalize(root.costS), m.CardNorm.Denormalize(cardNS.cardS)
}

// forwardTrain runs a full forward pass evaluating the estimation heads at
// every node, which training (and sub-plan supervision) needs.
func (s *InferenceSession) forwardTrain(ep *feature.EncodedPlan) {
	s.begin(ep)
	s.forwardNode(ep, ep.Root, nil)
	for i := range ep.Nodes {
		s.forwardHeads(&s.nodes[i])
	}
}

// f64Arena is a bump allocator over one float64 slab, reset per backward
// pass. When a pass outgrows the slab the overflow falls back to the heap
// and the slab is resized at the next reset, so steady-state passes over
// plans no larger than already seen allocate nothing.
type f64Arena struct {
	slab     []float64
	off      int
	overflow int
}

// take returns a zeroed length-n slice carved from the slab.
func (a *f64Arena) take(n int) []float64 {
	if a.off+n <= len(a.slab) {
		s := a.slab[a.off : a.off+n : a.off+n]
		a.off += n
		for i := range s {
			s[i] = 0
		}
		return s
	}
	a.overflow += n
	return make([]float64, n)
}

// reset reclaims the slab, growing it if the last pass overflowed.
func (a *f64Arena) reset() {
	if a.overflow > 0 {
		a.slab = make([]float64, len(a.slab)+a.overflow+a.overflow/2)
		a.overflow = 0
	}
	a.off = 0
}
