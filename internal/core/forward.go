package core

import (
	"costest/internal/feature"
	"costest/internal/nn"
	"costest/internal/tensor"
)

// predState caches one predicate-tree node's forward pass. Its buffers are
// allocated lazily the first time an arena slot is used and reused across
// calls.
type predState struct {
	out []float64
	// cell is set for the tree-LSTM predicate variant.
	cell *cellState
}

// nodeState caches one plan node's forward pass. Slots live in an
// InferenceSession and every buffer is owned by the slot; only g/r may be
// re-pointed at pooled representations on a memory-pool hit.
type nodeState struct {
	opOut, metaOut, bmOut []float64
	pred                  []*predState // aligned with Pred.Nodes
	predOut               []float64    // root predicate embedding (zero when no predicate)
	e                     []float64    // concatenated embedding E

	cell     *cellState // RepLSTM
	nnZ      []float64  // RepNN input [E, Rl, Rr]
	nnR, nnG []float64  // RepNN owned outputs
	g, r     []float64  // representation views (owned buffers or pooled slices)

	// Estimation head caches (populated when the head is evaluated).
	costHOut, cardHOut []float64
	costS, cardS       float64
}

// Estimate runs the model over an encoded plan using a session drawn from
// the model's internal pool, so concurrent callers each get private
// buffers. Optimizer loops that call per-plan estimation at high rates
// should hold their own NewSession and call its Estimate directly.
func (m *Model) Estimate(ep *feature.EncodedPlan) (cost, card float64) {
	s := m.session()
	cost, card = s.Estimate(ep)
	m.sessions.Put(s)
	return cost, card
}

// EstimateWithPool is Estimate with a representation memory pool: sub-plans
// already in the pool reuse their stored representations, and new sub-plan
// representations are inserted (the paper's online workflow, Section 3).
func (m *Model) EstimateWithPool(ep *feature.EncodedPlan, pool *MemoryPool) (cost, card float64) {
	s := m.session()
	cost, card = s.EstimateWithPool(ep, pool)
	m.sessions.Put(s)
	return cost, card
}

// session fetches a reusable inference session from the model's pool.
func (m *Model) session() *InferenceSession {
	if s, ok := m.sessions.Get().(*InferenceSession); ok {
		return s
	}
	return NewSession(m)
}

// forwardTrain runs a training forward pass in a fresh session and returns
// it holding the per-node states (the caller keeps it for backward). The
// Trainer reuses its own session instead; this helper serves one-off
// callers, so it deliberately does not draw from the Estimate session pool.
func (m *Model) forwardTrain(ep *feature.EncodedPlan) *InferenceSession {
	s := NewSession(m)
	s.forwardTrain(ep)
	return s
}

// forwardNode evaluates the subtree rooted at idx and returns its state.
func (s *InferenceSession) forwardNode(ep *feature.EncodedPlan, idx int, pool *MemoryPool) *nodeState {
	m := s.m
	node := &ep.Nodes[idx]
	ns := &s.nodes[idx]
	s.visited[idx] = true
	ns.pred = nil

	if pool != nil {
		if g, r, ok := pool.GetGen(node.Key, s.poolGen); ok {
			ns.g, ns.r = g, r
			return ns
		}
	}

	var gl, rl, gr, rr []float64
	if node.Left >= 0 {
		c := s.forwardNode(ep, node.Left, pool)
		gl, rl = c.g, c.r
	}
	if node.Right >= 0 {
		c := s.forwardNode(ep, node.Right, pool)
		gr, rr = c.g, c.r
	}

	s.embedNode(node, ns)

	switch m.Cfg.Rep {
	case RepLSTM:
		m.repCell.forward(ns.cell, ns.e, gl, rl, gr, rr)
		ns.g, ns.r = ns.cell.g, ns.cell.rOut
	case RepNN:
		// Naive unit: R = ReLU(W·[E, Rl, Rr] + b); no long-memory channel.
		de := m.embedDim()
		dh := m.Cfg.Hidden
		copy(ns.nnZ, ns.e)
		if rl != nil {
			copy(ns.nnZ[de:de+dh], rl)
		} else {
			tensor.ZeroVec(ns.nnZ[de : de+dh])
		}
		if rr != nil {
			copy(ns.nnZ[de+dh:], rr)
		} else {
			tensor.ZeroVec(ns.nnZ[de+dh:])
		}
		m.repNN.Forward(ns.nnR, ns.nnZ)
		nn.ReLU(ns.nnR, ns.nnR)
		ns.g, ns.r = ns.nnG, ns.nnR
	}

	if pool != nil {
		pool.PutGen(node.Key, ns.g, ns.r, s.poolGen)
	}
	return ns
}

// embedNode runs the embedding layer for one plan node into the node slot's
// buffers.
func (s *InferenceSession) embedNode(node *feature.EncodedNode, ns *nodeState) {
	m := s.m
	// One-hot and bitmap features are sparse: visit only the weight columns
	// of their set bits (the same kernel the batch path uses). A nil bitmap
	// is an all-zero input, which reduces to the bias.
	sparseLinearReLU(ns.opOut, m.opL, node.Op)
	sparseLinearReLU(ns.metaOut, m.metaL, node.Meta)
	if m.bmL != nil {
		if node.Bitmap != nil {
			sparseLinearReLU(ns.bmOut, m.bmL, node.Bitmap)
		} else {
			biasReLU(ns.bmOut, m.bmL)
		}
	}

	if !node.Pred.Empty() {
		ns.pred = s.takePreds(len(node.Pred.Nodes))
		root := s.forwardPred(&node.Pred, 0, ns)
		copy(ns.predOut, root)
	} else {
		tensor.ZeroVec(ns.predOut)
	}

	if m.bmL != nil {
		tensor.Concat(ns.e, ns.opOut, ns.metaOut, ns.bmOut, ns.predOut)
	} else {
		tensor.Concat(ns.e, ns.opOut, ns.metaOut, ns.predOut)
	}
}

// forwardPred embeds the predicate subtree at pidx, returning its vector.
func (s *InferenceSession) forwardPred(ep *feature.EncodedPred, pidx int, ns *nodeState) []float64 {
	m := s.m
	pn := &ep.Nodes[pidx]
	ps := ns.pred[pidx]

	switch m.Cfg.Pred {
	case PredPool, PredPoolMean:
		if ps.out == nil {
			ps.out = make([]float64, m.ePred)
		}
		if pn.IsLeaf {
			// Leaf: W_p·x + b_p (linear, per the paper's formulation).
			m.predLeaf.Forward(ps.out, pn.Vec)
			return ps.out
		}
		l := s.forwardPred(ep, pn.Left, ns)
		r := s.forwardPred(ep, pn.Right, ns)
		switch {
		case m.Cfg.Pred == PredPoolMean: // ablation: connective-blind mean
			tensor.Mean(ps.out, l, r)
		case pn.Bool == 0: // AND → min pooling
			tensor.MinInto(ps.out, l, r)
		default: // OR → max pooling
			tensor.MaxInto(ps.out, l, r)
		}
		return ps.out
	default: // PredLSTM: run the cell over the predicate tree.
		var gl, rl, gr, rr []float64
		if pn.Left >= 0 {
			s.forwardPred(ep, pn.Left, ns)
			c := ns.pred[pn.Left].cell
			gl, rl = c.g, c.rOut
		}
		if pn.Right >= 0 {
			s.forwardPred(ep, pn.Right, ns)
			c := ns.pred[pn.Right].cell
			gr, rr = c.g, c.rOut
		}
		if ps.cell == nil {
			ps.cell = m.predCell.newState()
		}
		m.predCell.forward(ps.cell, pn.Vec, gl, rl, gr, rr)
		ps.out = ps.cell.rOut
		return ps.out
	}
}

// forwardHeads evaluates the estimation layer on a node's representation,
// caching the hidden activations in the slot for backward.
func (s *InferenceSession) forwardHeads(ns *nodeState) {
	m := s.m
	m.costH.Forward(ns.costHOut, ns.r)
	nn.ReLU(ns.costHOut, ns.costHOut)
	out := s.out1
	m.costO.Forward(out, ns.costHOut)
	nn.Sigmoid(out, out)
	ns.costS = out[0]

	m.cardH.Forward(ns.cardHOut, ns.r)
	nn.ReLU(ns.cardHOut, ns.cardHOut)
	m.cardO.Forward(out, ns.cardHOut)
	nn.Sigmoid(out, out)
	ns.cardS = out[0]
}
