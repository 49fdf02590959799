package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"costest/internal/core"
	"costest/internal/feature"
	"costest/internal/plan"
	"costest/internal/query"
	"costest/internal/serve"
	"costest/internal/workload"
)

// estimateRequest mirrors the /estimate body: exactly one of Plan or Plans.
type estimateRequest struct {
	Plan      *serve.WirePlan   `json:"plan,omitempty"`
	Plans     []*serve.WirePlan `json:"plans,omitempty"`
	TimeoutMS int               `json:"timeout_ms,omitempty"`
}

// corpusPlan is one distinct labelled plan: its wire form and the true cost
// and cardinality the executor measured.
type corpusPlan struct {
	wire       *serve.WirePlan
	cost, card float64
}

// request is one generated /estimate body and the corpus plans it carries.
type request struct {
	body  []byte
	plans []int
}

// inputs is everything a workload sends, generated before any timing
// starts. The plan corpora are fixed properties of the workloads, drawn
// from corpusSeed; --seed draws the traffic over them: which plans are hot,
// how plans are grouped into requests, and their order. Accuracy figures
// then compare like with like across seeds.
type inputs struct {
	corpus []corpusPlan
	warm   []request // warm-up traffic, sent before the measured phase
	load   []request // measured traffic: the open-loop schedule, or the closed-loop cycle
}

const corpusSeed = 7

// distinctCorpus labels queries from gen (called with successive seeds)
// until it holds n plans with distinct signatures, in generation order.
func distinctCorpus(sub *substrate, seed int64, n int, gen func(seed int64, n int) []*query.Query) ([]corpusPlan, error) {
	seen := make(map[string]bool, n)
	subplans := make(map[string]bool)
	var out []corpusPlan
	for round := int64(0); len(out) < n; round++ {
		if round == 16 {
			return nil, fmt.Errorf("only %d distinct plans after %d rounds, want %d", len(out), round, n)
		}
		for _, l := range sub.labeler.Label(gen(seed*1000+round, n)) {
			sig := l.Plan.Signature()
			if seen[sig] || len(out) == n {
				continue
			}
			seen[sig] = true
			l.Plan.Walk(func(n *plan.Node) { subplans[n.Signature()] = true })
			out = append(out, corpusPlan{wire: serve.EncodeWire(l.Plan), cost: l.Cost, card: l.Card})
		}
	}
	logf("corpus: %d distinct plans, %d distinct subplans (pool bound %d)", len(out), len(subplans), poolBound)
	return out, nil
}

func marshalRequest(corpus []corpusPlan, plans []int, single bool) (request, error) {
	var body estimateRequest
	if single {
		body.Plan = corpus[plans[0]].wire
	} else {
		for _, i := range plans {
			body.Plans = append(body.Plans, corpus[i].wire)
		}
	}
	b, err := json.Marshal(body)
	if err != nil {
		return request{}, fmt.Errorf("marshal request: %w", err)
	}
	return request{body: b, plans: plans}, nil
}

// Point traffic: single-plan requests over a small hot set, as an optimizer
// costing one candidate at a time.
const (
	pointPlans   = 64
	pointRate    = 300 // requests per second
	pointZipfS   = 1.2
	warmupSecond = 1
)

// zipfSequence draws n ranks in [0, k) from a Zipf(s) law and maps rank to
// plan through a seeded permutation, so the hottest plan differs by seed.
func zipfSequence(seed int64, k, n int, s float64) []int {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(k)
	z := rand.NewZipf(rng, s, 1, uint64(k-1))
	out := make([]int, n)
	for i := range out {
		out[i] = perm[z.Uint64()]
	}
	return out
}

// pointInputs builds the point-hot (and train-serve read) traffic: shallow
// Synthetic plans, one per request, in Zipf order at pointRate.
func pointInputs(sub *substrate, seed int64, seconds int) (*inputs, error) {
	corpus, err := distinctCorpus(sub, corpusSeed, pointPlans, func(s int64, n int) []*query.Query {
		return workload.Synthetic(sub.db, s, n)
	})
	if err != nil {
		return nil, err
	}
	nWarm, nLoad := pointRate*warmupSecond, pointRate*seconds
	seq := zipfSequence(seed, len(corpus), nWarm+nLoad, pointZipfS)
	in := &inputs{corpus: corpus}
	// Warm-up first touches every plan once, then follows the Zipf mix.
	for i := range corpus {
		seq[i%nWarm] = i
	}
	for i, p := range seq {
		r, err := marshalRequest(corpus, []int{p}, true)
		if err != nil {
			return nil, err
		}
		if i < nWarm {
			in.warm = append(in.warm, r)
		} else {
			in.load = append(in.load, r)
		}
	}
	return in, nil
}

// Bulk traffic: requests carrying a candidate set of deep plans, from a
// corpus whose distinct subplans outnumber the pool bound several times.
const (
	bulkPlansPerRequest = 32
	bulkCorpus          = 1536
)

// bulkInputs builds the bulk-cold traffic: the JOBFull corpus in a seeded
// order, cut into requests of bulkPlansPerRequest distinct plans, cycled.
func bulkInputs(sub *substrate, seed int64, _ int) (*inputs, error) {
	corpus, err := distinctCorpus(sub, corpusSeed, bulkCorpus, func(s int64, n int) []*query.Query {
		return workload.JOBFull(sub.db, s, n)
	})
	if err != nil {
		return nil, err
	}
	order := rand.New(rand.NewSource(seed)).Perm(len(corpus))
	in := &inputs{corpus: corpus}
	for i := 0; i+bulkPlansPerRequest <= len(order); i += bulkPlansPerRequest {
		r, err := marshalRequest(corpus, order[i:i+bulkPlansPerRequest], false)
		if err != nil {
			return nil, err
		}
		in.load = append(in.load, r)
	}
	return in, nil
}

// servedPlans decodes every corpus plan the way the daemon does — JSON wire
// form, WirePlan.Decode, Encoder.Encode — so oracle and timing inputs are
// exactly what the serving path sees.
func servedPlans(corpus []corpusPlan, enc *feature.Encoder) ([]*feature.EncodedPlan, error) {
	eps := make([]*feature.EncodedPlan, len(corpus))
	for i, c := range corpus {
		b, err := json.Marshal(c.wire)
		if err != nil {
			return nil, err
		}
		var w serve.WirePlan
		if err := json.Unmarshal(b, &w); err != nil {
			return nil, err
		}
		root, err := w.Decode()
		if err != nil {
			return nil, fmt.Errorf("decode corpus plan %d: %w", i, err)
		}
		if eps[i], err = enc.Encode(root); err != nil {
			return nil, fmt.Errorf("encode corpus plan %d: %w", i, err)
		}
	}
	return eps, nil
}

// oracle computes the expected estimate of every corpus plan on a private
// Server over the stack's static model, so the stack's pool and counters
// are untouched.
func oracle(model *core.Model, eps []*feature.EncodedPlan) []core.Estimate {
	ests, _ := core.NewServer(model, nil).EstimateBatch(eps, 1)
	return ests
}
