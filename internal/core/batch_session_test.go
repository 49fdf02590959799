package core

import (
	"math"
	"sync"
	"testing"

	"costest/internal/feature"
)

// TestBatchSessionReuseMatchesFresh drives one batch session across varying
// batch shapes (full corpus, subsets, reversed order) and checks every
// estimate matches a fresh session's bit for bit — stale per-level state
// leaking between calls would show up here.
func TestBatchSessionReuseMatchesFresh(t *testing.T) {
	eps := benchCorpus(t, 16)
	for _, variant := range sessionVariants {
		cfg := TestConfig()
		variant.mod(&cfg)
		m := New(cfg, testEnc)
		sess := NewBatchSession(m)
		check := func(batch []*feature.EncodedPlan) {
			got := sess.EstimateBatch(batch, 1)
			want := NewBatchSession(m).EstimateBatch(batch, 1)
			for i := range batch {
				if got[i] != want[i] {
					t.Fatalf("%s: reused session %+v != fresh session %+v at plan %d",
						variant.name, got[i], want[i], i)
				}
			}
		}
		check(eps)
		check(eps[:4])
		rev := make([]*feature.EncodedPlan, len(eps))
		for i := range eps {
			rev[i] = eps[len(eps)-1-i]
		}
		check(rev)
		check(eps[7:9])
		check(eps)
	}
}

// TestBatchSessionMatchesSequential checks the session batch path against
// the single-plan path for every architecture variant (the session is the
// engine behind Model.EstimateBatch, but assert it directly too). The match
// is bit-exact: every tensor kernel accumulates each output element in
// dotKernel's canonical sequential order, so batching must not perturb even
// the last bit — the invariant the hot-swap serving tests build on.
func TestBatchSessionMatchesSequential(t *testing.T) {
	eps := benchCorpus(t, 20)
	for _, variant := range sessionVariants {
		cfg := TestConfig()
		variant.mod(&cfg)
		m := New(cfg, testEnc)
		sess := NewBatchSession(m)
		for _, workers := range []int{1, 4} {
			batch := sess.EstimateBatch(eps, workers)
			for i, ep := range eps {
				cost, card := m.Estimate(ep)
				if batch[i].Cost != cost || batch[i].Card != card {
					t.Fatalf("%s/workers=%d: batch[%d] = (%g,%g), sequential = (%g,%g)",
						variant.name, workers, i, batch[i].Cost, batch[i].Card, cost, card)
				}
			}
		}
	}
}

// TestBatchSessionZeroAlloc asserts the tentpole property: after warm-up, a
// single-worker EstimateBatch performs zero heap allocations per call across
// all architecture variants. (Multi-worker runs pay only the goroutine
// fan-out of parallelFor; the per-call arenas are shared.)
func TestBatchSessionZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	eps := benchCorpus(t, 12)
	for _, variant := range sessionVariants {
		cfg := TestConfig()
		variant.mod(&cfg)
		m := New(cfg, testEnc)
		sess := NewBatchSession(m)
		sess.EstimateBatch(eps, 1) // warm-up sizes every arena
		sess.EstimateBatch(eps[:5], 1)
		allocs := testing.AllocsPerRun(100, func() {
			sess.EstimateBatch(eps, 1)
		})
		if allocs != 0 {
			t.Errorf("%s: warm EstimateBatch allocates %.1f objects/op, want 0", variant.name, allocs)
		}
		// Smaller batches of already-seen plans must stay allocation-free too.
		allocs = testing.AllocsPerRun(100, func() {
			sess.EstimateBatch(eps[:5], 1)
		})
		if allocs != 0 {
			t.Errorf("%s: warm sub-batch EstimateBatch allocates %.1f objects/op, want 0", variant.name, allocs)
		}
	}
}

// TestEstimateBatchWithPool checks the pooled batch path end to end: results
// must match the unpooled batch bit for bit, both on a cold pool (all misses
// + inserts) and a warm pool (subtree hits skip level rows) — pooled
// representations carry exactly the values recomputation would produce.
func TestEstimateBatchWithPool(t *testing.T) {
	eps := benchCorpus(t, 16)
	for _, variant := range sessionVariants {
		cfg := TestConfig()
		variant.mod(&cfg)
		m := New(cfg, testEnc)
		want := m.EstimateBatch(eps, 2)
		pool := NewMemoryPool()

		cold := m.EstimateBatchWithPool(eps, pool, 2)
		if pool.Len() == 0 {
			t.Fatalf("%s: pool empty after cold batch", variant.name)
		}
		warm := m.EstimateBatchWithPool(eps, pool, 2)
		if pool.HitRate() == 0 {
			t.Fatalf("%s: warm batch produced no pool hits", variant.name)
		}
		for i := range eps {
			for name, got := range map[string]Estimate{"cold": cold[i], "warm": warm[i]} {
				if got != want[i] {
					t.Fatalf("%s: %s pooled batch[%d] = %+v, want %+v", variant.name, name, i, got, want[i])
				}
			}
		}
		// Pooled batch must agree with the pooled single-plan path sharing
		// the same pool.
		sess := NewSession(m)
		for i, ep := range eps {
			c, d := sess.EstimateWithPool(ep, pool)
			if warm[i].Cost != c || warm[i].Card != d {
				t.Fatalf("%s: pooled batch[%d] = %+v, single-plan pooled = (%g,%g)",
					variant.name, i, warm[i], c, d)
			}
		}
	}
}

// TestEstimateBatchWithPoolEvictedCardNode forces the bounded-pool shape: a
// plan's root representation is resident but its cardinality node's entry
// was evicted. The batch path must recompute that subtree rather than
// degrade the cardinality estimate.
func TestEstimateBatchWithPoolEvictedCardNode(t *testing.T) {
	eps := benchCorpus(t, 16)
	cfg := TestConfig()
	m := New(cfg, testEnc)
	want := m.EstimateBatch(eps, 1)
	tested := 0
	for i, ep := range eps {
		if ep.CardNode == ep.Root {
			continue
		}
		full := NewMemoryPool()
		m.EstimateBatchWithPool(eps[i:i+1], full, 1)
		g, r, ok := full.Get(ep.Nodes[ep.Root].Key)
		if !ok {
			t.Fatal("root representation missing from warm pool")
		}
		// A pool holding only the root: Get(root) hits, Get(cardNode)
		// misses — exactly the post-eviction shape.
		pool := NewMemoryPool()
		pool.Put(ep.Nodes[ep.Root].Key, g, r)
		got := m.EstimateBatchWithPool(eps[i:i+1], pool, 1)
		// Recomputing the card subtree regroups its GEMM levels, but the
		// canonical kernel order makes level grouping irrelevant to the
		// result: compare bit-exactly.
		if got[0] != want[i] {
			t.Fatalf("evicted card node degraded batch estimate: %+v vs %+v", got[0], want[i])
		}
		tested++
	}
	if tested == 0 {
		t.Skip("no plan in corpus with CardNode != Root")
	}
}

// TestTrainEpochBatchedGradientsMatch is the backward-pass equivalence gate:
// accumulating one minibatch through the level-wise GEMM backward must
// reproduce the per-sample recursive backward's parameter gradients within
// floating-point reassociation tolerance, for every architecture variant and
// for both supervision modes.
func TestTrainEpochBatchedGradientsMatch(t *testing.T) {
	eps := benchCorpus(t, 12)
	for _, variant := range sessionVariants {
		for _, subplan := range []bool{true, false} {
			cfg := TestConfig()
			variant.mod(&cfg)
			cfg.SubplanLoss = subplan
			mA := New(cfg, testEnc)
			mB := New(cfg, testEnc) // identical seed → identical weights
			trA := NewTrainer(mA)
			trB := NewTrainer(mB)
			trA.FitNormalizers(eps)
			trB.FitNormalizers(eps)

			mA.PS.ZeroGrad()
			var lossA float64
			for _, ep := range eps {
				lossA += trA.accumulate(ep)
			}
			mB.PS.ZeroGrad()
			trB.bsess = NewBatchSession(mB)
			lossB := trB.accumulateBatch(eps, 2)

			if math.Abs(lossA-lossB) > 1e-6*math.Max(1, math.Abs(lossA)) {
				t.Errorf("%s/subplan=%v: loss %g (per-sample) vs %g (batched)",
					variant.name, subplan, lossA, lossB)
			}
			paramsA := mA.PS.Params()
			paramsB := mB.PS.Params()
			for p := range paramsA {
				ga, gb := paramsA[p].Grad, paramsB[p].Grad
				for i := range ga {
					if math.Abs(ga[i]-gb[i]) > 1e-6*math.Max(1, math.Abs(ga[i])) {
						t.Fatalf("%s/subplan=%v: %s grad[%d] = %g (per-sample) vs %g (batched)",
							variant.name, subplan, paramsA[p].Name, i, ga[i], gb[i])
					}
				}
			}
		}
	}
}

// TestTrainEpochBatchedReducesLoss trains end to end through the batched
// path and checks learning actually happens (optimizer wiring, not just
// gradient math).
func TestTrainEpochBatchedReducesLoss(t *testing.T) {
	eps := labeledPlans(t, 303, 60, false)
	train := eps[:len(eps)*8/10]
	cfg := TestConfig()
	m := New(cfg, testEnc)
	tr := NewTrainer(m)
	tr.FitNormalizers(train)
	first := tr.TrainEpochBatched(train, 16, 2)
	var last float64
	for e := 0; e < 11; e++ {
		last = tr.TrainEpochBatched(train, 16, 2)
	}
	if last >= first {
		t.Fatalf("batched training loss did not decrease: %g -> %g", first, last)
	}
}

// TestBatchedTrainingConcurrentWithPooledEstimates exercises the paper's
// serving topology under the race detector: one goroutine trains a model
// with the batched runtime while serving goroutines hammer a second model's
// pooled single-plan and batch paths against a shared memory pool.
func TestBatchedTrainingConcurrentWithPooledEstimates(t *testing.T) {
	eps := benchCorpus(t, 12)
	cfg := TestConfig()
	trainM := New(cfg, testEnc)
	serveM := New(cfg, testEnc)
	tr := NewTrainer(trainM)
	tr.FitNormalizers(eps)
	pool := NewBoundedMemoryPool(256)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for e := 0; e < 3; e++ {
			tr.TrainEpochBatched(eps, 8, 2)
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := NewSession(serveM)
			for k := 0; k < 30; k++ {
				sess.EstimateWithPool(eps[(w+k)%len(eps)], pool)
				serveM.EstimateBatchWithPool(eps, pool, 2)
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkEstimateBatch measures the steady-state batch serving path: 24
// plans per call through a warm BatchSession (workers = GOMAXPROCS).
func BenchmarkEstimateBatch(b *testing.B) {
	eps := benchCorpus(b, 24)
	for _, variant := range []struct {
		name string
		mod  func(*Config)
	}{
		{"pool", func(c *Config) {}},
		{"predlstm", func(c *Config) { c.Pred = PredLSTM }},
		{"repnn", func(c *Config) { c.Rep = RepNN }},
	} {
		cfg := TestConfig()
		variant.mod(&cfg)
		m := New(cfg, testEnc)
		sess := NewBatchSession(m)
		sess.EstimateBatch(eps, 0)
		b.Run(variant.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sess.EstimateBatch(eps, 0)
			}
		})
	}
}

// BenchmarkEstimateBatchPooled measures the pooled batch path against a warm
// representation memory pool.
func BenchmarkEstimateBatchPooled(b *testing.B) {
	eps := benchCorpus(b, 24)
	cfg := TestConfig()
	m := New(cfg, testEnc)
	sess := NewBatchSession(m)
	pool := NewMemoryPool()
	sess.EstimateBatchWithPool(eps, pool, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.EstimateBatchWithPool(eps, pool, 0)
	}
	b.ReportMetric(pool.HitRate()*100, "hit%")
}

// BenchmarkTrainEpoch measures the per-sample reference trainer (one epoch,
// 64 samples, batch 16) — the baseline TrainEpochBatched must beat.
func BenchmarkTrainEpoch(b *testing.B) {
	eps := benchCorpus(b, 64)
	cfg := TestConfig()
	m := New(cfg, testEnc)
	tr := NewTrainer(m)
	tr.FitNormalizers(eps)
	tr.TrainEpoch(eps, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.TrainEpoch(eps, 16)
	}
}

// BenchmarkTrainEpochBatched measures the level-wise batched trainer on the
// same workload as BenchmarkTrainEpoch.
func BenchmarkTrainEpochBatched(b *testing.B) {
	eps := benchCorpus(b, 64)
	cfg := TestConfig()
	m := New(cfg, testEnc)
	tr := NewTrainer(m)
	tr.FitNormalizers(eps)
	tr.TrainEpochBatched(eps, 16, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.TrainEpochBatched(eps, 16, 0)
	}
}
