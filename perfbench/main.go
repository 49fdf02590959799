// Command perfbench is the estimator's end-to-end benchmark. It boots the
// daemon stack in-process — a training primary and a read replica, each
// wired as cmd/costestd wires it with its default flags, on loopback
// listeners — drives one workload over HTTP, checks every answer against an
// oracle, and prints one JSON result line.
//
//	perfbench --workload point-hot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the workload again with spans around each layer's public calls and
// reports the per-layer metrics instead. See PREDICTIONS.md for why each
// workload exists and what each layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"costest/internal/core"
	"costest/internal/feature"
	"costest/internal/metrics"
	"costest/internal/serve"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) add(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// workloadDef is one traffic mix.
type workloadDef struct {
	inputs func(sub *substrate, seed int64, seconds int) (*inputs, error)
	// open: open loop at pointRate; otherwise a closed loop of nproc clients.
	open bool
	// follower: reads go to the replica while the primary trains and
	// publishes; otherwise to the primary, whose model stays static.
	follower bool
}

var workloads = map[string]workloadDef{
	"point-hot":   {inputs: pointInputs, open: true},
	"bulk-cold":   {inputs: bulkInputs},
	"train-serve": {inputs: pointInputs, open: true, follower: true},
}

const (
	setupRuns   = 7   // set-ups per run; setup_s is their median
	probePubs   = 400 // publications in the write-path probe of a static workload
	batchCalls  = 400 // direct EstimateBatchInto calls in a traced run
	minCoverage = 0.9 // share of a traced request its child spans must cover
)

func main() {
	name := flag.String("workload", "", "workload: point-hot, bulk-cold or train-serve")
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Int("seconds", 20, "measured load duration in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload point-hot|bulk-cold|train-serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(*name, w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// counters is a point-in-time sample of the process and the target daemon.
type counters struct {
	sched   serve.SchedulerStats
	mallocs uint64
	gc      uint32
	cpu     time.Duration
}

func sample(d *daemon) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{sched: d.sched.Stats(), mallocs: ms.Mallocs, gc: ms.NumGC, cpu: cpuTime()}
}

// bench is one run's state once the stack is up.
type bench struct {
	w       workloadDef
	in      *inputs
	st      *stack
	target  *daemon
	client  *client
	conns   int
	expect  []core.Estimate // oracle bits per corpus plan; nil when the model trains
	genSeen map[uint64]bool // generations the primary published
}

// measure sends the workload's measured traffic for secs seconds.
func (b *bench) measure(secs int) *phase {
	if b.w.open {
		return runOpen(b.client, b.in.load[:min(len(b.in.load), pointRate*secs)], pointRate, b.conns)
	}
	return runClosed(b.client, b.in.load, 0, time.Duration(secs)*time.Second, b.conns)
}

// warm fills the pool and the session and connection pools before any
// measured traffic: every point plan once and then the Zipf mix, or a
// second of the bulk cycle from its far side.
func (b *bench) warm() {
	if b.w.open {
		runOpen(b.client, b.in.warm, pointRate, b.conns)
	} else {
		runClosed(b.client, b.in.load, len(b.in.load)/2, warmupSecond*time.Second, b.conns)
	}
}

// probe runs probePubs train+publish rounds back to back on the stack,
// now idle, and returns their records. Back to back keeps the process busy
// between rounds: on an idle process, thread wake-ups dominate the hand-off
// and vary from run to run.
func (b *bench) probe() []publication {
	runtime.GC()
	return b.st.write(context.Background(), probePubs, 0)
}

// check is the response oracle. On a static model every estimate must
// carry the oracle's exact bits; on a training one it must be finite and
// come from an (epoch, generation) the primary published.
func (b *bench) check(o outcome) error {
	if o.err != nil {
		return o.err
	}
	req := b.in.load[o.req]
	if len(o.ests) != len(req.plans) {
		return fmt.Errorf("%d estimates for %d plans", len(o.ests), len(req.plans))
	}
	for k, e := range o.ests {
		if math.IsNaN(e.Cost) || math.IsInf(e.Cost, 0) || math.IsNaN(e.Card) || math.IsInf(e.Card, 0) {
			return fmt.Errorf("non-finite estimate %+v", e)
		}
		if b.expect == nil {
			epoch, gen := e.Epoch, e.Generation
			if epoch == 0 && gen == 0 {
				// The service omits the coordinates of a version the
				// follower has installed but not yet mapped; resolve it now.
				var ok bool
				if gen, ok = b.st.fol.GenOf(e.Version); !ok {
					return fmt.Errorf("answer from follower version %d, which maps to no generation", e.Version)
				}
				epoch = b.st.pub.Epoch()
			}
			if epoch != b.st.pub.Epoch() || !b.genSeen[gen] {
				return fmt.Errorf("answer at (epoch %d, generation %d), which the primary never published", epoch, gen)
			}
			continue
		}
		want := b.expect[req.plans[k]]
		if math.Float64bits(e.Cost) != math.Float64bits(want.Cost) || math.Float64bits(e.Card) != math.Float64bits(want.Card) {
			return fmt.Errorf("plan %d: served (%v, %v), oracle (%v, %v)", req.plans[k], e.Cost, e.Card, want.Cost, want.Card)
		}
	}
	return nil
}

// tally is a checked phase.
type tally struct {
	attempted, failed int
	lat               []float64 // ms, every attempted request
	// costQ and cardQ hold one q-error per distinct plan answered, from its
	// last correct answer, so hot plans do not outweigh the corpus.
	costQ, cardQ []float64
	okPlans      []int // correctly answered plans per second of the phase
}

func (b *bench) tally(ph *phase, secs int) tally {
	t := tally{okPlans: make([]int, secs)}
	last := make(map[int]servedEstimate)
	for _, o := range ph.outcomes {
		t.attempted++
		t.lat = append(t.lat, ms(o.lat))
		if err := b.check(o); err != nil {
			if t.failed < 5 {
				logf("request %d failed: %v", o.req, err)
			}
			t.failed++
			continue
		}
		if sec := int(o.done.Sub(ph.start) / time.Second); sec < secs {
			t.okPlans[sec] += len(o.ests)
		}
		for k, e := range o.ests {
			last[b.in.load[o.req].plans[k]] = e
		}
	}
	for p, e := range last {
		cp := b.in.corpus[p]
		t.costQ = append(t.costQ, metrics.QError(e.Cost, cp.cost))
		t.cardQ = append(t.cardQ, metrics.QError(e.Card, cp.card))
	}
	return t
}

func run(name string, w workloadDef, seed int64, seconds int, trace bool) (*result, error) {
	conns := runtime.NumCPU()
	runtime.GOMAXPROCS(conns)
	t0 := time.Now()
	in, err := w.inputs(newSubstrate(), seed, seconds)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	logf("inputs: %d requests generated in %v", len(in.load), time.Since(t0).Round(time.Millisecond))
	// rss_peak_mb covers the stack, not the input generator.
	debug.FreeOSMemory()
	resetPeakRSS()

	var setups []float64
	var st *stack
	for i := 0; i < setupRuns; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		start := time.Now()
		if st, err = bootStack(trace); err != nil {
			return nil, fmt.Errorf("boot: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer st.close()
	logf("set-up: %d boots, median %.3fs", setupRuns, median(setups))

	b := &bench{w: w, in: in, st: st, target: st.primary, conns: conns, genSeen: map[uint64]bool{st.pub.Generation(): true}}
	if w.follower {
		b.target = st.follower
	}
	eps, err := servedPlans(in.corpus, b.target.enc)
	if err != nil {
		return nil, err
	}
	if !w.follower {
		b.expect = oracle(st.model, eps)
	}
	b.client = newClient(b.target.url, conns)
	defer b.client.close()

	var pubs []publication
	stopWriter := func() {}
	if w.follower {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			pubs = st.write(ctx, 0, trainServeCadence)
		}()
		stopWriter = func() { cancel(); <-done }
	}
	defer stopWriter()

	b.warm()
	runtime.GC()                 // every run starts its measured phase from the same heap state
	b.target.srv.Pool().Advise() // opens the pool's counting window
	before := sample(b.target)
	steal0, total0 := cpuJiffies()
	ph := b.measure(seconds)
	steal1, total1 := cpuJiffies()
	after := sample(b.target)
	if total1 > total0 {
		logf("host steal during the measured phase: %.1f%% of CPU time", 100*(steal1-steal0)/(total1-total0))
	}
	pool := b.target.srv.Pool().Advise()
	loadTo := time.Now()

	var rec *recorder
	var tph *phase
	var tracedTo time.Time
	if trace {
		rec = newRecorder()
		b.target.traced.Store(rec)
		tph = b.measure(seconds)
		b.target.traced.Store(nil)
		tracedTo = time.Now()
		batch := int(math.Round(meanBatch(before.sched, after.sched)))
		timeEstimateBatch(rec, b.target.srv, requestPlans(in.load, eps), max(batch, 1), batchCalls)
	}

	// The write path: publications made during the measured traffic when
	// the primary trains under it, otherwise a probe after the measured
	// phases.
	if w.follower {
		stopWriter()
		stopWriter = func() {}
	} else {
		pubs = b.probe()
	}
	if err := st.settle(pubs); err != nil {
		return nil, err
	}
	for _, p := range pubs {
		b.genSeen[p.gen] = true
	}
	if w.follower {
		if trace {
			pubs = within(pubs, tph.start, tracedTo)
		} else {
			pubs = within(pubs, ph.start, loadTo)
		}
	}

	load := b.tally(ph, seconds)
	res := &result{Correct: load.failed == 0, Attempted: load.attempted, Failed: load.failed, Metrics: metricSet{}}
	if !trace {
		return res, endToEnd(res.Metrics, load, setups, pubs)
	}
	traced := b.tally(tph, seconds)
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	res.Correct = res.Failed == 0
	recordWrites(rec, pubs)
	spans := rec.snapshot()
	if err := dump(fmt.Sprintf(".bench_build/traces/%s-seed%d.tsv", name, seed), spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	if cov := coverage(spans); cov < minCoverage {
		logf("traced child spans cover %.3f of request time, need %.2f", cov, minCoverage)
		res.Correct = false
	}
	return res, perLayer(res.Metrics, b, spans, load, traced, ph, pubs, before, after, pool)
}

// endToEnd adds the metrics a user of the daemon sees that repeat run to
// run; the tails, which host CPU steal sets, are reported by perLayer.
func endToEnd(m metricSet, load tally, setups []float64, pubs []publication) error {
	for _, q := range []struct {
		name string
		xs   []float64
		unit string
	}{
		{"latency_p50_ms", load.lat, "ms"},
		{"cost_qerror_p50", load.costQ, "q-error"},
		{"card_qerror_p50", load.cardQ, "q-error"},
		{"freshness_p50_ms", freshness(pubs), "ms"},
	} {
		v, err := percentile(q.xs, 0.5)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		m.add(q.name, v, q.unit)
	}
	perSec := make([]float64, len(load.okPlans))
	for i, n := range load.okPlans {
		perSec[i] = float64(n)
	}
	m.add("throughput_plans_per_s", median(perSec), "plans/s")
	m.add("success_ratio", float64(load.attempted-load.failed)/float64(load.attempted), "ratio")
	m.add("setup_s", median(setups), "s")
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	m.add("rss_peak_mb", rss, "MB")
	return nil
}

// perLayer adds the traced run's span statistics and layer counters.
func perLayer(m metricSet, b *bench, spans []span, load, traced tally, ph *phase, pubs []publication,
	before, after counters, pool core.PoolAdvice) error {
	if err := spanMetrics(spans, []string{
		spanRequest, spanJSONDecode, spanWireDecode, spanEncode, spanSubmit, spanJSONEncode,
		spanEstimateBatch, spanTrainEpoch, spanPublishDelta, spanOnPublish, spanShipApply,
	}, m); err != nil {
		return err
	}
	m.add("serve.sched.mean_batch", meanBatch(before.sched, after.sched), "plans")
	m.add("serve.sched.batches", float64(after.sched.Batches-before.sched.Batches), "count")
	m.add("serve.sched.rejected", float64(after.sched.Rejected-before.sched.Rejected), "count")
	m.add("serve.sched.expired", float64(after.sched.Expired-before.sched.Expired), "count")
	m.add("serve.sched.queue_high_water", float64(after.sched.QueueHighWater), "count")
	m.add("core.pool.hit_ratio", pool.HitRate, "ratio")
	m.add("core.pool.stale_ratio", pool.StaleRate, "ratio")
	m.add("core.pool.entries", float64(pool.Entries), "count")
	var copied float64
	for _, p := range pubs {
		copied += float64(p.copied)
	}
	m.add("core.delta_params_copied", copied/float64(max(len(pubs), 1)), "params")
	ps, fs := b.st.pub.Stats(), b.st.fol.Stats()
	m.add("replica.delta_bytes_mean", float64(ps.DeltaBytes)/float64(max(ps.DeltaFrames, 1)), "B")
	m.add("replica.snapshot_frames", float64(ps.SnapshotFrames), "count")
	m.add("replica.gaps", float64(fs.GenerationGaps), "count")
	m.add("replica.reconnects", float64(fs.Reconnects), "count")
	m.add("loadgen.sent", float64(load.attempted), "count")
	late := 0.0 // a closed loop has no schedule to fall behind
	if len(ph.late) > 0 {
		xs := make([]float64, len(ph.late))
		for i, d := range ph.late {
			xs[i] = ms(d)
		}
		var err error
		if late, err = percentile(xs, 0.99); err != nil {
			return fmt.Errorf("loadgen lateness: %w", err)
		}
	}
	m.add("loadgen.late_p99_ms", late, "ms")
	plans := 0
	for _, n := range load.okPlans {
		plans += n
	}
	perPlan := float64(max(plans, 1))
	m.add("process.allocs_per_plan", float64(after.mallocs-before.mallocs)/perPlan, "allocs")
	m.add("process.cpu_us_per_plan", us(after.cpu-before.cpu)/perPlan, "us")
	m.add("process.gc_cycles", float64(after.gc-before.gc), "count")
	tp50, err := percentile(traced.lat, 0.5)
	if err != nil {
		return fmt.Errorf("traced latency: %w", err)
	}
	up50, err := percentile(load.lat, 0.5)
	if err != nil {
		return fmt.Errorf("untraced latency: %w", err)
	}
	m.add("tracing.overhead_p50_us", (tp50-up50)*1e3, "us")
	// End-to-end tails of the untraced traffic. Tails come from time
	// windows, so one stalled stretch of the run does not set them.
	p99, err := windowed(load.lat, 0.99)
	if err != nil {
		return fmt.Errorf("latency p99: %w", err)
	}
	m.add("e2e.latency_p99_ms", p99, "ms")
	p90, err := windowed(freshness(pubs), 0.9)
	if err != nil {
		return fmt.Errorf("freshness p90: %w", err)
	}
	m.add("e2e.freshness_p90_ms", p90, "ms")
	return nil
}

// meanBatch is the mean coalesced batch size between two scheduler samples.
func meanBatch(a, b serve.SchedulerStats) float64 {
	n := b.Batches - a.Batches
	if n == 0 {
		return 0
	}
	reqs := b.MeanBatch*float64(b.Batches) - a.MeanBatch*float64(a.Batches)
	return reqs / float64(n)
}

// requestPlans lists the encoded plans of reqs in send order.
func requestPlans(reqs []request, eps []*feature.EncodedPlan) []*feature.EncodedPlan {
	var out []*feature.EncodedPlan
	for _, r := range reqs {
		for _, p := range r.plans {
			out = append(out, eps[p])
		}
	}
	return out
}

// within keeps the publications whose PublishDelta call started in [from, to).
func within(pubs []publication, from, to time.Time) []publication {
	var out []publication
	for _, p := range pubs {
		if !p.pubStart.Before(from) && p.pubStart.Before(to) {
			out = append(out, p)
		}
	}
	return out
}

// freshness lists, in milliseconds, how long each applied publication took
// from the primary's PublishDelta call to the follower's publish hook.
func freshness(pubs []publication) []float64 {
	var out []float64
	for _, p := range pubs {
		if !p.applied.IsZero() {
			out = append(out, ms(p.applied.Sub(p.pubStart)))
		}
	}
	return out
}
