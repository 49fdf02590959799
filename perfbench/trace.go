package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"costest/internal/core"
	"costest/internal/feature"
	"costest/internal/serve"
)

// span is one timed call into a layer. Times are nanoseconds since the
// recorder's base; parent indexes the recorder's spans (-1 for a root).
type span struct {
	name       string
	req        uint64
	parent     int32
	start, end int64
}

// recorder holds every span of a traced run in memory; dump writes them
// out once the run is over.
type recorder struct {
	base    time.Time
	nextReq atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.base)) }

// tracer collects one request's spans on the goroutine serving it; commit
// hands them to the recorder under one lock acquisition.
type tracer struct {
	rec   *recorder
	req   uint64
	spans []span
}

func (r *recorder) begin() *tracer {
	return &tracer{rec: r, req: r.nextReq.Add(1), spans: make([]span, 0, 8)}
}

// start opens a span under parent (-1 for the request's root) and returns
// its local id.
func (t *tracer) start(name string, parent int32) int32 {
	now := t.rec.at(time.Now())
	t.spans = append(t.spans, span{name: name, req: t.req, parent: parent, start: now, end: now})
	return int32(len(t.spans) - 1)
}

func (t *tracer) stop(id int32) { t.spans[id].end = t.rec.at(time.Now()) }

// add records an already-timed span.
func (t *tracer) add(name string, parent int32, start, end time.Time) int32 {
	t.spans = append(t.spans, span{name: name, req: t.req, parent: parent, start: t.rec.at(start), end: t.rec.at(end)})
	return int32(len(t.spans) - 1)
}

func (r *recorder) commit(t *tracer) {
	r.mu.Lock()
	off := int32(len(r.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			s.parent += off
		}
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// dump writes spans as tab-separated lines: id, parent, request, name,
// start and end in nanoseconds since the run's first span.
func dump(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_ns\tend_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.req, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of it that its
// children cover. Children may overlap one another (concurrent work) and
// may outlast their parent (an asynchronous hand-off); every instant is
// subtracted once, and only inside the parent's own interval.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.end - s.start) - covered(kids[int32(i)], s.start, s.end)
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	clip := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clip = append(clip, [2]int64{a, b})
		}
	}
	sort.Slice(clip, func(i, j int) bool { return clip[i][0] < clip[j][0] })
	var total, curA, curB int64
	for i, iv := range clip {
		if i == 0 || iv[0] > curB {
			total += curB - curA
			curA, curB = iv[0], iv[1]
		} else if iv[1] > curB {
			curB = iv[1]
		}
	}
	return total + curB - curA
}

// spanMetrics reports <name>.calls, .self_p50_us and .self_sum_ms for every
// span name in names; a name with no spans reports zero calls and times.
func spanMetrics(spans []span, names []string, out metricSet) error {
	self := selfTimes(spans)
	by := make(map[string][]float64)
	for i, s := range spans {
		by[s.name] = append(by[s.name], float64(self[i]))
	}
	for _, name := range names {
		xs := by[name]
		var p50, sum float64
		if len(xs) > 0 {
			v, err := percentile(xs, 0.5)
			if err != nil {
				return fmt.Errorf("span %s: %w", name, err)
			}
			p50 = v / 1e3
			for _, x := range xs {
				sum += x
			}
		}
		out.add(name+".calls", float64(len(xs)), "count")
		out.add(name+".self_p50_us", p50, "us")
		out.add(name+".self_sum_ms", sum/1e6, "ms")
	}
	return nil
}

// coverage is the share of traced request time that the request's child
// spans account for: Σ child self time ÷ Σ request duration.
func coverage(spans []span) float64 {
	self := selfTimes(spans)
	var kids, reqs int64
	for i, s := range spans {
		if s.name == "request" {
			reqs += s.end - s.start
		} else if s.parent >= 0 && spans[s.parent].name == "request" {
			kids += self[i]
		}
	}
	if reqs == 0 {
		return 0
	}
	return float64(kids) / float64(reqs)
}

// Read-path span names, in serve.Service's handleEstimate order.
const (
	spanRequest    = "request"
	spanJSONDecode = "serve.json_decode"
	spanWireDecode = "serve.wire_decode"
	spanEncode     = "feature.encode"
	spanSubmit     = "serve.submit"
	spanJSONEncode = "serve.json_encode"
)

// tracedEstimate answers /estimate by calling the same public functions as
// serve.Service's handler, in the same order, with a span around each.
func (d *daemon) tracedEstimate(rec *recorder, w http.ResponseWriter, r *http.Request) {
	t := rec.begin()
	defer rec.commit(t)
	root := t.start(spanRequest, -1)
	defer t.stop(root)
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}

	s := t.start(spanJSONDecode, root)
	var req estimateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	t.stop(s)
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	plans := req.Plans
	if req.Plan != nil {
		if len(plans) > 0 {
			http.Error(w, "bad request: set plan or plans, not both", http.StatusBadRequest)
			return
		}
		plans = []*serve.WirePlan{req.Plan}
	}
	if len(plans) == 0 {
		http.Error(w, "bad request: no plan", http.StatusBadRequest)
		return
	}

	eps := make([]*feature.EncodedPlan, len(plans))
	for i, wp := range plans {
		s = t.start(spanWireDecode, root)
		node, err := wp.Decode()
		t.stop(s)
		if err != nil {
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
		s = t.start(spanEncode, root)
		eps[i], err = d.enc.Encode(node)
		t.stop(s)
		if err != nil {
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
	}

	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	s = t.start(spanSubmit, root)
	results := make([]serve.Result, len(eps))
	errs := make([]error, len(eps))
	if len(eps) == 1 {
		results[0], errs[0] = d.sched.Submit(ctx, eps[0])
	} else {
		var wg sync.WaitGroup
		for i := range eps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = d.sched.Submit(ctx, eps[i])
			}(i)
		}
		wg.Wait()
	}
	t.stop(s)
	for _, err := range errs {
		switch {
		case err == nil:
			continue
		case errors.Is(err, serve.ErrOverloaded), errors.Is(err, serve.ErrDraining):
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			http.Error(w, err.Error(), http.StatusGatewayTimeout)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}

	s = t.start(spanJSONEncode, root)
	resp := estimateResponse{Estimates: make([]servedEstimate, len(results))}
	for i, res := range results {
		we := servedEstimate{Cost: res.Cost, Card: res.Card, Version: res.Version, Degraded: res.Degraded}
		if d.svc.GenerationOf != nil {
			if ep, gen, ok := d.svc.GenerationOf(res.Version); ok {
				we.Epoch, we.Generation = ep, gen
			}
		}
		resp.Estimates[i] = we
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
	t.stop(s)
}

// Write-path span names.
const (
	spanTrainEpoch   = "core.train_epoch"
	spanPublishDelta = "core.publish_delta"
	spanOnPublish    = "replica.on_publish"
	spanShipApply    = "replica.ship_apply"
)

// recordWrites turns publication records into write-path spans: the epoch,
// then PublishDelta with the publisher hook and the hand-off to the
// follower's apply as its children (the hand-off outlives the call).
func recordWrites(rec *recorder, pubs []publication) {
	for _, p := range pubs {
		t := rec.begin()
		t.add(spanTrainEpoch, -1, p.trainStart, p.trainEnd)
		pd := t.add(spanPublishDelta, -1, p.pubStart, p.pubEnd)
		t.add(spanOnPublish, pd, p.hookStart, p.hookEnd)
		if !p.applied.IsZero() {
			t.add(spanShipApply, pd, p.hookEnd, p.applied)
		}
		rec.commit(t)
	}
}

const spanEstimateBatch = "core.estimate_batch"

// timeEstimateBatch calls Server.EstimateBatchInto directly, calls times,
// on consecutive batches of size batch drawn from eps in order.
func timeEstimateBatch(rec *recorder, srv *core.Server, eps []*feature.EncodedPlan, batch, calls int) {
	out := make([]core.Estimate, batch)
	in := make([]*feature.EncodedPlan, batch)
	next := 0
	for c := 0; c < calls; c++ {
		for i := range in {
			in[i] = eps[next%len(eps)]
			next++
		}
		snap := srv.AcquireSnapshot()
		t := rec.begin()
		s := t.start(spanEstimateBatch, -1)
		srv.EstimateBatchInto(snap, in, out, estWorkers)
		t.stop(s)
		srv.ReleaseSnapshot(snap)
		rec.commit(t)
	}
}
