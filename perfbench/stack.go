package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"costest/internal/core"
	"costest/internal/dataset"
	"costest/internal/exec"
	"costest/internal/feature"
	"costest/internal/pg"
	"costest/internal/planner"
	"costest/internal/replica"
	"costest/internal/serve"
	"costest/internal/stats"
	"costest/internal/strembed"
	"costest/internal/workload"
)

// The stack runs with cmd/costestd's flag defaults, so the benchmark
// measures the daemon as it ships.
const (
	imdbScale       = 0.03
	stackSeed       = 42
	trainQueries    = 240
	trainEpochs     = 20
	trainShards     = 1
	trainPatience   = 3
	trainBatch      = 16
	queueDepth      = 256
	maxBatch        = 64
	batchWindow     = 2 * time.Millisecond
	estWorkers      = 0
	poolBound       = 4096
	prewarmLimit    = 16
	breakerFailures = 3
	breakerCooldown = 250 * time.Millisecond
	heartbeat       = 500 * time.Millisecond
)

var logf = log.New(os.Stderr, "perfbench: ", 0).Printf

// substrate is what every costestd process builds before serving: the
// synthetic IMDB database, its statistics, a planner/executor pair for
// labelling, and the feature encoder.
type substrate struct {
	db      *dataset.DB
	labeler *workload.Labeler
	enc     *feature.Encoder
}

func newSubstrate() *substrate {
	db := dataset.GenerateIMDB(dataset.Config{Seed: 1, Scale: imdbScale})
	cat := stats.Collect(db, stats.Options{Buckets: 40, SampleSize: 64, Seed: 1})
	return &substrate{
		db:      db,
		labeler: &workload.Labeler{Planner: planner.New(pg.New(cat), db.Schema), Engine: exec.NewEngine(db)},
		enc:     feature.NewEncoder(cat, strembed.ZeroEncoder{}, true),
	}
}

// daemon is the serving half of one costestd process: server, scheduler,
// HTTP service and its loopback listener.
type daemon struct {
	enc   *feature.Encoder
	srv   *core.Server
	sched *serve.Scheduler
	svc   *serve.Service
	http  *http.Server
	url   string
	done  chan error
	// traced, when set, answers /estimate through the benchmark's span-
	// recording handler instead of the service's own.
	traced atomic.Pointer[recorder]
}

func newDaemon(model *core.Model, enc *feature.Encoder) *daemon {
	srv := core.NewServer(model, core.NewBoundedMemoryPool(poolBound))
	srv.EnablePrewarm(prewarmLimit)
	sched := serve.NewScheduler(srv, serve.SchedulerConfig{
		QueueDepth:      queueDepth,
		MaxBatch:        maxBatch,
		BatchWindow:     batchWindow,
		Workers:         estWorkers,
		BreakerFailures: breakerFailures,
		BreakerCooldown: breakerCooldown,
	})
	sched.Start()
	return &daemon{enc: enc, srv: srv, sched: sched, svc: serve.NewService(sched, srv, enc)}
}

// listen starts the HTTP server on a loopback port. With traceable set,
// /estimate is routed through a switch the traced phase flips; otherwise
// the service's handler is served exactly as costestd serves it.
func (d *daemon) listen(traceable bool) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	h := d.svc.Handler()
	if traceable {
		h = d.switchHandler(h)
	}
	d.http = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	d.url = "http://" + ln.Addr().String() + "/estimate"
	d.done = make(chan error, 1)
	go func() { d.done <- d.http.Serve(ln) }()
	return nil
}

func (d *daemon) switchHandler(plain http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rec := d.traced.Load(); rec != nil && r.URL.Path == "/estimate" {
			d.tracedEstimate(rec, w, r)
			return
		}
		plain.ServeHTTP(w, r)
	})
}

// close drains like costestd on SIGTERM: unready, scheduler flush, HTTP
// shutdown.
func (d *daemon) close() error {
	d.svc.SetReady(false)
	d.sched.Close()
	if d.http == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.http.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := <-d.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("http serve: %w", err)
	}
	return nil
}

// stack is a replicated pair wired as `costestd -replicate-listen` (the
// training primary) and `costestd -follow` (a read replica), each with its
// own substrate, in this process.
type stack struct {
	model   *core.Model
	trainer *core.ParallelTrainer
	train   []*feature.EncodedPlan

	primary  *daemon
	pub      *replica.Publisher
	follower *daemon
	fol      *replica.Follower

	stopFollower context.CancelFunc
	followerDone chan struct{}

	pubs pubLog
}

// labelTraining builds the training corpus every costestd process labels
// and encodes at start-up (a follower too, though it trains nothing), and
// the /samplez example taken from it.
func (sub *substrate) labelTraining() ([]*feature.EncodedPlan, *serve.WirePlan, error) {
	labeled := sub.labeler.Label(workload.TrainingNumeric(sub.db, stackSeed, trainQueries))
	eps := make([]*feature.EncodedPlan, 0, len(labeled))
	for _, s := range labeled {
		ep, err := sub.enc.Encode(s.Plan)
		if err != nil {
			return nil, nil, fmt.Errorf("encode training plan: %w", err)
		}
		eps = append(eps, ep)
	}
	if len(eps) == 0 {
		return nil, nil, errors.New("empty training corpus")
	}
	return eps, serve.EncodeWire(labeled[0].Plan), nil
}

// bootStack starts both daemons and returns once the follower serves the
// primary's first replicated model: the span setup_s measures.
func bootStack(traceable bool) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	sub := newSubstrate()
	eps, sample, err := sub.labelTraining()
	if err != nil {
		return st, err
	}
	cut := len(eps) * 4 / 5
	st.train = eps[:cut]
	st.model = core.New(core.TestConfig(), sub.enc)
	st.trainer = core.NewParallelTrainer(st.model, trainShards)
	st.trainer.EarlyStop(core.EarlyStopOptions{Patience: trainPatience})
	st.trainer.Fit(st.train, eps[cut:], trainEpochs, trainBatch, 0, nil)

	p := newDaemon(st.model, sub.enc)
	st.primary = p
	p.svc.SetSample(sample)
	st.pub = replica.NewPublisher(st.model, p.srv.Version(), replica.PublisherConfig{Heartbeat: heartbeat, Logf: logf})
	p.srv.SetPublishHook(st.pubs.primaryHook(st.pub))
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, fmt.Errorf("replicate-listen: %w", err)
	}
	go st.pub.Serve(rln)
	p.svc.ReplicationStats = func() any { return st.pub.Stats() }
	p.svc.GenerationOf = func(version uint64) (uint64, uint64, bool) {
		g, ok := st.pub.GenOf(version)
		return st.pub.Epoch(), g, ok
	}
	if err := p.listen(traceable); err != nil {
		return st, err
	}
	p.svc.SetReady(true)

	fsub := newSubstrate()
	_, fsample, err := fsub.labelTraining()
	if err != nil {
		return st, err
	}
	fmodel := core.New(core.TestConfig(), fsub.enc)
	f := newDaemon(fmodel, fsub.enc)
	st.follower = f
	f.svc.SetSample(fsample)
	f.srv.SetPublishHook(st.pubs.followerHook)
	st.fol = replica.NewFollower(replica.FollowerConfig{
		Addr:      rln.Addr().String(),
		Server:    f.srv,
		Model:     fmodel,
		Heartbeat: heartbeat,
		Logf:      logf,
	})
	ctx, cancel := context.WithCancel(context.Background())
	st.stopFollower = cancel
	st.followerDone = make(chan struct{})
	go func() {
		defer close(st.followerDone)
		st.fol.Run(ctx)
	}()
	f.svc.ReplicationStats = func() any { return st.fol.Stats() }
	f.svc.GenerationOf = st.fol.EpochGenOf
	if err := f.listen(traceable); err != nil {
		return st, err
	}
	readyCtx, readyCancel := context.WithTimeout(ctx, 30*time.Second)
	defer readyCancel()
	if err := st.fol.WaitReady(readyCtx); err != nil {
		return st, fmt.Errorf("follower never applied a snapshot: %w", err)
	}
	f.svc.SetReady(true)
	return st, nil
}

// close stops the follower, the publisher and both daemons, waiting for
// every goroutine that owns a socket.
func (st *stack) close() error {
	if st.stopFollower != nil {
		st.stopFollower()
		<-st.followerDone
	}
	if st.pub != nil {
		st.pub.Close()
	}
	var errs []error
	for _, d := range []*daemon{st.follower, st.primary} {
		if d != nil {
			errs = append(errs, d.close())
		}
	}
	if st.trainer != nil {
		st.trainer.Close()
	}
	return errors.Join(errs...)
}

// publication is one train → publish → replicate → apply round trip.
type publication struct {
	gen                  uint64
	trainStart, trainEnd time.Time
	pubStart, pubEnd     time.Time
	hookStart, hookEnd   time.Time // Publisher.OnPublish inside the primary's hook
	copied               int       // parameters PublishDelta copied
	applied              time.Time // follower's publish hook; zero if never applied
}

// pubLog holds the publish hooks' timestamps. The primary's hook runs inside
// PublishDelta on the writer goroutine, which reads hookStart and hookEnd
// after the call without locking; the follower's hook runs on the
// follower's apply goroutine.
type pubLog struct {
	hookStart, hookEnd time.Time // set by the primary hook for the writer

	mu      sync.Mutex
	applied map[uint64]time.Time // follower Server version → hook time
}

func (l *pubLog) primaryHook(pub *replica.Publisher) func(*core.Model, uint64) {
	return func(m *core.Model, version uint64) {
		l.hookStart = time.Now()
		pub.OnPublish(m, version)
		l.hookEnd = time.Now()
	}
}

func (l *pubLog) followerHook(_ *core.Model, version uint64) {
	now := time.Now()
	l.mu.Lock()
	if l.applied == nil {
		l.applied = make(map[uint64]time.Time)
	}
	l.applied[version] = now
	l.mu.Unlock()
}

// trainServeCadence paces the primary's train+publish loop under reads:
// one epoch (~17 ms on a 2-core x86 VM) per 40 ms keeps training under half
// a core and gives 500 publications in a 20 s run.
const trainServeCadence = 40 * time.Millisecond

// write runs train-epoch + PublishDelta rounds, one per cadence (back to
// back when cadence is 0), until ctx ends or n publications (n > 0) are
// done, and returns their records.
func (st *stack) write(ctx context.Context, n int, cadence time.Duration) []publication {
	var out []publication
	next := time.Now()
	for n <= 0 || len(out) < n {
		if wait := time.Until(next); wait > 0 {
			select {
			case <-ctx.Done():
				return out
			case <-time.After(wait):
			}
		} else if ctx.Err() != nil {
			return out
		}
		next = next.Add(cadence)
		if now := time.Now(); next.Before(now) {
			next = now
		}
		var p publication
		p.trainStart = time.Now()
		st.trainer.TrainEpochParallel(st.train, trainBatch, 0)
		p.trainEnd = time.Now()
		p.pubStart = time.Now()
		st.primary.srv.PublishDelta(st.model)
		p.pubEnd = time.Now()
		p.hookStart, p.hookEnd = st.pubs.hookStart, st.pubs.hookEnd
		p.gen = st.pub.Generation()
		p.copied = st.primary.srv.LastDeltaCopied()
		out = append(out, p)
	}
	return out
}

// settle waits until the follower has applied the primary's latest
// generation, then stamps each publication with its apply time.
func (st *stack) settle(pubs []publication) error {
	deadline := time.Now().Add(10 * time.Second)
	for st.fol.Generation() < st.pub.Generation() {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower stuck at generation %d, primary at %d", st.fol.Generation(), st.pub.Generation())
		}
		time.Sleep(time.Millisecond)
	}
	byGen := make(map[uint64]time.Time)
	st.pubs.mu.Lock()
	for v, t := range st.pubs.applied {
		if g, ok := st.fol.GenOf(v); ok {
			byGen[g] = t
		}
	}
	st.pubs.mu.Unlock()
	for i := range pubs {
		pubs[i].applied = byGen[pubs[i].gen]
	}
	return nil
}
