package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// servedEstimate is one estimate of an /estimate response.
type servedEstimate struct {
	Cost       float64 `json:"cost"`
	Card       float64 `json:"card"`
	Version    uint64  `json:"version"`
	Epoch      uint64  `json:"epoch,omitempty"`
	Generation uint64  `json:"generation,omitempty"`
	Degraded   bool    `json:"degraded,omitempty"`
}

type estimateResponse struct {
	Estimates []servedEstimate `json:"estimates"`
}

// client posts generated bodies to one daemon over at most conns
// keep-alive connections.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string, conns int) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		url: url,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one body; any transport error, non-200 status or undecodable
// reply is an error.
func (c *client) post(body []byte) ([]servedEstimate, error) {
	resp, err := c.hc.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	var r estimateResponse
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	return r.Estimates, nil
}

// outcome is one request's result: its latency, completion time, and the
// reply or error.
type outcome struct {
	req  int // index into the workload's load requests
	lat  time.Duration
	done time.Time
	ests []servedEstimate
	err  error
}

// openLoop issues n requests on a fixed schedule — request i is due at
// start + i*interval — over conns senders. Each latency runs from the due
// time, not the send, so a stall charges every request queued behind it.
// late[i] is how far behind its due time the pacer released request i.
func openLoop(start time.Time, n int, interval time.Duration, conns int, send func(i int)) (lat, late []time.Duration) {
	lat = make([]time.Duration, n)
	late = make([]time.Duration, n)
	due := func(i int) time.Time { return start.Add(time.Duration(i) * interval) }
	work := make(chan int, n) // the pacer never blocks on busy senders
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				send(i)
				lat[i] = time.Since(due(i))
			}
		}()
	}
	for i := 0; i < n; i++ {
		d := due(i)
		if wait := time.Until(d); wait > 0 {
			time.Sleep(wait)
		}
		late[i] = time.Since(d)
		work <- i
	}
	close(work)
	wg.Wait()
	return lat, late
}

// closedLoop runs conns senders back to back until the deadline; each takes
// the next request number from a shared counter, and its latency runs from
// its send. It returns the latencies by request number.
func closedLoop(deadline time.Time, conns int, send func(i int)) []time.Duration {
	type sample struct {
		i int
		d time.Duration
	}
	var next atomic.Int64
	per := make([][]sample, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				t := time.Now()
				send(i)
				per[w] = append(per[w], sample{i, time.Since(t)})
			}
		}(w)
	}
	wg.Wait()
	lat := make([]time.Duration, next.Load())
	for _, p := range per {
		for _, s := range p {
			lat[s.i] = s.d
		}
	}
	return lat
}

// phase is one measured stretch of traffic against one daemon.
type phase struct {
	outcomes []outcome
	late     []time.Duration // open loop only
	start    time.Time
}

// runOpen replays reqs at rate requests per second.
func runOpen(c *client, reqs []request, rate, conns int) *phase {
	ph := &phase{outcomes: make([]outcome, len(reqs)), start: time.Now()}
	var lat []time.Duration
	lat, ph.late = openLoop(ph.start, len(reqs), time.Second/time.Duration(rate), conns, func(i int) {
		ests, err := c.post(reqs[i].body)
		ph.outcomes[i] = outcome{req: i, done: time.Now(), ests: ests, err: err}
	})
	for i := range ph.outcomes {
		ph.outcomes[i].lat = lat[i]
	}
	return ph
}

// runClosed cycles through reqs from offset for d, with conns clients.
func runClosed(c *client, reqs []request, offset int, d time.Duration, conns int) *phase {
	var mu sync.Mutex
	var outs []outcome
	ph := &phase{start: time.Now()}
	lat := closedLoop(ph.start.Add(d), conns, func(i int) {
		r := (offset + i) % len(reqs)
		ests, err := c.post(reqs[r].body)
		done := time.Now()
		mu.Lock()
		for len(outs) <= i {
			outs = append(outs, outcome{})
		}
		outs[i] = outcome{req: r, done: done, ests: ests, err: err}
		mu.Unlock()
	})
	for i := range outs {
		outs[i].lat = lat[i]
	}
	ph.outcomes = outs
	return ph
}
