package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"costest/internal/query"
	"costest/internal/workload"
)

// A stalled request must charge the requests queued behind it from their
// due times, and the pacer must keep releasing requests on schedule.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const interval = 20 * time.Millisecond
	const stall = 100 * time.Millisecond
	lat, late := openLoop(time.Now(), 3, interval, 1, func(i int) {
		if i == 0 {
			time.Sleep(stall)
		}
	})
	for i, d := range lat {
		// Request i is due at i*interval but cannot finish before the stall
		// ends, so its latency from due time is at least stall - i*interval.
		if want := stall - time.Duration(i)*interval; d < want {
			t.Errorf("request %d latency %v, want >= %v (measured from due time)", i, d, want)
		}
	}
	for i, d := range late {
		if d > interval {
			t.Errorf("pacer released request %d %v late; it must not wait for busy senders", i, d)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted input
		}
		return out
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{999, 0.99, 0, false},
		{1000, 0.99, 990, true},
		{19, 0.5, 0, false},
		{20, 0.5, 10, true},
		{100, 0.9, 90, true},
		{99, 0.9, 0, false},
	} {
		got, err := percentile(xs(tc.n), tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("percentile(n=%d, p=%v) error = %v, want ok=%v", tc.n, tc.p, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("percentile(n=%d, p=%v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []span{
		{name: "parent", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 40},
		{name: "b", parent: 0, start: 30, end: 60},    // overlaps a
		{name: "c", parent: 0, start: 90, end: 150},   // outlives the parent
		{name: "d", parent: 1, start: 15, end: 20},    // a's child
		{name: "other", parent: -1, start: 0, end: 7}, // unrelated root
	}
	// The parent's children cover [10,60] and [90,100]: 60 of its 100.
	want := []int64{40, 25, 30, 60, 5, 7}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	if a, b := zipfSequence(7, 64, 500, pointZipfS), zipfSequence(7, 64, 500, pointZipfS); !reflect.DeepEqual(a, b) {
		t.Fatal("zipfSequence differs under one seed")
	}
	if a, b := zipfSequence(7, 64, 500, pointZipfS), zipfSequence(8, 64, 500, pointZipfS); reflect.DeepEqual(a, b) {
		t.Fatal("zipfSequence ignores its seed")
	}

	sub := newSubstrate()
	same := func(a, b []request) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !bytes.Equal(a[i].body, b[i].body) || !reflect.DeepEqual(a[i].plans, b[i].plans) {
				return false
			}
		}
		return true
	}
	p1, err := pointInputs(sub, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := pointInputs(newSubstrate(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !same(p1.warm, p2.warm) || !same(p1.load, p2.load) {
		t.Fatal("point inputs differ under one seed")
	}
	if len(p1.corpus) != pointPlans || len(p1.load) != 2*pointRate {
		t.Fatalf("point inputs: %d plans, %d requests", len(p1.corpus), len(p1.load))
	}

	job := func(s int64, n int) []*query.Query { return workload.JOBFull(sub.db, s, n) }
	c1, err := distinctCorpus(sub, 5, 64, job)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := distinctCorpus(sub, 5, 64, job)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Fatal("JOBFull corpus differs under one seed")
	}
	c3, err := distinctCorpus(sub, 6, 64, job)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(c1, c3) {
		t.Fatal("JOBFull corpus ignores its seed")
	}
}

// A stall confined to one window moves that window's p99 only.
func TestWindowedIgnoresOneStalledWindow(t *testing.T) {
	var xs []float64
	for w := 0; w < 3; w++ {
		for i := 1; i <= 1000; i++ {
			v := float64(i)
			if w == 1 && i > 900 {
				v = 1e6 // a stall hits the middle window's last tenth
			}
			xs = append(xs, v)
		}
	}
	got, err := windowed(xs, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if got != 990 {
		t.Fatalf("windowed p99 = %v, want 990", got)
	}
	if _, err := windowed(xs[:999], 0.99); err == nil {
		t.Fatal("windowed p99 accepted 999 samples")
	}
}
