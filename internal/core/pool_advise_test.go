package core

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"costest/internal/plan"
)

// testKey derives a pool key from a label, the way plan.FoldKey derives one
// from a subplan: a truncated SHA-256.
func testKey(label string) plan.Key {
	sum := sha256.Sum256([]byte(label))
	return plan.Key(sum[:16])
}

// fillPool inserts n distinct keys (probing first, so misses are counted
// like a serving workload would produce them).
func fillPool(p *MemoryPool, prefix string, n int) {
	g := []float64{1, 2}
	r := []float64{3, 4}
	for i := 0; i < n; i++ {
		key := testKey(fmt.Sprintf("%s-%d", prefix, i))
		p.Get(key)
		p.Put(key, g, r)
	}
}

// TestSetBoundShrinkGrowUnbound drives the live-rebound lifecycle: an
// unbounded pool is bounded (ring built over resident entries, eager shrink
// to the bound), the bound holds under further inserts, unbounding allows
// growth again, and re-bounding shrinks back.
func TestSetBoundShrinkGrowUnbound(t *testing.T) {
	p := NewMemoryPool()
	fillPool(p, "a", 200)
	if p.Len() != 200 {
		t.Fatalf("unbounded pool holds %d entries, want 200", p.Len())
	}

	p.SetBound(64)
	if got := p.Bound(); got != 64 {
		t.Fatalf("Bound() = %d, want 64", got)
	}
	if got := p.Len(); got > 64 {
		t.Fatalf("after SetBound(64): %d entries resident, want <= 64", got)
	}
	fillPool(p, "b", 200)
	if got := p.Len(); got > 64 {
		t.Fatalf("bound not enforced on inserts after SetBound: %d entries", got)
	}
	// Fresh inserts must still be immediately retrievable (ring slots are
	// reused, not leaked).
	g := []float64{5}
	r := []float64{6}
	p.Put(testKey("fresh"), g, r)
	if _, _, ok := p.Get(testKey("fresh")); !ok {
		t.Fatal("entry inserted after rebound is not retrievable")
	}

	p.SetBound(0)
	fillPool(p, "c", 200)
	if got := p.Len(); got <= 64 {
		t.Fatalf("pool did not grow after SetBound(0): %d entries", got)
	}

	p.SetBound(32)
	if got := p.Len(); got > 32 {
		t.Fatalf("re-bounding did not shrink: %d entries, want <= 32", got)
	}
}

// TestSetBoundShrinkKeepsReferencedEntries checks the shrink path honors the
// clock policy's second chance: when a bounded pool is shrunk, recently
// referenced entries should survive preferentially over never-referenced
// ones (the same guarantee eviction-on-insert gives).
func TestSetBoundShrinkKeepsReferencedEntries(t *testing.T) {
	p := NewBoundedMemoryPool(128)
	fillPool(p, "x", 128)
	// Reference half the entries; the sweep must prefer evicting the rest.
	hot := 0
	for i := 0; i < 128; i += 2 {
		if _, _, ok := p.Get(testKey(fmt.Sprintf("x-%d", i))); ok {
			hot++
		}
	}
	p.SetBound(64)
	surviving := 0
	for i := 0; i < 128; i += 2 {
		if _, _, ok := p.Get(testKey(fmt.Sprintf("x-%d", i))); ok {
			surviving++
		}
	}
	if surviving*2 < hot {
		t.Fatalf("shrink evicted referenced entries wholesale: %d/%d hot entries survive", surviving, hot)
	}
}

// TestPoolAdvise walks the sizing heuristics through their regimes: idle,
// unbounded, thrashing, oversized, and mid-generation-turnover.
func TestPoolAdvise(t *testing.T) {
	// Idle: no lookups since the last window → keep.
	p := NewBoundedMemoryPool(64)
	if a := p.Advise(); a.Recommended != a.Bound {
		t.Fatalf("idle advice recommended %d, want bound %d", a.Recommended, a.Bound)
	}

	// Unbounded: recommend a bound covering the resident set with headroom.
	u := NewMemoryPool()
	fillPool(u, "u", 100)
	if a := u.Advise(); a.Bound != 0 || a.Recommended < 100 || a.Recommended > 200 {
		t.Fatalf("unbounded advice = %+v, want recommended in [100,200]", a)
	}

	// Thrashing: distinct keys stream through a full pool, hit rate
	// collapses → grow.
	th := NewBoundedMemoryPool(32)
	fillPool(th, "t", 500)
	a := th.Advise()
	if a.HitRate >= 0.5 || a.Recommended <= a.Bound {
		t.Fatalf("thrash advice = %+v, want low hit rate and a larger bound", a)
	}

	// Oversized: a small hot set served from a big bound → shrink.
	ov := NewBoundedMemoryPool(1024)
	fillPool(ov, "o", 10)
	for k := 0; k < 20; k++ {
		for i := 0; i < 10; i++ {
			ov.Get(testKey(fmt.Sprintf("o-%d", i)))
		}
	}
	a = ov.Advise()
	if a.HitRate <= 0.9 || a.Recommended >= a.Bound {
		t.Fatalf("oversize advice = %+v, want high hit rate and a smaller bound", a)
	}

	// Generation turnover: stale lookups double-book capacity → transient
	// headroom above the current bound.
	gen := NewBoundedMemoryPool(64)
	g := []float64{1}
	r := []float64{2}
	for i := 0; i < 32; i++ {
		gen.PutGen(testKey(fmt.Sprintf("g-%d", i)), g, r, 1)
	}
	gen.Advise() // close the fill window
	gen.SetGeneration(2)
	for i := 0; i < 32; i++ {
		gen.GetGen(testKey(fmt.Sprintf("g-%d", i)), 2)
	}
	a = gen.Advise()
	if a.StaleRate <= 0.1 || a.Recommended <= a.Bound {
		t.Fatalf("turnover advice = %+v, want stale-driven headroom above bound", a)
	}
	if !strings.Contains(a.Reason, "turnover") {
		t.Fatalf("turnover advice reason = %q", a.Reason)
	}

	// The window resets per call: immediately advising again sees no
	// traffic and keeps the bound.
	if a = gen.Advise(); a.Recommended != a.Bound {
		t.Fatalf("post-window advice = %+v, want keep", a)
	}
}
