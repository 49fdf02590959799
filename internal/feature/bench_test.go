package feature

import (
	"sort"
	"testing"

	"costest/internal/plan"
	"costest/internal/workload"
)

// BenchmarkEncode measures Encode, pool keys included, on the deepest
// labeled JOBFull plans; one op is one plan.
func BenchmarkEncode(b *testing.B) {
	lab := &workload.Labeler{Planner: testPl, Engine: testEng}
	var plans []*plan.Node
	for _, s := range lab.Label(workload.JOBFull(testDB, 31, 64)) {
		plans = append(plans, s.Plan)
	}
	sort.SliceStable(plans, func(i, j int) bool { return plans[i].Depth() > plans[j].Depth() })
	if len(plans) > 16 {
		plans = plans[:16]
	}
	if len(plans) == 0 {
		b.Fatal("no labeled JOBFull plans")
	}
	nodes := 0
	for _, p := range plans {
		nodes += p.Count()
	}
	e := newEncoder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Encode(plans[i%len(plans)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(nodes)/float64(len(plans)), "nodes/plan")
}
