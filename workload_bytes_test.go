package picpredict

import (
	"math"
	"runtime"
	"testing"
)

// TestWorkloadBytesEstimate: the size estimate a server accounts its build
// cache with stays within 2× of the heap a workload really retains, for an
// element and a bin workload with ghosts on.
func TestWorkloadBytesEstimate(t *testing.T) {
	tr, err := HeleShaw().WithParticles(4000).WithSteps(200).WithSampleEvery(20).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []WorkloadOptions{
		{Ranks: 1044, Mapping: MappingElement, FilterRadius: 0.004},
		{Ranks: 1044, Mapping: MappingBin, FilterRadius: 0.004},
	} {
		// A first build warms the per-mesh caches the trace keeps, so the
		// measured build adds only the workload itself.
		if _, err := tr.GenerateWorkload(opts); err != nil {
			t.Fatal(err)
		}
		before := liveHeap()
		wl, err := tr.GenerateWorkload(opts)
		if err != nil {
			t.Fatal(err)
		}
		retained := liveHeap() - before
		runtime.KeepAlive(wl)
		est := wl.Bytes()
		if ratio := float64(est) / float64(retained); ratio < 0.5 || ratio > 2 {
			t.Errorf("%s R=%d: estimate %d B vs retained %d B (ratio %.2f), want within 2×",
				opts.Mapping, opts.Ranks, est, retained, ratio)
		}
	}
}

func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestEstimateWorkloadBytesShape pins the pre-generation bound (ranks ×
// frames × 8 B per comp matrix, twice with ghosts) and its saturation.
func TestEstimateWorkloadBytesShape(t *testing.T) {
	base := EstimateWorkloadBytes(1000, 21, false, 0)
	if got := EstimateWorkloadBytes(2000, 21, false, 0) - base; got != 1000*21*8 {
		t.Errorf("1000 more ranks cost %d B, want %d", got, 1000*21*8)
	}
	if ghosts := EstimateWorkloadBytes(1000, 21, true, 0); ghosts < 2*1000*21*8 {
		t.Errorf("ghosts-on estimate %d B below both comp matrices", ghosts)
	}
	if got := EstimateWorkloadBytes(1000, 21, false, 10) - base; got <= 0 {
		t.Errorf("non-zeros add %d B", got)
	}
	for _, r := range []int{300000000, math.MaxInt} {
		if got := EstimateWorkloadBytes(r, 21, true, 0); got < 0 || (r == math.MaxInt && got != math.MaxInt64) {
			t.Errorf("R=%d: estimate %d did not saturate", r, got)
		}
	}
	if got := EstimateWorkloadBytes(0, 21, true, 0); got != 0 {
		t.Errorf("empty workload estimate %d, want 0", got)
	}
}
