package bsst

import (
	"fmt"
	"math/rand"
	"testing"

	"picpredict/internal/core"
	"picpredict/internal/geom"
	"picpredict/internal/mapping"
)

// sparseWorkload is a bin-mapped workload in the paper's large-R regime: a
// compact particle cloud whose bins stop splitting at the threshold size
// long before every rank gets one, so most ranks stay empty.
func sparseWorkload(t testing.TB, ranks int) *core.Workload {
	t.Helper()
	const np, frames = 2000, 5
	rng := rand.New(rand.NewSource(3))
	base := make([]geom.Vec3, np)
	for i := range base {
		base[i] = geom.V(0.1+0.2*rng.Float64(), 0.1+0.2*rng.Float64(), 0)
	}
	var iters []int
	var pos []geom.Vec3
	for f := 0; f < frames; f++ {
		iters = append(iters, f*100)
		for _, p := range base {
			pos = append(pos, geom.V(p.X+0.03*float64(f), p.Y, 0))
		}
	}
	wl, err := core.RunFrames(core.Config{Mapper: mapping.NewBinMapper(ranks, 0.02), FilterRadius: 0.01}, iters, pos, np)
	if err != nil {
		t.Fatal(err)
	}
	if busy := wl.RealComp.RanksEverNonZero(); 2*busy > ranks {
		t.Fatalf("fixture has %d of %d ranks busy, want most empty", busy, ranks)
	}
	return wl
}

// unmemoizedCompute is the per-rank compute loop before memoization: one
// IterTime call for every rank of every interval.
func unmemoizedCompute(t *testing.T, p *Platform, wl *core.Workload) (perFrame [][]float64, maxPerFrame, busy []float64) {
	t.Helper()
	sampleEvery := wl.SampleEvery
	if sampleEvery <= 0 {
		sampleEvery = 1
	}
	busy = make([]float64, wl.Ranks)
	for k := 0; k < wl.RealComp.Frames(); k++ {
		compute := make([]float64, wl.Ranks)
		var maxCompute float64
		for r := range compute {
			np, ngp := frameCounts(wl, r, k)
			it, err := p.IterTime(np, ngp, wl.Ranks)
			if err != nil {
				t.Fatal(err)
			}
			compute[r] = float64(sampleEvery) * it
			busy[r] += compute[r]
			if compute[r] > maxCompute {
				maxCompute = compute[r]
			}
		}
		perFrame = append(perFrame, compute)
		maxPerFrame = append(maxPerFrame, maxCompute)
	}
	return perFrame, maxPerFrame, busy
}

// TestRankComputeMatchesUnmemoized: the memoized compute loop and both
// engines built on it reproduce the unmemoized loop bit for bit — per-rank
// times, per-interval compute maxima and accumulated busy time — on a
// static, a rebalanced and a mostly-empty workload.
func TestRankComputeMatchesUnmemoized(t *testing.T) {
	p := trainedPlatform(t)
	workloads := []struct {
		name string
		wl   *core.Workload
	}{
		{"cluster", clusterWorkload(t, 8)},
		{"rebalanced", rebalanceWorkload(t)},
		{"mostly-empty", sparseWorkload(t, 512)},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			wantFrames, wantMax, wantBusy := unmemoizedCompute(t, p, w.wl)

			rc := p.newRankCompute(w.wl, w.wl.SampleEvery)
			busy := make([]float64, w.wl.Ranks)
			for k, want := range wantFrames {
				compute := make([]float64, w.wl.Ranks)
				maxCompute, err := rc.frame(k, compute, busy)
				if err != nil {
					t.Fatal(err)
				}
				if maxCompute != wantMax[k] {
					t.Errorf("frame %d: max %v, want %v", k, maxCompute, wantMax[k])
				}
				for r := range want {
					if compute[r] != want[r] {
						t.Fatalf("frame %d rank %d: %v, want %v", k, r, compute[r], want[r])
					}
				}
			}
			if len(rc.memo) >= w.wl.Ranks*len(wantFrames) {
				t.Errorf("memo holds %d entries for %d cells: nothing shared", len(rc.memo), w.wl.Ranks*len(wantFrames))
			}

			for _, engine := range []struct {
				name string
				run  func(*core.Workload) (*Prediction, error)
			}{{"event", p.Simulate}, {"bsp", p.SimulateBSP}} {
				pred, err := engine.run(w.wl)
				if err != nil {
					t.Fatal(err)
				}
				for k := range wantMax {
					if pred.Compute[k] != wantMax[k] {
						t.Errorf("%s: interval %d compute %v, want %v", engine.name, k, pred.Compute[k], wantMax[k])
					}
				}
				for r := range wantBusy {
					if pred.RankBusy[r] != wantBusy[r] {
						t.Fatalf("%s: rank %d busy %v, want %v", engine.name, r, pred.RankBusy[r], wantBusy[r])
					}
				}
			}
		})
	}
}

// BenchmarkSimulateBSPSparse prices a bin workload whose ranks are mostly
// empty, the regime where memoized compute and unsorted comm traversal pay.
func BenchmarkSimulateBSPSparse(b *testing.B) {
	p := benchPlatform(b)
	for _, ranks := range []int{1024, 8192} {
		wl := sparseWorkload(b, ranks)
		b.Run(fmt.Sprintf("R=%d", ranks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.SimulateBSP(wl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
