package mapping

import (
	"math/rand"
	"testing"

	"picpredict/internal/geom"
	"picpredict/internal/mesh"
)

func benchCloud(n int) []geom.Vec3 {
	rng := rand.New(rand.NewSource(11))
	pos := make([]geom.Vec3, n)
	for i := range pos {
		pos[i] = geom.V(rng.Float64(), rng.Float64(), rng.Float64()*0.01)
	}
	return pos
}

// Ablation: median vs midpoint planar cuts at the same scale.
func BenchmarkBinAssignMedian(b *testing.B) {
	benchBinAssign(b, SplitMedian)
}

func BenchmarkBinAssignMidpoint(b *testing.B) {
	benchBinAssign(b, SplitMidpoint)
}

func benchBinAssign(b *testing.B, policy SplitPolicy) {
	pos := benchCloud(50000)
	bm := NewBinMapper(1024, 0.01)
	bm.Policy = policy
	dst := make([]int, len(pos))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bm.Assign(dst, pos); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(pos)), "particles/frame")
}

func BenchmarkElementAssign(b *testing.B) {
	m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 0.01)), 128, 128, 1, 4)
	if err != nil {
		b.Fatal(err)
	}
	d, err := mesh.Decompose(m, 1024)
	if err != nil {
		b.Fatal(err)
	}
	em := NewElementMapper(m, d)
	pos := benchCloud(50000)
	dst := make([]int, len(pos))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := em.Assign(dst, pos); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHilbertAssign(b *testing.B) {
	m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 0.01)), 128, 128, 1, 4)
	if err != nil {
		b.Fatal(err)
	}
	hm := NewHilbertMapper(m, 1024)
	pos := benchCloud(50000)
	dst := make([]int, len(pos))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := hm.Assign(dst, pos); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGhostRanksBin(b *testing.B) {
	pos := benchCloud(20000)
	bm := NewBinMapper(512, 0.01)
	dst := make([]int, len(pos))
	if err := bm.Assign(dst, pos); err != nil {
		b.Fatal(err)
	}
	view := ghostView(bm)
	var buf []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = view.GhostRanks(buf[:0], pos[i%len(pos)], 0.02, dst[i%len(pos)])
	}
}
