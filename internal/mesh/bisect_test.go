package mesh

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"picpredict/internal/geom"
)

// referenceDecompose is the sort-based recursive bisection the presorted
// routine replaced, kept as its oracle: every subset is re-sorted along its
// longest axis by (centre coordinate, id) and cut where the element count
// (weights == nil) or the prefix weight reaches the lo side's share.
func referenceDecompose(m *Mesh, ranks int, weights []float64) []int {
	n := m.NumElements()
	owner := make([]int, n)
	elems := make([]int, n)
	for i := range elems {
		elems[i] = i
	}
	centers := make([]geom.Vec3, n)
	for i := range centers {
		centers[i] = m.Elements.CellCenter(i)
	}
	if weights == nil {
		referenceBisect(elems, centers, 0, ranks, owner)
	} else {
		referenceBisectWeighted(elems, centers, weights, 0, ranks, owner)
	}
	return owner
}

// sortAlongLongestAxis sorts elems along the longest axis of their centres'
// bounding box with the (coordinate, id) tie-break.
func sortAlongLongestAxis(elems []int, centers []geom.Vec3) {
	box := geom.EmptyBox()
	for _, e := range elems {
		box = box.Extend(centers[e])
	}
	axis := box.LongestAxis()
	sort.Slice(elems, func(a, b int) bool {
		ca, cb := centers[elems[a]].Axis(axis), centers[elems[b]].Axis(axis)
		//lint:allow floatcmp exact comparison keeps the oracle's sort a strict total order; the index tie-break below handles equal centers
		if ca != cb {
			return ca < cb
		}
		return elems[a] < elems[b]
	})
}

func referenceBisect(elems []int, centers []geom.Vec3, rank0, nranks int, owner []int) {
	if nranks == 1 || len(elems) == 0 {
		for _, e := range elems {
			owner[e] = rank0
		}
		return
	}
	sortAlongLongestAxis(elems, centers)
	loRanks := nranks / 2
	cut := len(elems) * loRanks / nranks
	referenceBisect(elems[:cut], centers, rank0, loRanks, owner)
	referenceBisect(elems[cut:], centers, rank0+loRanks, nranks-loRanks, owner)
}

func referenceBisectWeighted(elems []int, centers []geom.Vec3, weights []float64, rank0, nranks int, owner []int) {
	if nranks == 1 || len(elems) == 0 {
		for _, e := range elems {
			owner[e] = rank0
		}
		return
	}
	sortAlongLongestAxis(elems, centers)
	loRanks := nranks / 2
	total := 0.0
	for _, e := range elems {
		total += weights[e]
	}
	var cut int
	if total <= 0 {
		cut = len(elems) * loRanks / nranks
	} else {
		target := total * float64(loRanks) / float64(nranks)
		prefix := 0.0
		for cut < len(elems) && prefix+weights[elems[cut]] <= target {
			prefix += weights[elems[cut]]
			cut++
		}
		if cut == 0 && len(elems)*loRanks/nranks > 0 {
			cut = 1
		}
	}
	referenceBisectWeighted(elems[:cut], centers, weights, rank0, loRanks, owner)
	referenceBisectWeighted(elems[cut:], centers, weights, rank0+loRanks, nranks-loRanks, owner)
}

// bisectWeightKinds are the element-weight families the oracle test
// covers; nil means the unweighted Decompose.
var bisectWeightKinds = []struct {
	name string
	mk   func(rng *rand.Rand, n int) []float64
}{
	{"unweighted", func(*rand.Rand, int) []float64 { return nil }},
	{"equal", func(_ *rand.Rand, n int) []float64 {
		w := make([]float64, n)
		for e := range w {
			w[e] = 1.5
		}
		return w
	}},
	{"skewed", func(rng *rand.Rand, n int) []float64 {
		w := make([]float64, n)
		for e := range w {
			w[e] = 0.01 + rng.ExpFloat64()*rng.ExpFloat64()*10
		}
		return w
	}},
	{"mostly-zero", func(rng *rand.Rand, n int) []float64 {
		w := make([]float64, n)
		for e := range w {
			if rng.Intn(10) == 0 {
				w[e] = rng.Float64() * 100
			}
		}
		return w
	}},
	{"one-over-target", func(rng *rand.Rand, n int) []float64 {
		// The corner element 0 comes first along every axis and outweighs
		// everything else put together: no prefix fits the lo share, so
		// the first cut hands that one element over (the cut = 1 branch).
		w := make([]float64, n)
		for e := range w {
			w[e] = rng.Float64()
		}
		w[0] = float64(n) * 10
		return w
	}},
}

// TestBisectMatchesReference pins the presorted bisection to the sort-based
// oracle: exact Owner equality over mesh shapes (square, 3-D, odd, paper
// scale), rank counts from 1 past the element count, and weight families
// that take every branch of the cut.
func TestBisectMatchesReference(t *testing.T) {
	type shape struct{ ex, ey, ez int }
	shapes := []shape{{128, 128, 1}, {16, 8, 4}, {7, 5, 3}, {465, 465, 1}}
	rng := rand.New(rand.NewSource(13))
	for _, s := range shapes {
		m := mustMesh(t, s.ex, s.ey, s.ez)
		n := m.NumElements()
		ranksList := []int{1, 2, 3, 7, 64, 1044, 8352, n + 5}
		for k, wk := range bisectWeightKinds {
			for i, ranks := range ranksList {
				// The oracle's full sort per subset costs about half a
				// second per case on the paper-scale mesh, so there every
				// rank count takes one weight family in rotation — skewed
				// at R=1044, mostly-zero at R=8352 — which still covers
				// every family.
				if n > 100000 && k != (i+2)%len(bisectWeightKinds) {
					continue
				}
				weights := wk.mk(rng, n)
				t.Run(fmt.Sprintf("%dx%dx%d/%s/R=%d", s.ex, s.ey, s.ez, wk.name, ranks), func(t *testing.T) {
					want := referenceDecompose(m, ranks, weights)
					var d *Decomposition
					var err error
					if weights == nil {
						d, err = Decompose(m, ranks)
					} else {
						d, err = DecomposeWeighted(m, ranks, weights)
					}
					if err != nil {
						t.Fatal(err)
					}
					for e := range want {
						if d.Owner[e] != want[e] {
							t.Fatalf("Owner[%d] = %d, want %d", e, d.Owner[e], want[e])
						}
					}
				})
			}
		}
	}
}

// The axis orders are built lazily on a mesh that concurrent builds share;
// bisections racing on a fresh mesh must all see complete orders (run under
// -race) and agree with the oracle.
func TestBisectConcurrentFirstUse(t *testing.T) {
	m := mustMesh(t, 16, 8, 4)
	want := referenceDecompose(m, 7, nil)
	const goroutines = 4
	owners := make([][]int, goroutines)
	var wg sync.WaitGroup
	for g := range owners {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d, err := Decompose(m, 7)
			if err != nil {
				t.Error(err)
				return
			}
			owners[g] = d.Owner
		}(g)
	}
	wg.Wait()
	for g, owner := range owners {
		if owner == nil {
			continue // the goroutine reported its error
		}
		for e := range want {
			if owner[e] != want[e] {
				t.Fatalf("goroutine %d: Owner[%d] = %d, want %d", g, e, owner[e], want[e])
			}
		}
	}
}

// benchDecomposeWeighted times one re-bisection of an ex×ey×1 mesh under a
// skewed particle load, the rebalance policies' per-epoch cost.
func benchDecomposeWeighted(b *testing.B, ex, ey, ranks int) {
	m, err := New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1)), ex, ey, 1, 5)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	weights := make([]float64, m.NumElements())
	for e := range weights {
		weights[e] = 0.01 + rng.ExpFloat64()*rng.ExpFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecomposeWeighted(m, ranks, weights); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecomposeWeighted(b *testing.B) {
	b.Run("128x128/R=1044", func(b *testing.B) { benchDecomposeWeighted(b, 128, 128, 1044) })
	b.Run("465x465/R=8352", func(b *testing.B) { benchDecomposeWeighted(b, 465, 465, 8352) })
}
