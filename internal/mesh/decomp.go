package mesh

import (
	"fmt"
	"sort"

	"picpredict/internal/geom"
)

// Decomposition assigns every spectral element to a processor rank.
type Decomposition struct {
	// Ranks is the number of processors R.
	Ranks int
	// Owner[e] is the rank owning element e.
	Owner []int
	// ElementsOf[r] lists the elements owned by rank r, in ascending order.
	ElementsOf [][]int
	// boxes[r] is the bounding box of rank r's element set, cached for
	// ghost-particle queries.
	boxes []geom.AABB
}

// Decompose distributes the mesh elements across ranks processors using
// recursive coordinate bisection: the element set is recursively split with
// a planar cut along the longest axis of its bounding box, balancing element
// counts on each side proportionally to the number of ranks assigned to each
// half. The result keeps each rank's elements spatially compact, which is
// the property CMT-nek's recursive-bisection decomposition optimises for.
func Decompose(m *Mesh, ranks int) (*Decomposition, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("mesh: rank count must be positive, got %d", ranks)
	}
	return bisectMesh(m, ranks, nil), nil
}

// DecomposeWeighted distributes the mesh elements across ranks with the
// same recursive coordinate bisection as Decompose, but balances cumulative
// element *weight* on each side of every cut instead of element count.
// weights[e] is the load of element e (grid work plus resident particles);
// it must be non-negative and have one entry per element. A subset whose
// total weight is zero falls back to the count-proportional cut, so the
// result degenerates to Decompose exactly when all weights are equal.
func DecomposeWeighted(m *Mesh, ranks int, weights []float64) (*Decomposition, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("mesh: rank count must be positive, got %d", ranks)
	}
	n := m.NumElements()
	if len(weights) != n {
		return nil, fmt.Errorf("mesh: weighted bisection needs %d element weights, got %d", n, len(weights))
	}
	for e, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("mesh: element %d has negative weight %g", e, w)
		}
	}
	return bisectMesh(m, ranks, weights), nil
}

// bisectMesh runs the recursive bisection of every element of m over ranks
// ranks, weighted when weights is non-nil.
//
// Each subset is carried as three orders of its elements, one per axis,
// sorted by (centre coordinate, id). That is a total order, so a subset's
// order along an axis is the restriction of the mesh-wide order, and a cut
// leaves each side's orders as the stable partition of the parent's: one
// presort per mesh plus O(n) per level replaces a full sort per subset,
// and walks the cut axis in exactly the order the sort would produce.
func bisectMesh(m *Mesh, ranks int, weights []float64) *Decomposition {
	n := m.NumElements()
	d := &Decomposition{
		Ranks:      ranks,
		Owner:      make([]int, n),
		ElementsOf: make([][]int, ranks),
		boxes:      make([]geom.AABB, ranks),
	}
	shared := m.axisOrders()
	b := &bisection{
		m:       m,
		weights: weights,
		owner:   d.Owner,
		lo:      make([]bool, n),
		scratch: make([]int32, n),
	}
	var ord [3][]int32
	for a := range ord {
		ord[a] = append([]int32(nil), shared[a]...)
	}
	b.split(ord, 0, ranks)
	d.finish(m)
	return d
}

// bisection is the working state of one bisectMesh call.
type bisection struct {
	m       *Mesh
	weights []float64 // nil: count-proportional cuts
	owner   []int
	lo      []bool  // marks the lo side of the cut being partitioned
	scratch []int32 // partition buffer, reused at every level
}

// split assigns ranks [rank0, rank0+nranks) to the element subset whose
// per-axis orders are ord, permuting ord in place.
func (b *bisection) split(ord [3][]int32, rank0, nranks int) {
	n := len(ord[0])
	if nranks == 1 || n == 0 {
		for _, e := range ord[0] {
			b.owner[e] = rank0
		}
		return
	}
	// The subset's bounding box of element centres picks the cut axis; its
	// extremes along each axis are the ends of that axis's order.
	var lo, hi [3]float64
	for a := range ord {
		lo[a] = b.m.Elements.CellCenter(int(ord[a][0])).Axis(a)
		hi[a] = b.m.Elements.CellCenter(int(ord[a][n-1])).Axis(a)
	}
	box := geom.AABB{Lo: geom.V(lo[0], lo[1], lo[2]), Hi: geom.V(hi[0], hi[1], hi[2])}
	axis := box.LongestAxis()
	line := ord[axis]

	loRanks := nranks / 2
	hiRanks := nranks - loRanks
	// Split elements proportionally to the rank counts so uneven rank
	// splits (odd R) still balance element counts per rank.
	cut := n * loRanks / nranks
	if b.weights != nil {
		total := 0.0
		for _, e := range line {
			total += b.weights[e]
		}
		// A weightless subset keeps the count-proportional cut.
		if total > 0 {
			// Largest prefix whose weight stays within the lo-side share —
			// the ≤ (not <) keeps equal weights on the count cut's floor
			// semantics, so equal weights reproduce Decompose bit for bit.
			// The prefix accumulates in axis order, so the cut is
			// deterministic.
			target := total * float64(loRanks) / float64(nranks)
			prefix := 0.0
			cut = 0
			for cut < n && prefix+b.weights[line[cut]] <= target {
				prefix += b.weights[line[cut]]
				cut++
			}
			// A single over-target element at the cut must not starve the
			// lo ranks of a subset big enough to feed them; hand it over
			// rather than recursing on an empty side. (Unreachable with
			// equal weights: a positive count cut implies the first element
			// fits the target.)
			if cut == 0 && n*loRanks/nranks > 0 {
				cut = 1
			}
		}
	}

	for _, e := range line[:cut] {
		b.lo[e] = true
	}
	for a := range ord {
		if a != axis {
			b.partition(ord[a], cut)
		}
	}
	for _, e := range line[:cut] {
		b.lo[e] = false
	}
	var loOrd, hiOrd [3][]int32
	for a := range ord {
		loOrd[a], hiOrd[a] = ord[a][:cut], ord[a][cut:]
	}
	b.split(loOrd, rank0, loRanks)
	b.split(hiOrd, rank0+loRanks, hiRanks)
}

// partition stably moves the lo-marked elements of o, cut of them, to its
// front.
func (b *bisection) partition(o []int32, cut int) {
	buf := b.scratch[:len(o)]
	lo, hi := 0, cut
	for _, e := range o {
		if b.lo[e] {
			buf[lo] = e
			lo++
		} else {
			buf[hi] = e
			hi++
		}
	}
	copy(o, buf)
}

// FromOwner rebuilds a full Decomposition (per-rank element lists and
// bounding boxes) from an explicit element→rank assignment, validating every
// entry. It is how time-varying mappings re-enter the static query machinery:
// a rebalance policy emits a new owner slice and FromOwner makes it a
// Decomposition that SphereOwners and the ghost paths can use unchanged.
func FromOwner(m *Mesh, ranks int, owner []int) (*Decomposition, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("mesh: rank count must be positive, got %d", ranks)
	}
	n := m.NumElements()
	if len(owner) != n {
		return nil, fmt.Errorf("mesh: owner assignment needs %d entries, got %d", n, len(owner))
	}
	d := &Decomposition{
		Ranks:      ranks,
		Owner:      make([]int, n),
		ElementsOf: make([][]int, ranks),
		boxes:      make([]geom.AABB, ranks),
	}
	for e, r := range owner {
		if r < 0 || r >= ranks {
			return nil, fmt.Errorf("mesh: element %d assigned to rank %d outside [0,%d)", e, r, ranks)
		}
		d.Owner[e] = r
	}
	d.finish(m)
	return d, nil
}

// finish derives ElementsOf and the per-rank bounding boxes from Owner.
func (d *Decomposition) finish(m *Mesh) {
	for e, r := range d.Owner {
		d.ElementsOf[r] = append(d.ElementsOf[r], e)
	}
	for r := range d.ElementsOf {
		sort.Ints(d.ElementsOf[r])
		box := geom.EmptyBox()
		for _, e := range d.ElementsOf[r] {
			box = box.Union(m.ElementBox(e))
		}
		d.boxes[r] = box
	}
}

// RankOf returns the rank owning element e.
func (d *Decomposition) RankOf(e int) int { return d.Owner[e] }

// NumElementsOf returns how many elements rank r owns (the paper's per-
// processor N_el).
func (d *Decomposition) NumElementsOf(r int) int { return len(d.ElementsOf[r]) }

// RankBox returns the bounding box of rank r's element set. Ranks owning no
// elements report an empty box.
func (d *Decomposition) RankBox(r int) geom.AABB { return d.boxes[r] }

// RanksInSphere appends to dst every rank whose element-set bounding box
// intersects the ball (c, radius), excluding rank `exclude` (pass -1 to
// exclude none), and returns the extended slice.
//
// This conservative query over rank boxes is refined by callers that need
// exact element-level tests; for compact recursive-bisection partitions the
// boxes overlap little, so the overestimate is small.
func (d *Decomposition) RanksInSphere(dst []int, c geom.Vec3, radius float64, exclude int) []int {
	for r, box := range d.boxes {
		if r == exclude {
			continue
		}
		if box.IntersectsSphere(c, radius) {
			dst = append(dst, r)
		}
	}
	return dst
}

// Imbalance returns max/mean element count across ranks, a load-balance
// figure of merit for the fluid (element) workload. A perfectly balanced
// decomposition returns 1.
func (d *Decomposition) Imbalance() float64 {
	if d.Ranks == 0 {
		return 0
	}
	maxN, total := 0, 0
	for r := 0; r < d.Ranks; r++ {
		n := len(d.ElementsOf[r])
		total += n
		if n > maxN {
			maxN = n
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(d.Ranks)
	return float64(maxN) / mean
}
