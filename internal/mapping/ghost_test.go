package mapping

import (
	"sort"
	"testing"

	"picpredict/internal/geom"
	"picpredict/internal/mesh"
)

// scalarView is a GhostView that also answers per particle, as every
// concrete view does.
type scalarView interface {
	GhostView
	GhostRanks(dst []int, pos geom.Vec3, radius float64, home int) []int
}

// ghostView returns a single view of gs, as a serial caller gets it.
func ghostView(gs GhostSource) scalarView { return gs.GhostViews(1)[0].(scalarView) }

func TestElementMapperGhostRanks(t *testing.T) {
	m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(4, 4, 1)), 4, 4, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := mesh.Decompose(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	em := ghostView(NewElementMapper(m, d))
	// Centre point with a ball reaching all quadrants: 3 foreign ranks.
	home := d.RankOf(m.ElementAt(geom.V(2, 2, 0.5)))
	got := em.GhostRanks(nil, geom.V(2, 2, 0.5), 0.7, home)
	if len(got) != 3 {
		t.Errorf("ghost ranks = %v, want 3 foreign quadrants", got)
	}
	for _, r := range got {
		if r == home {
			t.Error("home rank among ghosts")
		}
	}
	if got := em.GhostRanks(nil, geom.V(2, 2, 0.5), 0, home); len(got) != 0 {
		t.Errorf("zero radius gave %v", got)
	}
}

// TestBinGhostRanksMatchesBruteForce cross-checks the spatial-index path
// against a direct scan of every bin.
func TestBinGhostRanksMatchesBruteForce(t *testing.T) {
	pos := randomCloud(5000, 21, geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 0.01)))
	bm := NewBinMapper(128, 0.02)
	dst := make([]int, len(pos))
	if err := bm.Assign(dst, pos); err != nil {
		t.Fatal(err)
	}
	brute := func(p geom.Vec3, radius float64, home int) []int {
		seen := map[int]bool{}
		var out []int
		for _, b := range bm.Bins() {
			if b.Rank == home || seen[b.Rank] {
				continue
			}
			if b.Box.IntersectsSphere(p, radius) {
				seen[b.Rank] = true
				out = append(out, b.Rank)
			}
		}
		sort.Ints(out)
		return out
	}
	view := ghostView(bm)
	for i := 0; i < 500; i++ {
		p := pos[i*7%len(pos)]
		home := dst[i*7%len(pos)]
		radius := 0.005 + float64(i%5)*0.01
		got := view.GhostRanks(nil, p, radius, home)
		sort.Ints(got)
		want := brute(p, radius, home)
		if len(got) != len(want) {
			t.Fatalf("query %d: got %v want %v", i, got, want)
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("query %d: got %v want %v", i, got, want)
			}
		}
	}
}

func TestBinGhostIndexInvalidatedOnAssign(t *testing.T) {
	posA := randomCloud(500, 22, geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 0.01)))
	posB := randomCloud(500, 23, geom.Box(geom.V(5, 5, 0), geom.V(6, 6, 0.01)))
	bm := NewBinMapper(16, 0.05)
	dst := make([]int, 500)
	if err := bm.Assign(dst, posA); err != nil {
		t.Fatal(err)
	}
	_ = ghostView(bm).GhostRanks(nil, posA[0], 0.1, dst[0]) // builds the index
	if err := bm.Assign(dst, posB); err != nil {
		t.Fatal(err)
	}
	// Queries against the new frame's region must work (stale index would
	// return nothing or wrong candidates).
	got := ghostView(bm).GhostRanks(nil, geom.V(5.5, 5.5, 0.005), 0.5, dst[0])
	if len(got) == 0 {
		t.Error("stale index: no ghosts found in relocated cloud")
	}
}
