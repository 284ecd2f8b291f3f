package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"picpredict/internal/geom"
	"picpredict/internal/mapping"
	"picpredict/internal/mesh"
	"picpredict/internal/rebalance"
	"picpredict/internal/sparse"
)

// clusteredFrames builds a multi-frame drifting particle cloud that exercises
// rank migration (comm) and filter overlap (ghosts).
func clusteredFrames(frames, np int, seed int64) ([]int, []geom.Vec3) {
	rng := rand.New(rand.NewSource(seed))
	base := make([]geom.Vec3, np)
	for i := range base {
		base[i] = geom.V(rng.Float64(), rng.Float64(), 0)
	}
	iters := make([]int, frames)
	pos := make([]geom.Vec3, 0, frames*np)
	for f := 0; f < frames; f++ {
		iters[f] = f * 100
		for i := range base {
			drift := 0.02 * float64(f)
			p := geom.V(base[i].X+drift*rng.Float64(), base[i].Y, 0)
			if p.X > 1 {
				p.X = 2 - p.X // reflect at the wall, as the application does
			}
			pos = append(pos, p)
		}
	}
	return iters, pos
}

// scalarGhostView is the per-particle ghost query every mapping view
// answers besides its tile query.
type scalarGhostView interface {
	GhostRanks(dst []int, pos geom.Vec3, radius float64, home int) []int
}

// referenceFill is the per-particle oracle of the production fill, §II-A
// read literally: every particle counts once on its rank, once on the
// (previous, current) rank pair if it moved, and then materialises a ghost
// on each foreign rank its projection filter touches — one ghost query per
// particle, in index order. prev is nil on the first frame; view is nil
// when ghost generation is off.
func referenceFill(cur, prev []int, pos []geom.Vec3, radius float64, view scalarGhostView,
	comp []int64, comm *sparse.Matrix, gcomp []int64, gcomm *sparse.Matrix) error {
	for _, r := range cur {
		comp[r]++
	}
	if prev != nil {
		for i, r := range cur {
			if p := prev[i]; p != r {
				if err := comm.Add(p, r, 1); err != nil {
					return err
				}
			}
		}
	}
	if view == nil {
		return nil
	}
	var buf []int
	for i, p := range pos {
		home := cur[i]
		buf = view.GhostRanks(buf[:0], p, radius, home)
		for _, r := range buf {
			gcomp[r]++
			if err := gcomm.Add(home, r, 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// roundRobinView deals successive per-particle ghost queries over the
// views of one GhostViews call, the i-th query to view i mod len(views).
type roundRobinView struct {
	views []mapping.GhostView
	next  int
}

func (v *roundRobinView) GhostRanks(dst []int, pos geom.Vec3, radius float64, home int) []int {
	q := v.views[v.next%len(v.views)].(scalarGhostView)
	v.next++
	return q.GhostRanks(dst, pos, radius, home)
}

// referenceWorkload builds the workload of the frames with referenceFill,
// independently of Generator: the mapper assigns each frame, its
// migrations are drained into the migration matrices, and fresh views
// answer the frame's ghost queries — one view, or, when views > 1, that
// many views of one GhostViews call taking the queries in turn.
func referenceWorkload(t *testing.T, mapper mapping.Mapper, radius float64, views int, iters []int, pos []geom.Vec3, np int) *Workload {
	t.Helper()
	r := mapper.Ranks()
	wl := &Workload{Ranks: r, NumParticles: np, RealComp: NewCompMatrix(r), RealComm: sparse.NewSeries(r)}
	ghosts, _ := mapper.(mapping.GhostSource)
	if radius <= 0 {
		ghosts = nil
	}
	if ghosts != nil {
		wl.GhostComp, wl.GhostComm = NewCompMatrix(r), sparse.NewSeries(r)
	}
	mig, _ := mapper.(mapping.MigrationSource)
	if mig != nil {
		wl.MigElemComm, wl.MigPartComm = sparse.NewSeries(r), sparse.NewSeries(r)
	}
	var prev []int
	for k, it := range iters {
		frame := pos[k*np : (k+1)*np]
		cur := make([]int, np)
		if err := mapper.Assign(cur, frame); err != nil {
			t.Fatal(err)
		}
		if mig != nil {
			me, mp := wl.MigElemComm.Append(), wl.MigPartComm.Append()
			for _, m := range mig.DrainMigrations() {
				if err := me.Add(m.Src, m.Dst, m.Elements); err != nil {
					t.Fatal(err)
				}
				if err := mp.Add(m.Src, m.Dst, m.Particles); err != nil {
					t.Fatal(err)
				}
			}
		}
		var view scalarGhostView
		var gcomp []int64
		var gcomm *sparse.Matrix
		if ghosts != nil {
			if views > 1 {
				view = &roundRobinView{views: ghosts.GhostViews(views)}
			} else {
				view = ghosts.GhostViews(1)[0].(scalarGhostView)
			}
			gcomp, gcomm = wl.GhostComp.AppendFrame(it), wl.GhostComm.Append()
		}
		if err := referenceFill(cur, prev, frame, radius, view,
			wl.RealComp.AppendFrame(it), wl.RealComm.Append(), gcomp, gcomm); err != nil {
			t.Fatal(err)
		}
		prev = cur
	}
	if len(iters) >= 2 {
		wl.SampleEvery = iters[1] - iters[0]
	}
	return wl
}

func requireEqualWorkloads(t *testing.T, want, got *Workload) {
	t.Helper()
	if want.Ranks != got.Ranks || want.NumParticles != got.NumParticles || want.SampleEvery != got.SampleEvery {
		t.Fatalf("header (ranks, particles, sample) = (%d, %d, %d), want (%d, %d, %d)",
			got.Ranks, got.NumParticles, got.SampleEvery, want.Ranks, want.NumParticles, want.SampleEvery)
	}
	if want.RealComp.Frames() != got.RealComp.Frames() {
		t.Fatalf("frame counts differ: %d vs %d", want.RealComp.Frames(), got.RealComp.Frames())
	}
	if (want.GhostComp == nil) != (got.GhostComp == nil) {
		t.Fatal("ghost matrices present in one workload only")
	}
	if (want.MigElemComm == nil) != (got.MigElemComm == nil) {
		t.Fatal("migration matrices present in one workload only")
	}
	series := func(name string, w, g *sparse.Series, k int) {
		if w != nil && !reflect.DeepEqual(w.At(k).Entries(), g.At(k).Entries()) {
			t.Errorf("%s frame %d differs", name, k)
		}
	}
	for k := 0; k < want.RealComp.Frames(); k++ {
		if !reflect.DeepEqual(want.RealComp.Frame(k), got.RealComp.Frame(k)) {
			t.Errorf("RealComp frame %d differs", k)
		}
		if want.GhostComp != nil && !reflect.DeepEqual(want.GhostComp.Frame(k), got.GhostComp.Frame(k)) {
			t.Errorf("GhostComp frame %d differs", k)
		}
		series("RealComm", want.RealComm, got.RealComm, k)
		series("GhostComm", want.GhostComm, got.GhostComm, k)
		series("MigElemComm", want.MigElemComm, got.MigElemComm, k)
		series("MigPartComm", want.MigPartComm, got.MigPartComm, k)
	}
}

// runGenerator feeds the frames through a production generator (RunFrames
// without its non-empty frame check) and returns the workload.
func runGenerator(t *testing.T, cfg Config, iters []int, pos []geom.Vec3, np int) *Workload {
	t.Helper()
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k, it := range iters {
		if err := g.Frame(it, pos[k*np:(k+1)*np]); err != nil {
			t.Fatal(err)
		}
	}
	wl, err := g.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// fillTestMapper names a fresh-mapper factory; every run gets its own
// mapper so no per-frame state leaks between the runs compared.
type fillTestMapper struct {
	name string
	mk   func() mapping.Mapper
}

// fillTestMesh is the 8×8×1 unit-box mesh and its 8-rank bisection that
// the element-based test mappers share.
func fillTestMesh(t *testing.T) (*mesh.Mesh, *mesh.Decomposition) {
	t.Helper()
	m, err := mesh.New(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1)), 8, 8, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := mesh.Decompose(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	return m, d
}

// staticGhostMappers are the two static ghost sources.
func staticGhostMappers(t *testing.T) []fillTestMapper {
	t.Helper()
	m, d := fillTestMesh(t)
	return []fillTestMapper{
		{"bin", func() mapping.Mapper { return mapping.NewBinMapper(8, 0.05) }},
		{"element", func() mapping.Mapper { return mapping.NewElementMapper(m, d) }},
	}
}

// fillVariant is one route to a workload that must equal the reference.
// The names are those of the fill layouts the generator once offered as
// an option; the fill now follows from the input, so each kind of name
// takes a route of its own:
//
//	tiled-*  the production generator fed frame by frame;
//	auto-*   RunFrames, the one-shot in-memory entry point;
//	scalar-* the reference fill with its queries dealt over the views of
//	         one GhostViews(workers) call, so every view a fan-out hands
//	         out answers like the single serial view.
type fillVariant struct {
	name    string
	kind    string // "tiled", "auto" or "scalar"
	workers int
}

func (v fillVariant) run(t *testing.T, mapper mapping.Mapper, radius float64, iters []int, pos []geom.Vec3, np int) *Workload {
	t.Helper()
	cfg := Config{Mapper: mapper, FilterRadius: radius, Workers: v.workers}
	switch v.kind {
	case "tiled":
		return runGenerator(t, cfg, iters, pos, np)
	case "auto":
		wl, err := RunFrames(cfg, iters, pos, np)
		if err != nil {
			t.Fatal(err)
		}
		return wl
	case "scalar":
		return referenceWorkload(t, mapper, radius, v.workers, iters, pos, np)
	}
	t.Fatalf("unknown variant kind %q", v.kind)
	return nil
}

// TestFillLayoutsBitIdentical is the fill's correctness contract for the
// static ghost sources: with and without ghosts, serial and fanned out
// over any worker count, every route reproduces the per-particle
// reference workload bit for bit (integer counters, ordered reductions).
func TestFillLayoutsBitIdentical(t *testing.T) {
	const np = 500
	iters, pos := clusteredFrames(5, np, 29)
	variants := []fillVariant{
		{"tiled-serial", "tiled", 0},
		{"tiled-parallel-2", "tiled", 2},
		{"tiled-parallel-3", "tiled", 3},
		{"tiled-parallel-8", "tiled", 8},
		{"scalar-parallel-3", "scalar", 3},
		{"auto-serial", "auto", 0},
		{"auto-parallel-3", "auto", 3},
	}
	for _, mp := range staticGhostMappers(t) {
		for _, radius := range []float64{0, 0.04} {
			ref := referenceWorkload(t, mp.mk(), radius, 1, iters, pos, np)
			for _, v := range variants {
				t.Run(fmt.Sprintf("%s/r=%g/%s", mp.name, radius, v.name), func(t *testing.T) {
					requireEqualWorkloads(t, ref, v.run(t, mp.mk(), radius, iters, pos, np))
				})
			}
		}
	}
}

// TestFillLayoutsEdgeFrames covers the degenerate frames every route must
// agree on: zero particles, more workers than particles, and a zero filter
// radius (ghost generation disabled).
func TestFillLayoutsEdgeFrames(t *testing.T) {
	mappers := staticGhostMappers(t)

	t.Run("zero-particles", func(t *testing.T) {
		iters, _ := clusteredFrames(3, 0, 1)
		for _, mp := range mappers {
			wl := runGenerator(t, Config{Mapper: mp.mk(), FilterRadius: 0.04, Workers: 4}, iters, nil, 0)
			if wl.NumParticles != 0 || wl.RealComp.Frames() != 3 {
				t.Fatalf("%s: got %d particles, %d frames", mp.name, wl.NumParticles, wl.RealComp.Frames())
			}
			requireEqualWorkloads(t, referenceWorkload(t, mp.mk(), 0.04, 1, iters, nil, 0), wl)
		}
	})

	t.Run("workers-exceed-particles", func(t *testing.T) {
		const np = 3
		iters, pos := clusteredFrames(4, np, 7)
		for _, mp := range mappers {
			ref := referenceWorkload(t, mp.mk(), 0.04, 1, iters, pos, np)
			// Named by the removed Layout option's numbering: 0 auto,
			// 1 tiled, 2 scalar.
			for _, v := range []fillVariant{{"layout=0/w=16", "auto", 16}, {"layout=1/w=8", "tiled", 8}, {"layout=2/w=8", "scalar", 8}} {
				t.Run(mp.name+"/"+v.name, func(t *testing.T) {
					requireEqualWorkloads(t, ref, v.run(t, mp.mk(), 0.04, iters, pos, np))
				})
			}
		}
	})

	t.Run("radius-zero", func(t *testing.T) {
		const np = 200
		iters, pos := clusteredFrames(3, np, 13)
		for _, mp := range mappers {
			t.Run(mp.name, func(t *testing.T) {
				ref := referenceWorkload(t, mp.mk(), 0, 1, iters, pos, np)
				requireEqualWorkloads(t, ref, runGenerator(t, Config{Mapper: mp.mk(), Workers: 3}, iters, pos, np))
			})
		}
	})
}

// fillTrial is one randomised frame set of randomFillTrials.
type fillTrial struct {
	name    string
	np      int
	radius  float64
	workers int
	iters   []int
	pos     []geom.Vec3
}

// randomFillTrials draws twelve random cloud shapes, sizes, radii and
// worker counts from a fixed seed.
func randomFillTrials() []fillTrial {
	rng := rand.New(rand.NewSource(41))
	var trials []fillTrial
	for trial := 0; trial < 12; trial++ {
		np := 1 + rng.Intn(300)
		frames := 1 + rng.Intn(4)
		radius := []float64{0, 0.003, 0.02, 0.15}[rng.Intn(4)]
		workers := 1 + rng.Intn(6)
		iters, pos := clusteredFrames(frames, np, rng.Int63())
		trials = append(trials, fillTrial{fmt.Sprintf("trial%d", trial), np, radius, workers, iters, pos})
	}
	return trials
}

// TestFillLayoutsRandomised fuzzes the static ghost sources over random
// frames: whatever the frame looks like, the production fill must
// reproduce the reference bit for bit.
func TestFillLayoutsRandomised(t *testing.T) {
	mappers := staticGhostMappers(t)
	for _, tr := range randomFillTrials() {
		for _, mp := range mappers {
			t.Run(fmt.Sprintf("%s/%s/np=%d/r=%g/w=%d", tr.name, mp.name, tr.np, tr.radius, tr.workers), func(t *testing.T) {
				ref := referenceWorkload(t, mp.mk(), tr.radius, 1, tr.iters, tr.pos, tr.np)
				got := runGenerator(t, Config{Mapper: mp.mk(), FilterRadius: tr.radius, Workers: tr.workers}, tr.iters, tr.pos, tr.np)
				requireEqualWorkloads(t, ref, got)
			})
		}
	}
}

// TestFillMatchesReference extends the reference contract to the inputs
// the static-source tests above do not reach: the dynamic element mapper
// under a threshold policy that re-bisects mid-trace (new views after each
// epoch swap, migration matrices compared too), and hilbert, which answers
// no ghost queries and so takes the flat fill even with a positive filter.
// Each gets the same grid, edge frames and random trials.
func TestFillMatchesReference(t *testing.T) {
	type fillCase struct {
		name    string
		mapper  fillTestMapper
		radius  float64
		workers int
		iters   []int
		pos     []geom.Vec3
		np      int
		// wantEpoch: the mapper must rebalance after the first frame, so
		// the row compares fills across an epoch swap.
		wantEpoch bool
		// wantFlush: some frame must move and copy particles between more
		// distinct rank pairs than two full pair tallies hold, so with one
		// or two tile ranges a tally flushes mid-range.
		wantFlush bool
	}
	m, _ := fillTestMesh(t)
	mappers := []fillTestMapper{
		{"element+threshold", func() mapping.Mapper {
			return mapping.NewDynamicMapper(m, 8, rebalance.Threshold{Factor: 1.05})
		}},
		{"hilbert", func() mapping.Mapper { return mapping.NewHilbertMapper(m, 8) }},
	}
	var cases []fillCase

	const np = 500
	iters, pos := clusteredFrames(5, np, 29)
	for _, mp := range mappers {
		for _, radius := range []float64{0, 0.04} {
			for _, workers := range []int{1, 2, 3, 8} {
				cases = append(cases, fillCase{fmt.Sprintf("%s/r=%g/w=%d", mp.name, radius, workers), mp, radius, workers, iters, pos, np,
					mp.name == "element+threshold", false})
			}
		}
	}

	// Edge frames: no particles at all, and more workers than particles.
	emptyIters, _ := clusteredFrames(3, 0, 1)
	tinyIters, tinyPos := clusteredFrames(4, 3, 7)
	for _, mp := range mappers {
		cases = append(cases, fillCase{"zero-particles/" + mp.name, mp, 0.04, 4, emptyIters, nil, 0, false, false})
		for _, workers := range []int{8, 16} {
			cases = append(cases, fillCase{fmt.Sprintf("workers-exceed-particles/%s/w=%d", mp.name, workers), mp, 0.04, workers, tinyIters, tinyPos, 3, false, false})
		}
	}

	for _, tr := range randomFillTrials() {
		for _, mp := range mappers {
			cases = append(cases, fillCase{fmt.Sprintf("%s/%s/np=%d/r=%g/w=%d", tr.name, mp.name, tr.np, tr.radius, tr.workers),
				mp, tr.radius, tr.workers, tr.iters, tr.pos, tr.np, false, false})
		}
	}

	// Mid-range flush: a thousand small bins under a filter several bins
	// wide give each tile range more distinct rank pairs than a tally
	// holds.
	manyBins := fillTestMapper{"bin-1024", func() mapping.Mapper { return mapping.NewBinMapper(1024, 0.005) }}
	const flushNp = 3000
	flushIters, flushPos := clusteredFrames(3, flushNp, 17)
	for _, workers := range []int{1, 2} {
		cases = append(cases, fillCase{fmt.Sprintf("mid-range-flush/w=%d", workers), manyBins, 0.1, workers, flushIters, flushPos, flushNp, false, true})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := referenceWorkload(t, tc.mapper.mk(), tc.radius, 1, tc.iters, tc.pos, tc.np)
			if tc.wantEpoch && (want.MigElemComm.At(0).Total() != 0 || want.MigElemComm.Aggregate().Total() == 0) {
				t.Fatal("policy did not rebalance after the first frame: no epoch swap to compare")
			}
			if tc.wantFlush {
				realPairs, ghostPairs := 0, 0
				for k := 0; k < want.RealComm.Frames(); k++ {
					realPairs = max(realPairs, want.RealComm.At(k).NumNonZero())
					ghostPairs = max(ghostPairs, want.GhostComm.At(k).NumNonZero())
				}
				if realPairs <= 2*pairTallyFlushAt || ghostPairs <= 2*pairTallyFlushAt {
					t.Fatalf("peak distinct pairs per frame: %d moved, %d ghost; want both > %d", realPairs, ghostPairs, 2*pairTallyFlushAt)
				}
			}
			got := runGenerator(t, Config{Mapper: tc.mapper.mk(), FilterRadius: tc.radius, Workers: tc.workers}, tc.iters, tc.pos, tc.np)
			requireEqualWorkloads(t, want, got)
		})
	}
}

// TestGeneratorParallelMatchesSerial is the correctness contract of the
// worker-pool fill: integer partial sums reduce to exactly the serial
// workload, for every mapper and worker count.
func TestGeneratorParallelMatchesSerial(t *testing.T) {
	iters, pos := clusteredFrames(4, 600, 11)
	m, d := fillTestMesh(t)

	cases := []struct {
		name   string
		mapper func() mapping.Mapper
		filter float64
	}{
		{"bin-no-ghosts", func() mapping.Mapper { return mapping.NewBinMapper(16, 0.05) }, 0},
		{"bin-ghosts", func() mapping.Mapper { return mapping.NewBinMapper(16, 0.05) }, 0.04},
		{"element-ghosts", func() mapping.Mapper { return mapping.NewElementMapper(m, d) }, 0.06},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial, err := RunFrames(Config{Mapper: tc.mapper(), FilterRadius: tc.filter}, iters, pos, 600)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 8} {
				par, err := RunFrames(Config{
					Mapper:       tc.mapper(),
					FilterRadius: tc.filter,
					Workers:      workers,
				}, iters, pos, 600)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				requireEqualWorkloads(t, serial, par)
			}
		})
	}
}

// TestGeneratorParallelSmallFrame: frames below the fan-out threshold fill
// as one range without changing the result.
func TestGeneratorParallelSmallFrame(t *testing.T) {
	iters, pos := clusteredFrames(3, 16, 9)
	want, err := RunFrames(Config{Mapper: mapping.NewBinMapper(4, 0.1), FilterRadius: 0.05}, iters, pos, 16)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunFrames(Config{Mapper: mapping.NewBinMapper(4, 0.1), FilterRadius: 0.05, Workers: 8}, iters, pos, 16)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualWorkloads(t, want, got)
}
