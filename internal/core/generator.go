package core

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"picpredict/internal/geom"
	"picpredict/internal/mapping"
	"picpredict/internal/obs"
	"picpredict/internal/sparse"
	"picpredict/internal/tile"
	"picpredict/internal/trace"
)

// Config is the Dynamic Workload Generator's configuration file (§II-A): the
// system configuration (processor count, carried by the Mapper) plus the
// application configuration relevant to workload synthesis.
type Config struct {
	// Mapper is the particle mapping algorithm to mimic. When it
	// implements mapping.GhostSource it also answers the ghost queries.
	Mapper mapping.Mapper
	// FilterRadius is the projection filter size; it controls ghost
	// particle creation. Zero disables ghost workload generation, as does
	// a Mapper that is not a mapping.GhostSource.
	FilterRadius float64
	// Workers sets the fan-out width of the ghost fill: with ghost queries
	// active, each frame's tiles are split into Workers contiguous ranges
	// filled concurrently (0 or 1 fills them on the calling goroutine).
	// Without ghost queries the fill is one flat serial pass for any
	// value — there the fan-out costs more than it saves. Workloads are
	// identical for any value.
	Workers int
}

// Workload is the generator's output: computation and communication
// matrices for real and ghost particles.
type Workload struct {
	// Ranks is the processor count R the workload was generated for.
	Ranks int
	// NumParticles is N_p, constant across the trace.
	NumParticles int
	// SampleEvery is the iteration distance between consecutive frames.
	SampleEvery int

	// RealComp[r][k]: real particles residing on rank r at interval k.
	RealComp *CompMatrix
	// GhostComp[r][k]: ghost particles materialised on rank r at interval
	// k. Nil when ghost generation is disabled.
	GhostComp *CompMatrix
	// RealComm.At(k): particles that moved between rank pairs between
	// intervals k−1 and k (interval 0 is empty).
	RealComm *sparse.Series
	// GhostComm.At(k): ghost copies sent from home ranks to ghost ranks
	// at interval k (ghosts are re-created every interval, so this is
	// per-frame, not per-transition). Nil when ghosts are disabled.
	GhostComm *sparse.Series

	// MigElemComm.At(k) / MigPartComm.At(k): elements and resident
	// particles whose ownership moved between rank pairs when the mapper
	// rebalanced at interval k. Non-nil (with empty matrices on epoch-free
	// intervals) exactly when the mapper is a mapping.MigrationSource; nil
	// for static mappings. Unlike RealComm these are *state transfers* the
	// rebalancer itself causes, priced separately by the simulator.
	MigElemComm *sparse.Series
	MigPartComm *sparse.Series
}

// Generator synthesises a Workload from trace frames. Feed frames in order
// with Frame, then call Finish. A Generator is single-use.
//
// The per-frame fill follows from the input. With ghost queries active it
// is tiled: particles are grouped by grid cell so each tile answers its
// ghost query in one batched call, and the tiles are split into Workers
// ranges. Without ghost queries it is one flat serial pass over the
// real-particle counters, where tiling would only add the sort.
type Generator struct {
	cfg    Config
	ghosts mapping.GhostSource     // nil unless ghost queries are active
	mig    mapping.MigrationSource // non-nil iff the mapper reports migrations

	wl       *Workload
	prev     []int // rank of each particle in the previous frame
	cur      []int
	frames   int
	finished bool

	// tiled-fill state
	tb    tile.Builder
	tl    *tile.Tiling
	parts []fillPart // one per worker, pooled across frames

	// observability (nil instruments when disabled; see SetObs)
	obsOn        bool
	fillSerialNs *obs.Histogram
	fillParNs    *obs.Histogram
	obsFrames    *obs.Counter
	obsTiles     *obs.Counter
	ghostQueries *obs.Counter
	ghostCopies  *obs.Counter
	obsMigElems  *obs.Counter
	obsMigParts  *obs.Counter
	obsEpochs    *obs.Counter
}

// SetObs attaches an observability registry: per-frame fill latency lands
// in core.fill_parallel_ns when the tiled fill fanned out over several
// workers and in core.fill_serial_ns otherwise (the flat no-ghost pass, a
// one-range tiled fill, or a frame too small to fan out), frame and
// ghost-query/copy totals in core.* counters, and core.tiles counts the
// tiles the tiled fill processed. Call before the first Frame; a nil
// registry leaves the generator uninstrumented (the default).
func (g *Generator) SetObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	g.obsOn = true
	g.fillSerialNs = reg.Histogram("core.fill_serial_ns")
	g.fillParNs = reg.Histogram("core.fill_parallel_ns")
	g.obsFrames = reg.Counter("core.frames")
	g.obsTiles = reg.Counter("core.tiles")
	g.ghostQueries = reg.Counter("core.ghost_queries")
	g.ghostCopies = reg.Counter("core.ghost_copies")
	g.obsMigElems = reg.Counter(obs.RebalanceMigratedElements)
	g.obsMigParts = reg.Counter(obs.RebalanceMigratedParticles)
	g.obsEpochs = reg.Counter(obs.RebalanceEpochs)
}

// NewGenerator validates cfg and prepares a generator.
func NewGenerator(cfg Config) (*Generator, error) {
	if cfg.Mapper == nil {
		return nil, errors.New("core: Config.Mapper is required")
	}
	if cfg.Mapper.Ranks() <= 0 {
		return nil, fmt.Errorf("core: mapper reports %d ranks", cfg.Mapper.Ranks())
	}
	if cfg.FilterRadius < 0 {
		return nil, fmt.Errorf("core: negative filter radius %g", cfg.FilterRadius)
	}
	g := &Generator{cfg: cfg}
	if gs, ok := cfg.Mapper.(mapping.GhostSource); ok && cfg.FilterRadius > 0 {
		g.ghosts = gs
	}
	r := cfg.Mapper.Ranks()
	g.wl = &Workload{
		Ranks:    r,
		RealComp: NewCompMatrix(r),
		RealComm: sparse.NewSeries(r),
	}
	if g.ghosts != nil {
		g.wl.GhostComp = NewCompMatrix(r)
		g.wl.GhostComm = sparse.NewSeries(r)
	}
	if ms, ok := cfg.Mapper.(mapping.MigrationSource); ok {
		g.mig = ms
		g.wl.MigElemComm = sparse.NewSeries(r)
		g.wl.MigPartComm = sparse.NewSeries(r)
	}
	return g, nil
}

// Frame processes one trace frame: it mimics the mapping algorithm to find
// each particle's residing processor R_p, updates the computation counters,
// and, by comparing with the previous frame's assignment, the communication
// counters (§II-A).
func (g *Generator) Frame(iteration int, pos []geom.Vec3) error {
	if g.finished {
		return errors.New("core: Frame after Finish")
	}
	if g.frames == 0 {
		g.wl.NumParticles = len(pos)
		g.prev = make([]int, len(pos))
		g.cur = make([]int, len(pos))
	} else if len(pos) != g.wl.NumParticles {
		return fmt.Errorf("core: frame %d has %d particles, first frame had %d",
			g.frames, len(pos), g.wl.NumParticles)
	}

	if err := g.cfg.Mapper.Assign(g.cur, pos); err != nil {
		return fmt.Errorf("core: frame %d: %w", g.frames, err)
	}

	comp := g.wl.RealComp.AppendFrame(iteration)
	comm := g.wl.RealComm.Append()
	var gcomp []int64
	var gcomm *sparse.Matrix
	if g.ghosts != nil {
		gcomp = g.wl.GhostComp.AppendFrame(iteration)
		gcomm = g.wl.GhostComm.Append()
	}
	if g.mig != nil {
		// The mapper just ran this frame's (possible) rebalance inside
		// Assign; drain what moved into this interval's migration matrices.
		me := g.wl.MigElemComm.Append()
		mp := g.wl.MigPartComm.Append()
		for _, m := range g.mig.DrainMigrations() {
			if err := me.Add(m.Src, m.Dst, m.Elements); err != nil {
				return fmt.Errorf("core: frame %d: %w", g.frames, err)
			}
			if err := mp.Add(m.Src, m.Dst, m.Particles); err != nil {
				return fmt.Errorf("core: frame %d: %w", g.frames, err)
			}
			if g.obsOn {
				g.obsMigElems.Add(m.Elements)
				g.obsMigParts.Add(m.Particles)
			}
		}
	}

	// Frames too small to feed every worker fill as one range.
	workers := 1
	if g.ghosts != nil && g.cfg.Workers > 1 && len(pos) >= 4*g.cfg.Workers {
		workers = g.cfg.Workers
	}
	var t0 time.Time
	if g.obsOn {
		t0 = time.Now() //lint:allow determinism wall-clock fill timing for the obs layer; workload contents never depend on it
	}
	var err error
	if g.ghosts != nil {
		err = g.fillTiled(workers, pos, comp, comm, gcomp, gcomm)
	} else {
		err = g.fillFlat(comp, comm)
	}
	if err != nil {
		return fmt.Errorf("core: frame %d: %w", g.frames, err)
	}
	if g.obsOn {
		ns := time.Since(t0).Nanoseconds()
		if workers > 1 {
			g.fillParNs.Observe(ns)
		} else {
			g.fillSerialNs.Observe(ns)
		}
		g.obsFrames.Inc()
		if g.ghosts != nil {
			g.obsTiles.Add(int64(g.tl.NumTiles()))
			// One ghost query per particle per frame; the copies actually
			// materialised are this frame's ghost-comp row sum.
			g.ghostQueries.Add(int64(len(pos)))
			var copies int64
			for _, v := range gcomp {
				copies += v
			}
			g.ghostCopies.Add(copies)
		}
	}

	g.prev, g.cur = g.cur, g.prev
	g.frames++
	return nil
}

// fillFlat is the whole fill when ghost queries are off: one serial pass
// counting each rank's real particles and, past the first frame, the
// particles whose rank R_p changed since the previous interval.
func (g *Generator) fillFlat(comp []int64, comm *sparse.Matrix) error {
	for _, r := range g.cur {
		comp[r]++
	}
	if g.frames > 0 {
		for i, r := range g.cur {
			if p := g.prev[i]; p != r {
				if err := comm.Add(p, r, 1); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// tileCellRadii sizes the tiling cell relative to the filter radius: tiles
// of 2r keep each tile's candidate window (tile box inflated by r) small
// enough that a handful of rank groups covers it, while holding hundreds of
// particles at realistic densities.
const tileCellRadii = 2.0

// pairTally accumulates (src, dst) → count pairs in a fixed-size
// open-addressed table before flushing them into the sparse matrix. The
// fill's migrations and ghost copies hit few distinct rank pairs per tile,
// so one multiplicative hash and a short probe replace per-copy hash-map
// churn. A flush resets only the slots it touched, in insertion order.
type pairTally struct {
	keys [pairTallySlots]uint64 // src<<32 | dst
	n    [pairTallySlots]int64  // 0 marks a free slot
	used []uint16               // occupied slots, in insertion order
}

const (
	// pairTallyFlushAt bounds the occupied slots: a tally this full
	// flushes before taking another pair.
	pairTallyFlushAt = 128
	// pairTallySlots keeps the load factor at or below 25 %.
	pairTallySlots = 4 * pairTallyFlushAt
	pairTallyBits  = 9 // log2(pairTallySlots)
)

// add counts one (src, dst) pair, flushing the tally into m first when it
// is full.
func (t *pairTally) add(src, dst int, m *sparse.Matrix) error {
	if len(t.used) >= pairTallyFlushAt {
		if err := t.flush(m); err != nil {
			return err
		}
	}
	k := uint64(src)<<32 | uint64(uint32(dst))
	i := (k * 0x9E3779B97F4A7C15) >> (64 - pairTallyBits)
	for t.n[i] != 0 {
		if t.keys[i] == k {
			t.n[i]++
			return nil
		}
		i = (i + 1) & (pairTallySlots - 1)
	}
	t.keys[i], t.n[i] = k, 1
	t.used = append(t.used, uint16(i))
	return nil
}

// flush adds every tallied pair to m and empties the tally, even when m
// rejects a pair.
func (t *pairTally) flush(m *sparse.Matrix) error {
	var err error
	for _, i := range t.used {
		if err == nil {
			k := t.keys[i]
			err = m.Add(int(k>>32), int(uint32(k)), t.n[i])
		}
		t.n[i] = 0
	}
	t.used = t.used[:0]
	return err
}

// fillPart is one worker's working set of the tiled fill: the batched
// ghost-query output buffers and the sparse-pair tallies, plus the private
// partial matrices it fills when the fill fans out.
type fillPart struct {
	flat       []int
	offs       []int32
	commPairs  pairTally
	ghostPairs pairTally

	comp, gcomp []int64
	comm, gcomm *sparse.Matrix
	err         error
}

// resetPartials zeroes the partial matrices, allocating them on first use;
// sparse partials are Reset rather than reallocated, so steady-state frames
// allocate nothing here.
func (p *fillPart) resetPartials(ranks int) {
	if p.comp == nil {
		p.comp, p.gcomp = make([]int64, ranks), make([]int64, ranks)
		p.comm, p.gcomm = sparse.NewMatrix(ranks), sparse.NewMatrix(ranks)
		return
	}
	clear(p.comp)
	clear(p.gcomp)
	p.comm.Reset()
	p.gcomm.Reset()
}

// fillTileRange fills the matrices from tiles [t0, t1) of tl. Per tile it
// walks the member particles once for the dense comp row and the migration
// pairs, then answers the tile's ghost query in one batched call and folds
// the per-particle rank sets into the ghost row and copy pairs. All updates
// are integer adds, so any tile partition produces the results of the flat
// per-particle loop bit-for-bit.
func (g *Generator) fillTileRange(tl *tile.Tiling, t0, t1 int, pos []geom.Vec3, view mapping.GhostView, p *fillPart,
	comp []int64, comm *sparse.Matrix, gcomp []int64, gcomm *sparse.Matrix, withComm bool) error {
	radius := g.cfg.FilterRadius
	for t := t0; t < t1; t++ {
		ids := tl.Tile(t)
		if len(ids) == 0 {
			continue
		}
		for _, i := range ids {
			r := g.cur[i]
			comp[r]++
			if withComm {
				if pr := g.prev[i]; pr != r {
					if err := p.commPairs.add(pr, r, comm); err != nil {
						return err
					}
				}
			}
		}
		p.flat, p.offs = view.GhostRanksTile(p.flat[:0], p.offs[:0], ids, pos, g.cur, radius)
		prev := 0
		for j, i := range ids {
			end := int(p.offs[j])
			home := g.cur[i]
			for _, r := range p.flat[prev:end] {
				gcomp[r]++
				if err := p.ghostPairs.add(home, r, gcomm); err != nil {
					return err
				}
			}
			prev = end
		}
	}
	if err := p.commPairs.flush(comm); err != nil {
		return err
	}
	return p.ghostPairs.flush(gcomm)
}

// fillTiled is the fill when ghost queries are active. It groups the
// frame's particles by grid cell and splits the tiles into contiguous
// ranges balanced by particle count, one per worker. A single range fills
// the frame matrices directly. Several ranges fill private partials
// concurrently — the mapper assignment and the views' shared frame state
// are read-only meanwhile — which are then reduced in worker order. All
// counters are integers, so every worker count gives the same workload.
func (g *Generator) fillTiled(workers int, pos []geom.Vec3, comp []int64, comm *sparse.Matrix, gcomp []int64, gcomm *sparse.Matrix) error {
	g.tl = g.tb.Build(pos, tileCellRadii*g.cfg.FilterRadius, len(pos)+1)
	tl := g.tl
	views := g.ghosts.GhostViews(workers)
	for len(g.parts) < workers {
		g.parts = append(g.parts, fillPart{})
	}
	withComm := g.frames > 0
	if workers == 1 {
		return g.fillTileRange(tl, 0, tl.NumTiles(), pos, views[0], &g.parts[0], comp, comm, gcomp, gcomm, withComm)
	}

	ranges := tl.Ranges(workers)
	parts := g.parts[:workers]
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(p *fillPart, rg [2]int, view mapping.GhostView) {
			defer wg.Done()
			p.resetPartials(g.wl.Ranks)
			p.err = g.fillTileRange(tl, rg[0], rg[1], pos, view, p, p.comp, p.comm, p.gcomp, p.gcomm, withComm)
		}(&parts[w], ranges[w], views[w])
	}
	wg.Wait()
	for w := range parts {
		p := &parts[w]
		if p.err != nil {
			return p.err
		}
		for r, v := range p.comp {
			comp[r] += v
		}
		for r, v := range p.gcomp {
			gcomp[r] += v
		}
		if err := p.comm.AddInto(comm); err != nil {
			return err
		}
		if err := p.gcomm.AddInto(gcomm); err != nil {
			return err
		}
	}
	return nil
}

// Finish finalises and returns the workload. Frame may not be called again.
func (g *Generator) Finish() (*Workload, error) {
	if g.finished {
		return nil, errors.New("core: Finish called twice")
	}
	g.finished = true
	if g.obsOn {
		if rs, ok := g.cfg.Mapper.(mapping.RebalanceStats); ok {
			g.obsEpochs.Add(int64(rs.RebalanceEpochs()))
		}
	}
	its := g.wl.RealComp.Iterations()
	if len(its) >= 2 {
		g.wl.SampleEvery = its[1] - its[0]
	}
	if err := g.wl.RealComp.Validate(); err != nil {
		return nil, err
	}
	return g.wl, nil
}

// Run streams every frame of a trace through the generator and finishes.
// It is the one-call path from a trace file to a workload.
func Run(cfg Config, r *trace.Reader) (*Workload, error) {
	g, err := NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	buf := make([]geom.Vec3, r.Header().NumParticles)
	for {
		it, err := r.Next(buf)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := g.Frame(it, buf); err != nil {
			return nil, err
		}
	}
	return g.Finish()
}

// RunFrames feeds in-memory frames (iterations[i] paired with
// positions[i*np:(i+1)*np]) through a generator — the path used when the
// trace was just produced by a simulation and is still in memory.
func RunFrames(cfg Config, iterations []int, positions []geom.Vec3, np int) (*Workload, error) {
	if np <= 0 {
		return nil, fmt.Errorf("core: non-positive particle count %d", np)
	}
	if len(positions) != len(iterations)*np {
		return nil, fmt.Errorf("core: %d positions for %d frames × %d particles",
			len(positions), len(iterations), np)
	}
	g, err := NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	for k, it := range iterations {
		if err := g.Frame(it, positions[k*np:(k+1)*np]); err != nil {
			return nil, err
		}
	}
	return g.Finish()
}
