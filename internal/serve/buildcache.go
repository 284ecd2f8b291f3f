package serve

import (
	"context"

	"picpredict"
	"picpredict/internal/obs"
)

// buildCacheBytes bounds the estimated heap of the workloads one server
// keeps resident: four paper-scale bin workloads (about 16 MB each at
// R=8352 on a 20k-particle, 21-frame trace) or hundreds of element ones.
const buildCacheBytes = 64 << 20

// maxSightings bounds the set of keys seen once and not yet admitted; the
// set is cleared when it fills.
const maxSightings = 4096

// buildKey identifies one workload build: the trace artefact's content
// checksum plus the canonical generator options.
type buildKey struct {
	crc  string
	opts picpredict.WorkloadOptions
}

// newBuildKey drops Workers from opts, since the workload is identical for
// any value. Callers pass Rebalance in its rebalance.Canonical form, so
// every spelling of one build shares a key.
func newBuildKey(crc string, opts picpredict.WorkloadOptions) buildKey {
	opts.Workers = 0
	return buildKey{crc: crc, opts: opts}
}

// buildCache holds generated workloads so a repeated prediction pays only
// for its BSP replay. It is a flightCache bounded by the estimated bytes of
// its entries that admits a key only on its second request: a one-off key
// is built for its request alone and never displaces hot entries. An
// admitted build is shared by every concurrent caller and cancelled once
// all of them have given up, so it never outlives its requests.
type buildCache struct {
	cache *flightCache[buildKey, *picpredict.Workload]
	// sightings holds the keys seen once and not yet admitted; it is
	// guarded by cache.mu and cleared when it reaches maxSightings.
	sightings map[buildKey]struct{}
}

func newBuildCache(life context.Context, budget int64, reg *obs.Registry) *buildCache {
	c := &buildCache{sightings: make(map[buildKey]struct{})}
	c.cache = newFlightCache[buildKey](life, budget, (*picpredict.Workload).Bytes, reg, flightNames{
		hits:      obs.ServeBuildCacheHits,
		misses:    obs.ServeBuildCacheMisses,
		evictions: obs.ServeBuildCacheEvictions,
		bytes:     obs.ServeBuildCacheBytes,
	})
	c.cache.admit = c.admit
	c.cache.dropOrphans = true
	return c
}

// admit records a first sighting of key and admits its second.
func (c *buildCache) admit(key buildKey) bool {
	if _, seen := c.sightings[key]; seen {
		delete(c.sightings, key)
		return true
	}
	if len(c.sightings) >= maxSightings {
		clear(c.sightings)
	}
	c.sightings[key] = struct{}{}
	return false
}

// get returns the workload for key. A resident entry answers it (hit); a
// first sighting is built on ctx for this request only; a second sighting
// is admitted and built once for every concurrent caller. floor is a lower
// bound on the workload's size known before generation: a key whose floor
// already exceeds the budget could never be retained, so it is built on
// ctx every time and never admitted.
func (c *buildCache) get(ctx context.Context, key buildKey, floor int64, build func(context.Context) (*picpredict.Workload, error)) (wl *picpredict.Workload, hit bool, err error) {
	if floor > c.cache.budget {
		c.cache.add(obs.ServeBuildCacheMisses, 1)
		wl, err = build(ctx)
		return wl, false, err
	}
	return c.cache.get(ctx, key, build)
}

// BuildCacheInfo is the build cache frozen for /v1/models.
type BuildCacheInfo struct {
	// Entries counts resident keys, builds in flight included.
	Entries int `json:"entries"`
	// Bytes is the estimated heap of the built entries; BudgetBytes bounds it.
	Bytes       int64 `json:"bytes"`
	BudgetBytes int64 `json:"budget_bytes"`
}

func (c *buildCache) info() BuildCacheInfo {
	snap, used := c.cache.snapshot()
	return BuildCacheInfo{Entries: len(snap), Bytes: used, BudgetBytes: c.cache.budget}
}
