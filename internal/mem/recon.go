package mem

// Reverse-reconstruction support (§3.1 of the paper). The algorithm itself —
// which references to apply, in what order, at what percentage — lives in
// internal/core; the cache only provides the per-block reconstructed bits,
// the "least recently used stale block" placement rule, and the ascending
// LRU-rank assignment.

// ReconStats counts reconstruction-pass events.
type ReconStats struct {
	// Refs is the number of logged references offered to the cache.
	Refs uint64
	// Applied is how many of those mutated cache state (the rest were
	// redundant or targeted fully-reconstructed sets).
	Applied uint64
}

// BeginReconstruction invalidates every reconstructed mark and reserves a
// stamp range above all existing (stale) stamps so that every block
// reconstructed in this pass ranks as more recently used than every stale
// block, while stale blocks keep their prior relative order. Invalidation is
// an epoch bump — no per-line work — so the pass-start cost is O(sets).
func (c *Cache) BeginReconstruction() {
	c.reconEpoch++
	for s := range c.reconLeft {
		c.reconLeft[s] = int32(c.assoc)
	}
	c.reconBase = c.counter
	c.counter = c.reconBase + uint64(c.assoc) + 1
	c.reconStats = ReconStats{}
}

// ReconstructRef offers one logged reference (scanned newest-to-oldest) to
// the cache. It returns true when the reference mutated state. Behaviour per
// §3.1:
//
//   - if the set is fully reconstructed, the reference is ignored;
//   - if the block is present and already reconstructed, it is redundant;
//   - if present and stale, the block is marked reconstructed and assigned
//     the next (older) LRU rank;
//   - if absent, it is installed into the least-recently-used stale block.
//
// The first reconstructed block of a set becomes MRU; later unique
// references receive increasing LRU values. For WTNA caches the block is
// allocated even when the logged access was a write, so reconstruction never
// needs to search history for a previous read.
func (c *Cache) ReconstructRef(addr uint64, isWrite bool) bool {
	c.reconStats.Refs++
	setIdx := c.SetOf(addr)
	left := c.reconLeft[setIdx]
	if left == 0 {
		return false // set fully reconstructed; all earlier accesses ignored
	}
	set := c.set(setIdx)
	tag := c.tagOf(addr)
	rank := c.assoc - int(left) // 0 = MRU
	stamp := c.reconBase + uint64(c.assoc-rank)

	if w := find(set, tag); w >= 0 {
		if set[w].reconAt == c.reconEpoch {
			return false // redundant: effect already processed
		}
		set[w].reconAt = c.reconEpoch
		set[w].stamp = stamp
		if isWrite && c.cfg.Policy == WBWA {
			set[w].dirty = true
		}
		c.reconLeft[setIdx] = left - 1
		c.stats.Updates++
		c.reconStats.Applied++
		return true
	}

	// Absent: place into the least-recently-used stale block.
	v := -1
	for i := range set {
		if set[i].reconAt == c.reconEpoch {
			continue
		}
		if !set[i].valid {
			v = i
			break
		}
		if v < 0 || set[i].stamp < set[v].stamp {
			v = i
		}
	}
	if v < 0 {
		// No stale ways left; cannot happen while left > 0, but guard anyway.
		return false
	}
	if set[v].valid {
		c.stats.Evictions++
		if set[v].dirty {
			// The displaced dirty line would have been written back during
			// the (skipped) region; account for it but with no timing cost.
			c.stats.Writebacks++
		}
	}
	set[v] = line{
		tag:     tag,
		stamp:   stamp,
		valid:   true,
		dirty:   isWrite && c.cfg.Policy == WBWA,
		reconAt: c.reconEpoch,
	}
	c.reconLeft[setIdx] = left - 1
	c.stats.Updates++
	c.reconStats.Applied++
	return true
}

// SetReconstructed reports whether set s has no stale ways left.
func (c *Cache) SetReconstructed(s int) bool { return c.reconLeft[s] == 0 }

// ReconStats returns counters for the current/most recent reconstruction
// pass.
func (c *Cache) ReconStats() ReconStats { return c.reconStats }
