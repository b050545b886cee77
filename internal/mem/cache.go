// Package mem models the memory hierarchy of the paper's machine: LRU
// set-associative caches (write-through no-write-allocate L1s, write-back
// write-allocate L2), the two shared buses with arbitration and transfer
// delay, and the hierarchy that composes them. It also carries the
// reconstruction hooks (per-block reconstructed bits, stale-LRU placement)
// that the Reverse State Reconstruction algorithm in internal/core drives.
package mem

import "fmt"

// WritePolicy selects the cache write behaviour.
type WritePolicy uint8

const (
	// WTNA is write-through no-write-allocate (the paper's L1I and L1D).
	WTNA WritePolicy = iota
	// WBWA is write-back write-allocate (the paper's L2).
	WBWA
)

func (p WritePolicy) String() string {
	if p == WTNA {
		return "WTNA"
	}
	return "WBWA"
}

// CacheConfig describes one cache.
type CacheConfig struct {
	Name      string
	SizeBytes int
	Assoc     int
	LineBytes int
	Policy    WritePolicy
}

// Validate reports whether the geometry is usable (power-of-two sets and
// lines).
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("mem: %s: non-positive geometry", c.Name)
	}
	if c.SizeBytes%(c.Assoc*c.LineBytes) != 0 {
		return fmt.Errorf("mem: %s: size %d not divisible by assoc*line", c.Name, c.SizeBytes)
	}
	sets := c.SizeBytes / (c.Assoc * c.LineBytes)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: %s: set count %d not a power of two", c.Name, sets)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("mem: %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	return nil
}

// line is one cache block's metadata. Data values are not stored: the
// functional simulator holds architectural memory; the caches track tags,
// LRU order, dirtiness, and the reconstructed bit.
type line struct {
	tag   uint64
	stamp uint64 // larger = more recently used
	valid bool
	dirty bool
	// reconAt stamps the reconstruction pass (Cache.reconEpoch) that last
	// touched this block. The block counts as reconstructed exactly when
	// reconAt equals the cache's current epoch, which lets
	// BeginReconstruction invalidate every mark in O(1) by bumping the epoch
	// instead of clearing a bit per line. Zero is never a live epoch.
	reconAt uint64
}

// Stats counts cache events. Updates counts every state-mutating operation —
// the work metric the paper's speedup argument rests on.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
	Updates    uint64
}

// Cache is an LRU set-associative cache.
type Cache struct {
	cfg       CacheConfig
	lines     []line // sets * assoc, set-major
	numSets   int
	assoc     int
	lineShift uint
	setBits   uint // log2(numSets); tags are (addr >> lineShift) >> setBits
	setMask   uint64
	wbwa      bool   // cfg.Policy == WBWA, hoisted off the access path
	counter   uint64 // global LRU stamp source
	stats     Stats

	// Reconstruction pass state (see Reconstruct* methods).
	reconLeft  []int32 // stale ways remaining per set
	reconBase  uint64  // stamp floor for the current pass
	reconEpoch uint64  // current pass number; line.reconAt == reconEpoch ⇒ reconstructed
	reconStats ReconStats
}

// NewCache builds a cache from cfg; it panics on invalid geometry (configs
// are static in this codebase and covered by tests).
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.SizeBytes / (cfg.Assoc * cfg.LineBytes)
	shift := uint(0)
	for 1<<shift != cfg.LineBytes {
		shift++
	}
	setBits := uint(0)
	for 1<<setBits != sets {
		setBits++
	}
	return &Cache{
		cfg:       cfg,
		lines:     make([]line, sets*cfg.Assoc),
		numSets:   sets,
		assoc:     cfg.Assoc,
		lineShift: shift,
		setBits:   setBits,
		setMask:   uint64(sets - 1),
		wbwa:      cfg.Policy == WBWA,
		counter:   1,
		reconLeft: make([]int32, sets),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// NumSets reports the number of sets.
func (c *Cache) NumSets() int { return c.numSets }

// Assoc reports the associativity.
func (c *Cache) Assoc() int { return c.assoc }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the event counters.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// SetOf returns the set index of addr.
func (c *Cache) SetOf(addr uint64) int { return int((addr >> c.lineShift) & c.setMask) }

func (c *Cache) tagOf(addr uint64) uint64 { return (addr >> c.lineShift) >> c.setBits }

// addrOf returns a representative byte address for (set, tag).
func (c *Cache) addrOf(setIdx int, tag uint64) uint64 {
	return (tag<<c.setBits | uint64(setIdx)) << c.lineShift
}

// set returns the ways of set s.
func (c *Cache) set(s int) []line { return c.lines[s*c.assoc : (s+1)*c.assoc] }

// find returns the way index holding tag in set, or -1.
func find(set []line, tag uint64) int {
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return i
		}
	}
	return -1
}

// lruVictim returns the least-recently-used way, preferring invalid ways.
func lruVictim(set []line) int {
	victim := -1
	for i := range set {
		if !set[i].valid {
			return i
		}
		if victim < 0 || set[i].stamp < set[victim].stamp {
			victim = i
		}
	}
	return victim
}

// AccessResult reports what a functional or timed access did.
type AccessResult struct {
	Hit bool
	// Allocated reports whether a new line was installed.
	Allocated bool
	// EvictedDirty reports whether the allocation displaced a dirty line (a
	// write-back is owed to the next level).
	EvictedDirty bool
	// EvictedAddr is a representative byte address of the displaced line,
	// valid when EvictedDirty.
	EvictedAddr uint64
}

// Access applies one reference functionally: tags and LRU state change
// exactly as in detailed simulation. It is used both by the timing model and
// by full-functional (SMARTS-style) warm-up.
func (c *Cache) Access(addr uint64, isWrite bool) AccessResult {
	c.stats.Accesses++
	block := addr >> c.lineShift
	setIdx := int(block & c.setMask)
	base := setIdx * c.assoc
	set := c.lines[base : base+c.assoc]
	tag := block >> c.setBits
	// Tag match is fused into the access path (rather than calling find) so
	// the hit case — the overwhelmingly common one — touches the set exactly
	// once with no extra call frame.
	for w := range set {
		if set[w].valid && set[w].tag == tag {
			c.stats.Hits++
			c.stats.Updates++
			c.counter++
			set[w].stamp = c.counter
			if isWrite && c.wbwa {
				set[w].dirty = true
			}
			return AccessResult{Hit: true}
		}
	}
	c.stats.Misses++
	if isWrite && !c.wbwa {
		// No-write-allocate: the write bypasses to the next level.
		return AccessResult{}
	}
	return c.install(setIdx, set, tag, isWrite)
}

func (c *Cache) install(setIdx int, set []line, tag uint64, dirty bool) AccessResult {
	res := AccessResult{Allocated: true}
	v := lruVictim(set)
	if set[v].valid {
		c.stats.Evictions++
		if set[v].dirty {
			c.stats.Writebacks++
			res.EvictedDirty = true
			res.EvictedAddr = c.addrOf(setIdx, set[v].tag)
		}
	}
	c.stats.Updates++
	set[v] = line{tag: tag, stamp: c.nextStamp(), valid: true, dirty: dirty && c.wbwa}
	return res
}

// nextStamp returns a fresh, strictly increasing LRU stamp.
func (c *Cache) nextStamp() uint64 {
	c.counter++
	return c.counter
}

// Probe reports whether addr currently hits, without changing any state.
func (c *Cache) Probe(addr uint64) bool {
	return find(c.set(c.SetOf(addr)), c.tagOf(addr)) >= 0
}

// Flush invalidates every line.
func (c *Cache) Flush() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
}

// LineView is a read-only snapshot of one way, exposed for tests and for the
// equivalence checks between reconstruction and detailed simulation.
type LineView struct {
	Tag     uint64
	Valid   bool
	Dirty   bool
	Recon   bool
	LRURank int // 0 = most recently used among valid ways
}

// SetView returns the ways of set s ordered way-major, with LRU ranks
// computed from the stamps.
func (c *Cache) SetView(s int) []LineView {
	set := c.set(s)
	out := make([]LineView, len(set))
	for i := range set {
		out[i] = LineView{Tag: set[i].tag, Valid: set[i].valid, Dirty: set[i].dirty,
			Recon: set[i].reconAt != 0 && set[i].reconAt == c.reconEpoch}
	}
	// Rank valid ways by stamp, descending.
	for i := range set {
		if !set[i].valid {
			out[i].LRURank = -1
			continue
		}
		rank := 0
		for j := range set {
			if j != i && set[j].valid {
				if set[j].stamp > set[i].stamp ||
					(set[j].stamp == set[i].stamp && j < i) {
					rank++
				}
			}
		}
		out[i].LRURank = rank
	}
	return out
}
