package locality

import "math/bits"

// Cache is a set-associative LRU cache simulator operating on byte
// addresses. It models a single level (the LLC the paper's MPKI counters
// observe).
type Cache struct {
	lineShift uint
	setMask   uint64
	assoc     int
	// sets[s] holds up to assoc line tags in LRU order, most recent
	// first. Linear scan is fine for the small associativities modelled.
	sets [][]uint64

	accesses int64
	misses   int64
}

// CacheConfig sizes a simulated cache.
type CacheConfig struct {
	SizeBytes int // total capacity
	LineBytes int // line size (power of two)
	Assoc     int // ways
}

// AdaptiveLLC sizes the simulated LLC relative to the graph's per-vertex
// data: one eighth of the next-array footprint (n × 4 bytes), the same
// cache-to-data ratio as the paper's 30 MiB LLC against its 160 MiB
// Twitter vertex arrays. Fig. 8 uses this so the locality trends appear
// at laptop graph scale. The size is rounded up to a power of two to
// keep the set count a power of two.
func AdaptiveLLC(numVertices int) CacheConfig {
	size := numVertices * vertexBytes / 8
	if size < 16<<10 {
		size = 16 << 10
	}
	p := 1
	for p < size {
		p <<= 1
	}
	return CacheConfig{SizeBytes: p, LineBytes: 64, Assoc: 16}
}

// NewCache builds a simulator from the config. Panics on non-power-of-two
// geometry, which would be a configuration bug.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic("locality: line size must be a power of two")
	}
	if cfg.Assoc <= 0 || cfg.SizeBytes <= 0 {
		panic("locality: cache size and associativity must be positive")
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	numSets := lines / cfg.Assoc
	if numSets == 0 {
		numSets = 1
	}
	if numSets&(numSets-1) != 0 {
		panic("locality: set count must be a power of two")
	}
	c := &Cache{
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:   uint64(numSets - 1),
		assoc:     cfg.Assoc,
		sets:      make([][]uint64, numSets),
	}
	for i := range c.sets {
		c.sets[i] = make([]uint64, 0, cfg.Assoc)
	}
	return c
}

// Access simulates one access to the byte address and reports whether it
// hit.
func (c *Cache) Access(addr uint64) bool {
	c.accesses++
	tag := addr >> c.lineShift
	s := tag & c.setMask
	set := c.sets[s]
	for i, t := range set {
		if t == tag {
			// Move to MRU position.
			copy(set[1:i+1], set[:i])
			set[0] = tag
			return true
		}
	}
	c.misses++
	if len(set) < c.assoc {
		set = append(set, 0)
	}
	copy(set[1:], set)
	set[0] = tag
	c.sets[s] = set
	return false
}

// Accesses returns the total simulated accesses.
func (c *Cache) Accesses() int64 { return c.accesses }

// Misses returns the total simulated misses.
func (c *Cache) Misses() int64 { return c.misses }

// MissRate returns misses/accesses (0 for an untouched cache).
func (c *Cache) MissRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}

// Reset clears contents and counters.
func (c *Cache) Reset() {
	for i := range c.sets {
		c.sets[i] = c.sets[i][:0]
	}
	c.accesses, c.misses = 0, 0
}
