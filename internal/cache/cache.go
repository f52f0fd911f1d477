// Package cache implements the set-associative cache simulator used for
// every locality study in the reproduction (Tables 3, Figures 3-8).
//
// The model is the classic trace-driven one the paper's cachesim5 used:
// single-level split I/D caches, LRU replacement, write-allocate
// write-back data cache, with miss classification (compulsory vs. other)
// and phase attribution (application execution vs. JIT translation).
//
// The hot path is a batch kernel with exact counters. A Cache keeps a
// flat tag store and remembers the line its last access left resident,
// so a repeat of that line is a one-compare hit. A Hierarchy consumes a
// batch reduced to same-phase spans of fetch runs and data references,
// and NewGroup shares one reduction among every hierarchy with the same
// line sizes and direct-install range, the way the paper fed one Shade
// trace to many cachesim5 configurations. Within a group, the
// direct-mapped caches of one line size skip what the smallest of them
// hits (Hill and Smith's forest simulation), since each holds every
// line the smaller ones do.
package cache

import (
	"fmt"
	"sync"

	"jrs/internal/trace"
)

// Config describes one cache.
type Config struct {
	// Name labels the cache in reports ("I" or "D" conventionally).
	Name string
	// Size is the capacity in bytes. Must be a power of two.
	Size int
	// LineSize is the block size in bytes. Must be a power of two.
	LineSize int
	// Assoc is the set associativity. Size must be divisible by
	// LineSize*Assoc.
	Assoc int
	// WriteAllocate selects write-allocate (true, the default in the
	// paper's discussion) or write-no-allocate behaviour for the A1
	// ablation.
	WriteAllocate bool
}

// Validate reports a descriptive error for an unusable configuration.
func (c Config) Validate() error {
	switch {
	case c.Size <= 0 || c.Size&(c.Size-1) != 0:
		return fmt.Errorf("cache %s: size %d not a positive power of two", c.Name, c.Size)
	case c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("cache %s: line size %d not a positive power of two", c.Name, c.LineSize)
	case c.Assoc <= 0:
		return fmt.Errorf("cache %s: associativity %d not positive", c.Name, c.Assoc)
	case c.Size%(c.LineSize*c.Assoc) != 0:
		return fmt.Errorf("cache %s: size %d not divisible by line %d x assoc %d",
			c.Name, c.Size, c.LineSize, c.Assoc)
	}
	return nil
}

// Stats accumulates access outcomes.
type Stats struct {
	Reads       uint64 // read (or instruction-fetch) references
	Writes      uint64 // write references
	ReadMisses  uint64
	WriteMisses uint64
	// Compulsory counts misses to lines never seen before by this cache
	// (cold misses, the class dominating JIT code installation).
	Compulsory uint64
	// Writebacks counts dirty evictions.
	Writebacks uint64
}

// Refs returns total references.
func (s Stats) Refs() uint64 { return s.Reads + s.Writes }

// Misses returns total misses.
func (s Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses }

// MissRate returns misses/references, or 0 when empty.
func (s Stats) MissRate() float64 {
	if r := s.Refs(); r > 0 {
		return float64(s.Misses()) / float64(r)
	}
	return 0
}

// WriteMissFrac returns the fraction of all misses that are write misses
// (Figure 3's metric).
func (s Stats) WriteMissFrac() float64 {
	if m := s.Misses(); m > 0 {
		return float64(s.WriteMisses) / float64(m)
	}
	return 0
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.ReadMisses += o.ReadMisses
	s.WriteMisses += o.WriteMisses
	s.Compulsory += o.Compulsory
	s.Writebacks += o.Writebacks
}

// way is one line slot of the tag store.
type way struct {
	tag uint64
	// stamp is the tick of the way's last use shifted left by one, with
	// the dirty flag in bit 0; higher is more recent, and 0 marks an
	// empty way, so every tag value stays a valid tag.
	stamp uint64
}

// Cache is one simulated cache.
//
// The tag store is one flat slice: way w of set s sits at index
// s*assoc+w, its tag, recency and dirty bit in one record. A fill
// takes the lowest empty way of its set and only Flush empties a way,
// so a set's valid ways always come first and a lookup stops at the
// first empty one.
type Cache struct {
	cfg       Config
	assoc     int
	lineShift uint
	setShift  uint
	setMask   uint64
	ways      []way
	tick      uint64
	// last is the line address the previous access or install left
	// resident, at tag-store index lastWay (-1: none). See probe.
	last    uint64
	lastWay int
	seen    lineSet // line addresses ever touched, for compulsory classification
	Stats   Stats
	// PhaseStats splits outcomes by a caller-set phase index (the JIT
	// translate-isolation study). Callers index it with trace.Phase.
	PhaseStats [trace.NumPhases]Stats
	// ps points at the current phase's PhaseStats entry so the
	// per-access path doesn't re-index; SetPhase keeps it current.
	ps *Stats
	// released is set from Release until New hands c out again.
	released bool
}

// stores pools released caches, one sync.Pool per geometry (a Config
// without its Name), so a New reuses the tag store and the seen-set
// pages of an earlier cache rather than allocating them again.
var stores sync.Map // Config → *sync.Pool

// storePool returns the pool of cfg's geometry.
func storePool(cfg Config) *sync.Pool {
	cfg.Name = ""
	pool, ok := stores.Load(cfg)
	if !ok {
		pool, _ = stores.LoadOrStore(cfg, new(sync.Pool))
	}
	return pool.(*sync.Pool)
}

// New builds a cache from cfg: a released cache of cfg's geometry,
// reset, or a new one. It panics on an invalid configuration; callers
// constructing configs from user input should Validate first.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if c, ok := storePool(cfg).Get().(*Cache); ok {
		c.cfg, c.released = cfg, false
		c.Reset()
		return c
	}
	numSets := cfg.Size / (cfg.LineSize * cfg.Assoc)
	c := &Cache{
		cfg:       cfg,
		assoc:     cfg.Assoc,
		lineShift: uintLog2(cfg.LineSize),
		setShift:  uintLog2(numSets),
		setMask:   uint64(numSets - 1),
		ways:      make([]way, numSets*cfg.Assoc),
		lastWay:   -1,
	}
	c.ps = &c.PhaseStats[0]
	return c
}

// Release hands c back for a later New of its geometry to reuse. Its
// counters stay readable until then, but c must not be fed again.
// Releasing a cache twice panics: two holders of one tag store would
// count into each other.
func (c *Cache) Release() {
	if c.released {
		panic("cache: cache released twice")
	}
	c.released = true
	storePool(c.cfg).Put(c)
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// SetPhase sets the phase index used to attribute subsequent accesses.
func (c *Cache) SetPhase(p int) {
	if p >= 0 && p < len(c.PhaseStats) {
		c.ps = &c.PhaseStats[p]
	}
}

// Access simulates one reference and reports whether it hit. write
// selects a store; for an instruction cache pass write=false.
func (c *Cache) Access(addr uint64, write bool) bool {
	if write {
		c.count(0, 1)
	} else {
		c.count(1, 0)
	}
	return c.probe(addr>>c.lineShift, write)
}

// count adds references to the totals and the current phase. The
// batch path counts a whole span's references in one call and then
// probes each, since no probe reads the reference counts.
func (c *Cache) count(reads, writes uint64) {
	c.Stats.Reads += reads
	c.Stats.Writes += writes
	c.ps.Reads += reads
	c.ps.Writes += writes
}

// probe looks up one counted reference to a line, fills it on a miss,
// and reports whether it hit. A repeat of the last line is a hit that
// costs one compare, and it is exact: that line holds the newest stamp
// in its set, so leaving its stamp and the tick alone changes no
// replacement order (stamps are only compared within a set). A
// write-no-allocate write miss touches no set and keeps last;
// InstallLine sets it and Flush clears it.
func (c *Cache) probe(line uint64, write bool) bool {
	var dirty uint64
	if write {
		dirty = 1
	}
	if line == c.last && c.lastWay >= 0 {
		c.ways[c.lastWay].stamp |= dirty
		return true
	}
	c.tick++
	set, tag := c.index(line)
	if w := c.find(set, tag); w >= 0 {
		c.ways[w].stamp = c.tick<<1 | c.ways[w].stamp&1 | dirty
		c.last, c.lastWay = line, w
		return true
	}

	// Miss.
	ps := c.ps
	if write {
		c.Stats.WriteMisses++
		ps.WriteMisses++
	} else {
		c.Stats.ReadMisses++
		ps.ReadMisses++
	}
	if c.seen.add(line) {
		c.Stats.Compulsory++
		ps.Compulsory++
	}
	if write && !c.cfg.WriteAllocate {
		// Write-no-allocate: the store goes around the cache.
		return false
	}
	w := c.victim(set)
	if c.ways[w].stamp&1 != 0 {
		c.Stats.Writebacks++
		ps.Writebacks++
	}
	c.fill(w, line, tag, dirty)
	return false
}

// index splits a line address into its set and tag.
func (c *Cache) index(line uint64) (int, uint64) {
	return int(line & c.setMask), line >> c.setShift
}

// find returns the tag-store index of tag in set, or -1.
func (c *Cache) find(set int, tag uint64) int {
	if c.assoc == 1 {
		if w := &c.ways[set]; w.stamp != 0 && w.tag == tag {
			return set
		}
		return -1
	}
	base := set * c.assoc
	for w := base; w < base+c.assoc && c.ways[w].stamp != 0; w++ {
		if c.ways[w].tag == tag {
			return w
		}
	}
	return -1
}

// victim returns the way a fill of set takes: the lowest empty way,
// else the least recently used one. An empty way's stamp is 0, so the
// minimum-stamp scan finds the first empty way when there is one.
func (c *Cache) victim(set int) int {
	base := set * c.assoc
	w := base
	for i := base + 1; i < base+c.assoc && c.ways[w].stamp != 0; i++ {
		if c.ways[i].stamp < c.ways[w].stamp {
			w = i
		}
	}
	return w
}

// fill places line in way w with the current stamp.
func (c *Cache) fill(w int, line, tag, dirty uint64) {
	c.ways[w] = way{tag, c.tick<<1 | dirty}
	c.last, c.lastWay = line, w
}

// InstallLine makes addr's line present and dirty without counting a
// reference. It models the paper's §6 proposal of generating code
// directly into the (writable) I-cache: the A2 ablation calls this on the
// I-cache at installation time instead of storing through the D-cache.
func (c *Cache) InstallLine(addr uint64) { c.installLine(addr >> c.lineShift) }

func (c *Cache) installLine(line uint64) {
	c.tick++
	c.seen.add(line)
	set, tag := c.index(line)
	w := c.find(set, tag)
	if w < 0 {
		w = c.victim(set)
	}
	c.fill(w, line, tag, 1)
}

// Reset returns the cache to the state New left it in — empty, with no
// line ever seen and zero statistics — keeping its tag store and the
// pages of its seen set for reuse.
func (c *Cache) Reset() {
	clear(c.ways)
	c.tick, c.last, c.lastWay = 0, 0, -1
	for _, page := range c.seen {
		*page = linePage{}
	}
	c.Stats, c.PhaseStats = Stats{}, [trace.NumPhases]Stats{}
	c.ps = &c.PhaseStats[0]
}

// Flush invalidates all lines (contents only; statistics and compulsory
// history are preserved).
func (c *Cache) Flush() {
	clear(c.ways)
	c.lastWay = -1
}

// lineSetPageBits sizes a lineSet page: 1<<lineSetPageBits lines.
const lineSetPageBits = 10

// lineSet is the set of line addresses a cache has ever touched, a
// bitset over pages of 1<<lineSetPageBits lines allocated on first
// touch. It is exact over the whole 64-bit line space.
type lineSet map[uint64]*linePage

type linePage [1 << lineSetPageBits / 64]uint64

// add inserts line and reports whether it was absent.
func (s *lineSet) add(line uint64) bool {
	if *s == nil {
		*s = make(lineSet)
	}
	key := line >> lineSetPageBits
	page := (*s)[key]
	if page == nil {
		page = new(linePage)
		(*s)[key] = page
	}
	word, bit := &page[line%(1<<lineSetPageBits)/64], uint64(1)<<(line%64)
	if *word&bit != 0 {
		return false
	}
	*word |= bit
	return true
}

func uintLog2(n int) uint {
	s := uint(0)
	for 1<<s < n {
		s++
	}
	return s
}
