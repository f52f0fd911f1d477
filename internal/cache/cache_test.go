package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"jrs/internal/trace"
)

func cfg(size, line, assoc int) Config {
	return Config{Name: "T", Size: size, LineSize: line, Assoc: assoc, WriteAllocate: true}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Name: "x", Size: 0, LineSize: 32, Assoc: 1},
		{Name: "x", Size: 3000, LineSize: 32, Assoc: 1},
		{Name: "x", Size: 1024, LineSize: 33, Assoc: 1},
		{Name: "x", Size: 1024, LineSize: 32, Assoc: 0},
		{Name: "x", Size: 1024, LineSize: 512, Assoc: 4}, // not divisible
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: config %+v should be invalid", i, c)
		}
	}
	if err := cfg(64<<10, 32, 2).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := New(cfg(1024, 32, 1))
	if c.Access(0x1000, false) {
		t.Fatal("first access should miss")
	}
	if !c.Access(0x1000, false) {
		t.Fatal("second access should hit")
	}
	if !c.Access(0x101F, false) {
		t.Fatal("same line should hit")
	}
	if c.Access(0x1020, false) {
		t.Fatal("next line should miss")
	}
	if c.Stats.Compulsory != 2 {
		t.Fatalf("compulsory = %d, want 2", c.Stats.Compulsory)
	}
}

func TestConflictAndLRU(t *testing.T) {
	// 2-way, 2 sets: lines mapping to set 0 are multiples of 64.
	c := New(cfg(128, 32, 2))
	a0, a1, a2 := uint64(0), uint64(64), uint64(128)
	c.Access(a0, false)
	c.Access(a1, false)
	if !c.Access(a0, false) || !c.Access(a1, false) {
		t.Fatal("both ways should hit")
	}
	c.Access(a2, false) // evicts LRU = a0
	if c.Access(a0, false) {
		t.Fatal("a0 should have been evicted")
	}
	// Now a1 was LRU before a0's refill... verify a2 stays resident.
	if !c.Access(a2, false) {
		t.Fatal("a2 should still be resident")
	}
}

func TestWritebackCounting(t *testing.T) {
	c := New(cfg(64, 32, 1)) // 2 sets
	c.Access(0x0, true)      // dirty line in set 0
	c.Access(0x40, false)    // evicts dirty line -> writeback
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
}

func TestWriteNoAllocate(t *testing.T) {
	c := New(Config{Name: "x", Size: 64, LineSize: 32, Assoc: 1, WriteAllocate: false})
	c.Access(0x0, true)
	if c.Stats.WriteMisses != 1 {
		t.Fatal("write should miss")
	}
	if c.Access(0x0, false) {
		t.Fatal("no-allocate: line must not be resident after write miss")
	}
}

func TestInstallLine(t *testing.T) {
	c := New(cfg(64, 32, 1))
	c.InstallLine(0x100)
	if !c.Access(0x100, false) {
		t.Fatal("installed line should hit")
	}
	if c.Stats.Misses() != 0 {
		t.Fatal("install must not count misses")
	}
}

func TestFlush(t *testing.T) {
	c := New(cfg(1024, 32, 2))
	c.Access(0x40, false)
	c.Flush()
	if c.Access(0x40, false) {
		t.Fatal("flushed line should miss")
	}
	if c.Stats.Compulsory != 1 {
		t.Fatalf("re-reference after flush is not compulsory: %d", c.Stats.Compulsory)
	}
}

func TestPhaseAttribution(t *testing.T) {
	c := New(cfg(1024, 32, 1))
	c.SetPhase(int(trace.PhaseTranslate))
	c.Access(0x40, true)
	c.SetPhase(int(trace.PhaseExec))
	c.Access(0x80, false)
	if c.PhaseStats[trace.PhaseTranslate].WriteMisses != 1 {
		t.Error("translate write miss not attributed")
	}
	if c.PhaseStats[trace.PhaseExec].ReadMisses != 1 {
		t.Error("exec read miss not attributed")
	}
}

// Property: misses never exceed references; compulsory never exceeds
// misses; hit+miss bookkeeping stays consistent across random access
// streams and geometries.
func TestInvariantsProperty(t *testing.T) {
	f := func(addrs []uint16, writes []bool, geom uint8) bool {
		sizes := []int{512, 1024, 8192}
		lines := []int{16, 32, 64}
		assocs := []int{1, 2, 4}
		conf := cfg(
			sizes[int(geom)%len(sizes)],
			lines[int(geom/4)%len(lines)],
			assocs[int(geom/16)%len(assocs)],
		)
		if conf.Validate() != nil {
			return true // skip impossible geometry
		}
		c := New(conf)
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			c.Access(uint64(a), w)
		}
		s := c.Stats
		return s.Misses() <= s.Refs() &&
			s.Compulsory <= s.Misses() &&
			s.Refs() == uint64(len(addrs)) &&
			s.Writebacks <= s.Misses()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a larger cache of the same geometry never has more misses on
// the same (read-only) trace — inclusion property of LRU.
func TestLRUInclusionProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		small := New(cfg(256, 32, 8)) // fully assoc within few sets
		big := New(cfg(1024, 32, 32))
		for _, a := range addrs {
			aa := uint64(a)
			small.Access(aa, false)
			big.Access(aa, false)
		}
		return big.Stats.Misses() <= small.Stats.Misses()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{Reads: 80, Writes: 20, ReadMisses: 5, WriteMisses: 15}
	if s.Refs() != 100 || s.Misses() != 20 {
		t.Fatal("refs/misses")
	}
	if s.MissRate() != 0.2 {
		t.Fatalf("miss rate %v", s.MissRate())
	}
	if s.WriteMissFrac() != 0.75 {
		t.Fatalf("write-miss frac %v", s.WriteMissFrac())
	}
	var zero Stats
	if zero.MissRate() != 0 || zero.WriteMissFrac() != 0 {
		t.Fatal("zero stats should not divide by zero")
	}
	s2 := Stats{Reads: 1}
	s2.Add(s)
	if s2.Reads != 81 {
		t.Fatal("add")
	}
}

func TestHierarchy(t *testing.T) {
	h := PaperDefault()
	h.Emit(trace.Inst{PC: 0x1000, Class: trace.Load, Addr: 0x8000})
	h.Emit(trace.Inst{PC: 0x1004, Class: trace.Store, Addr: 0x8008})
	h.Emit(trace.Inst{PC: 0x1008, Class: trace.ALU})
	if h.I.Stats.Refs() != 3 {
		t.Fatalf("I refs = %d", h.I.Stats.Refs())
	}
	if h.D.Stats.Reads != 1 || h.D.Stats.Writes != 1 {
		t.Fatalf("D refs = %+v", h.D.Stats)
	}
}

func TestHierarchyDirectInstall(t *testing.T) {
	h := PaperDefault()
	h.DirectInstall = true
	h.CodeLow, h.CodeHigh = 0x100_0000, 0x200_0000
	h.Emit(trace.Inst{PC: 0x10, Class: trace.Store, Addr: 0x100_0040})
	if h.D.Stats.Writes != 0 {
		t.Fatal("install store should bypass D-cache")
	}
	// The installed line must hit on fetch.
	h.Emit(trace.Inst{PC: 0x100_0040, Class: trace.ALU})
	if h.I.Stats.Misses() != 1 { // only the first Emit's PC miss
		t.Fatalf("I misses = %d; installed line should hit", h.I.Stats.Misses())
	}
	// Non-code stores still go to D.
	h.Emit(trace.Inst{PC: 0x14, Class: trace.Store, Addr: 0x8000})
	if h.D.Stats.Writes != 1 {
		t.Fatal("regular store must reach D-cache")
	}
}

func TestSampler(t *testing.T) {
	s := NewSampler(PaperDefault(), 10)
	for i := 0; i < 25; i++ {
		s.Emit(trace.Inst{PC: uint64(i * 4096), Class: trace.ALU})
	}
	s.Finish()
	if len(s.Series) != 3 {
		t.Fatalf("windows = %d, want 3", len(s.Series))
	}
	var misses uint64
	for _, iv := range s.Series {
		misses += iv.IMisses
	}
	if misses != s.H.I.Stats.Misses() {
		t.Fatalf("window misses %d != total %d", misses, s.H.I.Stats.Misses())
	}
}

func TestNewSamplerRejectsZeroWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSampler with a zero window did not panic")
		}
	}()
	NewSampler(PaperDefault(), 0)
}

func TestPhaseStatsCoverEveryPhase(t *testing.T) {
	c := New(cfg(1024, 32, 1))
	if len(c.PhaseStats) != int(trace.NumPhases) {
		t.Fatalf("%d phase counters, %d phases", len(c.PhaseStats), trace.NumPhases)
	}
	last := trace.NumPhases - 1
	c.SetPhase(int(last))
	c.Access(0, false)
	if c.PhaseStats[last].Reads != 1 {
		t.Fatalf("read in phase %v not attributed to it: %+v", last, c.PhaseStats)
	}
}

// TestNewGroupBuckets checks the bucket key: hierarchies share a
// reduction exactly when their I line size, D line size and
// direct-install range agree.
func TestNewGroupBuckets(t *testing.T) {
	pair := func(iLine, dLine int) *Hierarchy {
		return NewHierarchy(cfg(8<<10, iLine, 1), cfg(8<<10, dLine, 2))
	}
	direct := func(low uint64) *Hierarchy {
		h := pair(32, 32)
		h.DirectInstall, h.CodeLow, h.CodeHigh = true, low, low+4096
		return h
	}
	for _, tc := range []struct {
		name string
		hs   []*Hierarchy
		want int
	}{
		{"one line size", []*Hierarchy{pair(32, 32), pair(32, 32), PaperDefault()}, 1},
		{"line sweep", []*Hierarchy{pair(16, 16), pair(32, 32), pair(64, 64), pair(128, 128)}, 4},
		{"I and D differ", []*Hierarchy{pair(32, 16), pair(16, 32), pair(32, 32)}, 3},
		{"install ranges", []*Hierarchy{pair(32, 32), direct(0), direct(0), direct(4096)}, 3},
	} {
		if got := len(NewGroup(tc.hs...).(*group).buckets); got != tc.want {
			t.Errorf("%s: %d buckets, want %d", tc.name, got, tc.want)
		}
	}
}

// refCache is the straightforward cache model the kernel must match
// exactly: one slice of ways per set, an explicit valid bit, an LRU
// stamp on every access and a map of every line ever touched.
type refCache struct {
	cfg        Config
	sets       [][]refLine
	lineShift  uint
	setShift   uint
	setMask    uint64
	tick       uint64
	seen       map[uint64]bool
	Stats      Stats
	PhaseStats [trace.NumPhases]Stats
	phase      int
}

type refLine struct {
	tag          uint64
	valid, dirty bool
	lru          uint64
}

func newRefCache(cfg Config) *refCache {
	numSets := cfg.Size / (cfg.LineSize * cfg.Assoc)
	sets := make([][]refLine, numSets)
	for i := range sets {
		sets[i] = make([]refLine, cfg.Assoc)
	}
	return &refCache{cfg: cfg, sets: sets, lineShift: uintLog2(cfg.LineSize),
		setShift: uintLog2(numSets), setMask: uint64(numSets - 1), seen: map[uint64]bool{}}
}

func (c *refCache) SetPhase(p int) {
	if p >= 0 && p < len(c.PhaseStats) {
		c.phase = p
	}
}

func (c *refCache) Access(addr uint64, write bool) bool {
	lineAddr := addr >> c.lineShift
	set := c.sets[lineAddr&c.setMask]
	tag := lineAddr >> c.setShift
	c.tick++
	ps := &c.PhaseStats[c.phase]
	if write {
		c.Stats.Writes++
		ps.Writes++
	} else {
		c.Stats.Reads++
		ps.Reads++
	}
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.tick
			set[i].dirty = set[i].dirty || write
			return true
		}
	}
	if write {
		c.Stats.WriteMisses++
		ps.WriteMisses++
	} else {
		c.Stats.ReadMisses++
		ps.ReadMisses++
	}
	if !c.seen[lineAddr] {
		c.seen[lineAddr] = true
		c.Stats.Compulsory++
		ps.Compulsory++
	}
	if write && !c.cfg.WriteAllocate {
		return false
	}
	victim := c.victim(set)
	if set[victim].valid && set[victim].dirty {
		c.Stats.Writebacks++
		ps.Writebacks++
	}
	set[victim] = refLine{tag: tag, valid: true, dirty: write, lru: c.tick}
	return false
}

// victim is the first invalid way, else the least recently used.
func (c *refCache) victim(set []refLine) int {
	v := 0
	for i := range set {
		if !set[i].valid {
			return i
		}
		if set[i].lru < set[v].lru {
			v = i
		}
	}
	return v
}

func (c *refCache) InstallLine(addr uint64) {
	lineAddr := addr >> c.lineShift
	set := c.sets[lineAddr&c.setMask]
	tag := lineAddr >> c.setShift
	c.tick++
	c.seen[lineAddr] = true
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru, set[i].dirty = c.tick, true
			return
		}
	}
	set[c.victim(set)] = refLine{tag: tag, valid: true, dirty: true, lru: c.tick}
}

func (c *refCache) Flush() {
	for _, set := range c.sets {
		clear(set)
	}
}

// refHierarchy steps a split reference pair one instruction at a time.
type refHierarchy struct {
	I, D              *refCache
	direct            bool
	codeLow, codeHigh uint64
}

func (h *refHierarchy) step(in trace.Inst) {
	h.I.SetPhase(int(in.Phase))
	h.D.SetPhase(int(in.Phase))
	h.I.Access(in.PC, false)
	switch in.Class {
	case trace.Load:
		h.D.Access(in.Addr, false)
	case trace.Store:
		if h.direct && in.Addr >= h.codeLow && in.Addr < h.codeHigh {
			h.I.InstallLine(in.Addr)
			return
		}
		h.D.Access(in.Addr, true)
	}
}

// fuzzBytes hands out the fuzz input a byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// fuzzConfig draws a valid cache: one of lines, 1 to 16 sets (one set
// is fully associative), 1 to 16 ways, either write policy.
func fuzzConfig(b *fuzzBytes, name string, lines ...int) Config {
	line := lines[int(b.next())%len(lines)]
	sets := 1 << (b.next() % 5)
	assoc := 1 << (b.next() % 5)
	return Config{Name: name, Size: line * sets * assoc, LineSize: line, Assoc: assoc,
		WriteAllocate: b.next()%4 != 0}
}

// fuzzAddr draws an address from a small pool, so lines collide, or
// from the top and bottom of the address space, where an empty-way
// sentinel would collide with a real tag.
func fuzzAddr(b *fuzzBytes) uint64 {
	switch v := b.next(); {
	case v >= 248:
		return ^uint64(0) - uint64(v-248)*9
	case v >= 240:
		return uint64(v-240) << 61
	default:
		return uint64(v) * 6
	}
}

// FuzzCacheDifferential checks the cache kernel against refCache: hit
// or miss on every access and every final counter, for random configs
// and random Access/InstallLine/Flush/SetPhase sequences. Its group leg
// feeds a random trace to random hierarchies, with mixed line sizes,
// write policies and direct-install ranges, through one NewGroup and
// through standalone hierarchies, each cut into random batches, and
// checks both against reference hierarchies stepped per instruction.
func FuzzCacheDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 255, 1, 255, 2, 0, 3, 254, 0, 255})
	f.Add([]byte{5, 1, 3, 0, 1, 10, 1, 20, 5, 30, 7, 0, 0, 10, 6, 1, 1, 10})
	f.Add([]byte{2, 4, 4, 1, 3, 200, 4, 100, 0, 6, 1, 7, 9, 11, 13, 17, 19, 23, 250, 251, 241})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox"))
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		cfg := fuzzConfig(&b, "T", 1, 2, 4, 8, 16, 32, 64)
		c, ref := New(cfg), newRefCache(cfg)
		for op := 0; op < 256 && len(b) > 0; op++ {
			switch k := b.next() % 16; {
			case k < 10:
				addr, write := fuzzAddr(&b), k%3 == 0
				if got, want := c.Access(addr, write), ref.Access(addr, write); got != want {
					t.Fatalf("%+v op %d: Access(%#x, %t) hit=%t, reference %t", cfg, op, addr, write, got, want)
				}
			case k < 13:
				addr := fuzzAddr(&b)
				c.InstallLine(addr)
				ref.InstallLine(addr)
			case k < 15:
				p := int(b.next()%5) - 1
				c.SetPhase(p)
				ref.SetPhase(p)
			default:
				c.Flush()
				ref.Flush()
			}
		}
		if c.Stats != ref.Stats || c.PhaseStats != ref.PhaseStats {
			t.Fatalf("%+v: stats %+v %+v, reference %+v %+v", cfg, c.Stats, c.PhaseStats, ref.Stats, ref.PhaseStats)
		}
		groupLeg(t, fuzzBytes(data))
	})
}

// chainConfig draws a cache of one bucket's chain: line bytes, 1 to 16
// sets, mostly direct-mapped and with the given write policy.
func chainConfig(b *fuzzBytes, name string, line int, allocate bool) Config {
	c := fuzzConfig(b, name, line)
	if b.next()%4 != 0 {
		c.Size, c.Assoc = c.Size/c.Assoc, 1
	}
	c.WriteAllocate = allocate
	return c
}

// groupLeg is FuzzCacheDifferential's group leg. Half of its inputs
// draw one bucket of up to five hierarchies, mostly direct-mapped with
// several set counts, sometimes a duplicate and sometimes one
// write-no-allocate D cache, which must turn off the D side's chain
// and merge.
func groupLeg(t *testing.T, b fuzzBytes) {
	n := 1 + int(b.next()%4)
	chain := b.next()%2 == 0
	dup, wna := b.next()%4 == 0, int(b.next()%8)
	chainDirect, chainLow := b.next()%4 == 0, uint64(b.next()%2)*600
	if chain {
		n++
	}
	var grouped, solo []*Hierarchy
	var refs []*refHierarchy
	for i := range n {
		// Two line sizes per side keep some buckets shared.
		ic, dc := fuzzConfig(&b, "I", 4, 32), fuzzConfig(&b, "D", 1, 8)
		direct, low := b.next()%3 == 0, uint64(b.next()%2)*600
		if chain {
			ic, dc = chainConfig(&b, "I", 32, true), chainConfig(&b, "D", 8, i != wna)
			direct, low = chainDirect, chainLow
			if dup && i == 1 {
				ic, dc = grouped[0].I.Config(), grouped[0].D.Config()
			}
		}
		for _, hs := range []*[]*Hierarchy{&grouped, &solo} {
			h := NewHierarchy(ic, dc)
			h.DirectInstall, h.CodeLow, h.CodeHigh = direct, low, low+600
			*hs = append(*hs, h)
		}
		refs = append(refs, &refHierarchy{I: newRefCache(ic), D: newRefCache(dc),
			direct: direct, codeLow: low, codeHigh: low + 600})
	}
	var insts []trace.Inst
	pc, phase := uint64(0x40), trace.PhaseExec
	classes := []trace.Class{trace.ALU, trace.Load, trace.Store, trace.Branch, trace.Store, trace.ALU}
	for len(b) > 0 {
		v := b.next()
		if v&0xC0 == 0xC0 {
			phase = trace.Phase(int(v) % int(trace.NumPhases))
		}
		if v&0x20 != 0 {
			pc = uint64(b.next()) * 12
		} else {
			pc += 4
		}
		in := trace.Inst{PC: pc, Class: classes[int(v)%len(classes)], Phase: phase}
		if in.Class.IsMem() {
			in.Addr = fuzzAddr(&b)
		}
		insts = append(insts, in)
	}
	rng := rand.New(rand.NewSource(int64(len(insts))*7919 + int64(n)))
	feed := func(s trace.Sink) {
		for rest := insts; len(rest) > 0; {
			k := min(len(rest), 1+rng.Intn(40))
			s.EmitBatch(rest[:k])
			rest = rest[k:]
		}
	}
	feed(NewGroup(grouped...))
	for _, h := range solo {
		feed(h)
	}
	for _, in := range insts {
		for _, r := range refs {
			r.step(in)
		}
	}
	for i, r := range refs {
		for _, h := range []*Hierarchy{grouped[i], solo[i]} {
			for _, side := range []struct {
				name string
				c    *Cache
				ref  *refCache
			}{{"I", h.I, r.I}, {"D", h.D, r.D}} {
				if side.c.Stats != side.ref.Stats || side.c.PhaseStats != side.ref.PhaseStats {
					t.Fatalf("hierarchy %d of %d, %d insts, direct=%t: %s %+v stats %+v %+v, reference %+v %+v",
						i, n, len(insts), h.DirectInstall, side.name, side.c.Config(),
						side.c.Stats, side.c.PhaseStats, side.ref.Stats, side.ref.PhaseStats)
				}
			}
		}
	}
}
