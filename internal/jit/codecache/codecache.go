// Package codecache implements the two-level shared translation cache:
// an in-process concurrent store of position-independent JIT translation
// entries keyed by a content address, optionally backed by a crash-safe
// on-disk store (ShareJIT-style sharing across engines and across runs).
//
// The package knows nothing about the compiler — internal/jit computes
// the content address (bytecode hash, options and Facts fingerprints,
// pool-resolution environment) and converts jit.Compiled to and from the
// relocatable Entry form. Entries are immutable once stored: installers
// copy the code before relocating it to a new base.
//
// Persistence is the ResultCache's: entries are atomicfile envelopes
// stamped with the build that wrote them, published temp+fsync+rename
// with a directory fsync, and any unreadable, torn, foreign-build or
// otherwise implausible entry degrades to a miss — a damaged or stale
// cache costs a re-translation, never a wrong translation or a failed
// run.
package codecache

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"jrs/internal/atomicfile"
	"jrs/internal/isa"
)

// ElidedSite is the serializable form of one jit.ElidedCheck: the native
// code index of the anchor instruction plus the bytecode pc, check kind
// and the registers holding the array/index there.
type ElidedSite struct {
	Index int   `json:"index"`
	PC    int   `json:"pc"`
	Kind  uint8 `json:"kind"`
	Arr   uint8 `json:"arr"`
	Idx   uint8 `json:"idx"`
}

// Entry is one position-independent translation. Code is stored with
// intra-method branch targets rewritten base-relative; Rel lists the
// indices of those instructions so an installer can rebase them. All
// other embedded addresses (runtime stubs, trap vector, pool constants,
// vtable slots, statics) are absolute and covered by the content address
// that keyed the entry, so they need no relocation.
type Entry struct {
	// Method is the full name of the translated method (debugging and
	// plausibility checking only — identity lives in the key).
	Method string     `json:"method"`
	Code   []isa.Inst `json:"code"`
	// Rel indexes instructions whose Target is stored relative to the
	// (future) installation base.
	Rel        []int32      `json:"rel,omitempty"`
	FrameBytes uint64       `json:"frameBytes"`
	Tier       int          `json:"tier"`
	Elided     []ElidedSite `json:"elided,omitempty"`
}

// CodeBytes returns the entry's native code size.
func (e *Entry) CodeBytes() uint64 { return uint64(len(e.Code)) * isa.WordSize }

// valid performs the plausibility checks that let a parseable-but-bogus
// disk entry degrade to a miss: non-empty code, in-range relocation and
// elision indices.
func (e *Entry) valid() bool {
	if e == nil || len(e.Code) == 0 {
		return false
	}
	for _, idx := range e.Rel {
		if idx < 0 || int(idx) >= len(e.Code) {
			return false
		}
	}
	for _, s := range e.Elided {
		if s.Index < 0 || s.Index >= len(e.Code) {
			return false
		}
	}
	return true
}

// Stats is a consistent snapshot of cache activity.
type Stats struct {
	// Hits counts Do resolutions served without translating (memory or
	// disk); Misses counts resolutions that ran the compute function
	// (including computes that failed).
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// DiskHits is the subset of Hits served by the on-disk store.
	DiskHits int64 `json:"diskHits,omitempty"`
	// Stores counts entries persisted (memory stores; disk stores track
	// them 1:1 minus StoreErrors when a directory is configured).
	Stores int64 `json:"stores"`
	// StoreErrors counts failed disk writes (the entry stays usable in
	// memory; the run continues).
	StoreErrors int64 `json:"storeErrors,omitempty"`
	// CodeBytes is the total native code size served from the cache on
	// hits — the translation work the sharing avoided re-doing.
	CodeBytes int64 `json:"codeBytes"`
}

// Cache is the two-level store. All methods are safe for concurrent use
// by many engines; Do serializes computes per key (singleflight), so a
// parallel grid translates each distinct method exactly once. The disk
// level is the embedded store (no Dir = memory-only), whose entries are
// named by their key; Corrupt tears one.
type Cache struct {
	atomicfile.Store[string, *Entry]

	mu    sync.Mutex
	mem   map[string]*Entry
	locks map[string]*sync.Mutex

	hits, misses, diskHits, stores, storeErrors, codeBytes atomic.Int64
}

// NewMemory returns an in-process cache with no disk backing.
func NewMemory() *Cache {
	return &Cache{mem: make(map[string]*Entry), locks: make(map[string]*sync.Mutex)}
}

// Open returns a cache backed by dir (created if needed).
func Open(dir string) (*Cache, error) {
	s, err := atomicfile.OpenStore[string, *Entry](dir)
	if err != nil {
		return nil, fmt.Errorf("codecache: %w", err)
	}
	c := NewMemory()
	c.Store = s
	return c, nil
}

// keyLock returns the per-key mutex, creating it on first use. Locks are
// never reclaimed; the population is bounded by distinct translation
// keys (hundreds per program), not by calls.
func (c *Cache) keyLock(key string) *sync.Mutex {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.locks[key]
	if l == nil {
		l = &sync.Mutex{}
		c.locks[key] = l
	}
	return l
}

// Do resolves key under its singleflight lock: a cached entry (memory,
// then disk) returns with hit=true and compute never runs; otherwise
// compute translates, the result is stored (memory, and disk when
// configured), and hit=false. A compute error is returned uncached so a
// later attempt — or another engine — can still try. Concurrent callers
// of the same key serialize: exactly one computes, the rest hit.
func (c *Cache) Do(key string, compute func() (*Entry, error)) (e *Entry, hit bool, err error) {
	l := c.keyLock(key)
	l.Lock()
	defer l.Unlock()
	if e, ok := c.get(key); ok {
		c.hits.Add(1)
		c.codeBytes.Add(int64(e.CodeBytes()))
		return e, true, nil
	}
	c.misses.Add(1)
	e, err = compute()
	if err != nil {
		return nil, false, err
	}
	c.put(key, e)
	return e, false, nil
}

// Get returns the cached entry for key without counting a hit or
// running any compute (tests and tools; engines go through Do).
func (c *Cache) Get(key string) (*Entry, bool) {
	l := c.keyLock(key)
	l.Lock()
	defer l.Unlock()
	return c.get(key)
}

// Put stores an entry for key (tests and tools; engines go through Do).
func (c *Cache) Put(key string, e *Entry) {
	l := c.keyLock(key)
	l.Lock()
	defer l.Unlock()
	c.put(key, e)
}

// get checks memory, then disk. Disk hits are promoted to memory. The
// caller must hold the key lock.
func (c *Cache) get(key string) (*Entry, bool) {
	c.mu.Lock()
	e := c.mem[key]
	c.mu.Unlock()
	if e != nil {
		return e, true
	}
	e, ok := c.Read(key, key)
	if !ok || !e.valid() {
		return nil, false
	}
	c.diskHits.Add(1)
	c.mu.Lock()
	c.mem[key] = e
	c.mu.Unlock()
	return e, true
}

// put stores to memory and (best-effort) to disk. A failed disk write is
// counted but not fatal: the translation is still good, this run still
// shares it in-process, and the next run re-translates. The caller must
// hold the key lock.
func (c *Cache) put(key string, e *Entry) {
	c.mu.Lock()
	c.mem[key] = e
	c.mu.Unlock()
	c.stores.Add(1)
	if c.Dir == "" {
		return
	}
	if err := c.Write(key, key, e); err != nil {
		c.storeErrors.Add(1)
	}
}

// Keys returns the sorted keys currently held in memory.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	keys := make([]string, 0, len(c.mem))
	for k := range c.mem {
		keys = append(keys, k)
	}
	c.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// DropMemory empties the in-process level, forcing subsequent gets to
// the disk store — the "fresh process, warm disk" shape without
// restarting (tests; a real restart is equivalent).
func (c *Cache) DropMemory() {
	c.mu.Lock()
	c.mem = make(map[string]*Entry)
	c.mu.Unlock()
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		DiskHits:    c.diskHits.Load(),
		Stores:      c.stores.Load(),
		StoreErrors: c.storeErrors.Load(),
		CodeBytes:   c.codeBytes.Load(),
	}
}

// String renders the snapshot for progress lines.
func (s Stats) String() string {
	return fmt.Sprintf("%d hits (%d disk), %d misses, %d stored, %dKB code shared",
		s.Hits, s.DiskHits, s.Misses, s.Stores, s.CodeBytes>>10)
}
