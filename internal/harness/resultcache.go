package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"jrs/internal/atomicfile"
)

// ResultCache is a content-addressed store of cell payloads under a
// user-supplied directory. The address is CellKey.Hash(), which covers
// the cache schema version, the experiment name, workload, scale, mode
// and experiment config — so touching one experiment's configuration
// invalidates exactly that experiment's cells and re-running `jrs all`
// re-simulates only those. The cache does NOT observe simulator code:
// after changing engine or simulator behavior, bump CacheSchema or clear
// the directory (see README).
type ResultCache struct {
	dir string
}

// cacheEntry is the on-disk envelope: the full key is stored alongside
// the payload so entries are self-describing and hash collisions (or
// hand-edited files) are detected instead of silently decoded.
type cacheEntry struct {
	Schema  int             `json:"schema"`
	Key     CellKey         `json:"key"`
	Payload json.RawMessage `json:"payload"`
}

// OpenResultCache opens (creating if needed) a result cache rooted at
// dir.
func OpenResultCache(dir string) (*ResultCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultcache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	return &ResultCache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *ResultCache) Dir() string { return c.dir }

func (c *ResultCache) path(hash string) string {
	return filepath.Join(c.dir, hash[:2], hash+".json")
}

// Get returns the stored payload for k, if present and intact. Any
// unreadable, corrupt or mismatching entry is treated as a miss, so a
// damaged cache degrades to re-simulation rather than failure.
func (c *ResultCache) Get(k CellKey) (json.RawMessage, bool) {
	data, err := os.ReadFile(c.path(k.Hash()))
	if err != nil {
		return nil, false
	}
	var e cacheEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, false
	}
	if e.Schema != CacheSchema || e.Key != k || len(e.Payload) == 0 {
		return nil, false
	}
	return e.Payload, true
}

// Put stores the payload for k crash-safely (atomicfile.Publish): a
// concurrent reader never observes a torn entry, and a crash leaves
// either the old state or the complete new entry.
func (c *ResultCache) Put(k CellKey, payload json.RawMessage) error {
	data, err := json.Marshal(cacheEntry{Schema: CacheSchema, Key: k, Payload: payload})
	if err != nil {
		return err
	}
	return atomicfile.Publish(c.path(k.Hash()), data)
}

// Corrupt truncates the stored entry for k to half its length —
// simulating the torn write of a crashed or buggy peer. Get must treat
// the damaged entry as a miss. Chaos injection and recovery tests use
// this; production code never calls it.
func (c *ResultCache) Corrupt(k CellKey) error {
	path := c.path(k.Hash())
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data[:len(data)/2], 0o644)
}
