package harness

import (
	"encoding/json"
	"fmt"

	"jrs/internal/atomicfile"
)

// ResultCache is a content-addressed store of cell payloads under a
// user-supplied directory. The address is CellKey.Hash(), which covers
// the experiment name, workload, scale, mode and experiment config — so
// touching one experiment's configuration invalidates exactly that
// experiment's cells and re-running `jrs all` re-simulates only those.
// Every entry is stamped with the build that wrote it
// (atomicfile.Build), and an entry from any other build is a miss: a
// rebuilt simulator re-simulates every cell instead of serving results
// of other code. The entries are atomicfile envelopes; Corrupt tears
// one by hash.
type ResultCache struct {
	atomicfile.Store[CellKey, json.RawMessage]
}

// OpenResultCache opens (creating if needed) a result cache rooted at
// dir.
func OpenResultCache(dir string) (*ResultCache, error) {
	s, err := atomicfile.OpenStore[CellKey, json.RawMessage](dir)
	if err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	return &ResultCache{s}, nil
}

// Get returns the stored payload for k, if present, intact, written by
// this build and non-empty. Anything else is a miss, so a damaged cache
// degrades to re-simulation rather than failure.
func (c *ResultCache) Get(k CellKey) (json.RawMessage, bool) {
	p, ok := c.Read(k.Hash(), k)
	return p, ok && len(p) > 0
}

// Put stores the payload for k crash-safely (atomicfile.Publish): a
// concurrent reader never observes a torn entry, and a crash leaves
// either the old state or the complete new entry.
func (c *ResultCache) Put(k CellKey, payload json.RawMessage) error {
	return c.Write(k.Hash(), k, payload)
}
