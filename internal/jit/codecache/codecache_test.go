package codecache

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"jrs/internal/atomicfile"
	"jrs/internal/isa"
)

// entry builds a small valid test entry.
func entry(method string, n int) *Entry {
	e := &Entry{Method: method, FrameBytes: 64, Tier: 1}
	for i := 0; i < n; i++ {
		e.Code = append(e.Code, isa.Inst{Op: isa.OpAdd})
	}
	e.Rel = []int32{0}
	e.Elided = []ElidedSite{{Index: n - 1, PC: 3, Kind: 1, Arr: 2, Idx: 3}}
	return e
}

func TestMemoryRoundTrip(t *testing.T) {
	c := NewMemory()
	if _, ok := c.Get("k1"); ok {
		t.Fatal("empty cache reported a hit")
	}
	want := entry("A.m", 4)
	c.Put("k1", want)
	got, ok := c.Get("k1")
	if !ok || got != want {
		t.Fatalf("Get after Put: got %v ok=%v", got, ok)
	}
}

func TestDiskRoundTripAcrossHandles(t *testing.T) {
	dir := t.TempDir()
	c1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := entry("A.m", 6)
	c1.Put("deadbeef00", want)

	// A fresh handle (a "new process") must serve the entry from disk,
	// bit-for-bit.
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get("deadbeef00")
	if !ok {
		t.Fatal("fresh handle missed a persisted entry")
	}
	if got.Method != want.Method || len(got.Code) != len(want.Code) ||
		got.FrameBytes != want.FrameBytes || got.Tier != want.Tier ||
		len(got.Rel) != len(want.Rel) || len(got.Elided) != len(want.Elided) ||
		got.Elided[0] != want.Elided[0] {
		t.Fatalf("disk round trip mangled the entry: got %+v want %+v", got, want)
	}
	if c2.Stats().DiskHits != 1 {
		t.Fatalf("DiskHits = %d, want 1", c2.Stats().DiskHits)
	}
	// Promoted to memory: the second Get must not touch disk again.
	if _, ok := c2.Get("deadbeef00"); !ok {
		t.Fatal("promoted entry missed")
	}
	if c2.Stats().DiskHits != 1 {
		t.Fatalf("promotion did not stick: DiskHits = %d", c2.Stats().DiskHits)
	}
}

func TestCorruptEntryDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	c1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1.Put("cafebabe11", entry("A.m", 6))
	if err := c1.Corrupt("cafebabe11"); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get("cafebabe11"); ok {
		t.Fatal("torn disk entry served as a hit")
	}
	// Do must recompute and overwrite the torn entry.
	computed := 0
	_, hit, err := c2.Do("cafebabe11", func() (*Entry, error) {
		computed++
		return entry("A.m", 6), nil
	})
	if err != nil || hit || computed != 1 {
		t.Fatalf("Do over torn entry: hit=%v computed=%d err=%v", hit, computed, err)
	}
	c3, _ := Open(dir)
	if _, ok := c3.Get("cafebabe11"); !ok {
		t.Fatal("recompute did not repair the disk entry")
	}
}

// diskEnvelope is the on-disk form of a stored entry, written by hand.
type diskEnvelope struct {
	Build   string `json:"build"`
	Key     string `json:"key"`
	Payload *Entry `json:"payload"`
}

// writeEnvelope hand-writes a disk envelope for key, bypassing the cache.
func writeEnvelope(t *testing.T, dir, key string, de diskEnvelope) {
	t.Helper()
	data, err := json.Marshal(de)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key[:2], key+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestImplausibleEntriesDegradeToMiss(t *testing.T) {
	dir := t.TempDir()
	good := entry("A.m", 4)
	badRel := entry("A.m", 4)
	badRel.Rel = []int32{99}
	badElided := entry("A.m", 4)
	badElided.Elided = []ElidedSite{{Index: 99}}
	build := atomicfile.Build()
	cases := []struct {
		name string
		key  string
		de   diskEnvelope
	}{
		{"wrong build", "aa11", diskEnvelope{Build: "another-build", Key: "aa11", Payload: good}},
		{"wrong key echo", "bb22", diskEnvelope{Build: build, Key: "zz99", Payload: good}},
		{"empty code", "cc33", diskEnvelope{Build: build, Key: "cc33", Payload: &Entry{Method: "A.m"}}},
		{"rel out of range", "dd44", diskEnvelope{Build: build, Key: "dd44", Payload: badRel}},
		{"elided out of range", "ee55", diskEnvelope{Build: build, Key: "ee55", Payload: badElided}},
	}
	for _, tc := range cases {
		writeEnvelope(t, dir, tc.key, tc.de)
	}
	// The control: the same hand-written envelope, stamped with this
	// build, is a hit — so each miss above is the named defect's.
	writeEnvelope(t, dir, "ff66", diskEnvelope{Build: build, Key: "ff66", Payload: good})
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		if _, ok := c.Get(tc.key); ok {
			t.Errorf("%s: served as a hit, want miss", tc.name)
		}
	}
	if _, ok := c.Get("ff66"); !ok {
		t.Error("a valid envelope of this build missed")
	}
}

func TestDoSingleflight(t *testing.T) {
	c := NewMemory()
	var computed int
	var wg sync.WaitGroup
	var mu sync.Mutex
	hits := 0
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, hit, err := c.Do("k", func() (*Entry, error) {
				mu.Lock()
				computed++
				mu.Unlock()
				return entry("A.m", 4), nil
			})
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			if hit {
				hits++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if computed != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", computed)
	}
	if hits != 15 {
		t.Fatalf("%d hits, want 15", hits)
	}
	s := c.Stats()
	if s.Hits != 15 || s.Misses != 1 || s.Stores != 1 {
		t.Fatalf("stats = %+v, want 15 hits / 1 miss / 1 store", s)
	}
}

func TestComputeErrorNotCached(t *testing.T) {
	c := NewMemory()
	boom := errors.New("boom")
	if _, _, err := c.Do("k", func() (*Entry, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failure is not cached: a later attempt computes again and can
	// succeed.
	e, hit, err := c.Do("k", func() (*Entry, error) { return entry("A.m", 4), nil })
	if err != nil || hit || e == nil {
		t.Fatalf("retry after error: e=%v hit=%v err=%v", e, hit, err)
	}
	s := c.Stats()
	if s.Misses != 2 || s.Stores != 1 {
		t.Fatalf("stats = %+v, want 2 misses / 1 store", s)
	}
}

func TestDropMemoryForcesDiskPath(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("ab12", entry("A.m", 4))
	c.DropMemory()
	if _, ok := c.Get("ab12"); !ok {
		t.Fatal("disk store missed after DropMemory")
	}
	if c.Stats().DiskHits != 1 {
		t.Fatalf("DiskHits = %d, want 1", c.Stats().DiskHits)
	}
}

func TestStoreErrorNonFatal(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the shard path with a file so MkdirAll fails; the store must
	// still succeed in memory.
	if err := os.WriteFile(filepath.Join(dir, "ff"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	c.Put("ff77", entry("A.m", 4))
	if _, ok := c.Get("ff77"); !ok {
		t.Fatal("memory level lost the entry after a disk store error")
	}
	s := c.Stats()
	if s.StoreErrors != 1 || s.Stores != 1 {
		t.Fatalf("stats = %+v, want 1 store / 1 storeError", s)
	}
}
