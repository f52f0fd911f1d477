// Package atomicfile is the one on-disk path of the result cache and the
// shared code cache: it publishes files crash-safely, and it wraps every
// stored entry in one envelope stamped with the build that wrote it.
package atomicfile

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

var seq atomic.Int64 // temp-file uniquifier within the process

// Publish stores data under path crash-safely: write a temp file next
// to it, fsync the data, rename over path, fsync the directory. A
// concurrent reader never observes a torn file (rename is atomic), and
// a crash at any point leaves either the old state or the complete new
// file — never a short file under the final name. The temp name carries
// the pid and a per-process sequence number, so concurrent writers never
// share one. A failed write removes its temp file so an interrupted run
// doesn't litter the directory. Missing parent directories are created.
func Publish(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.tmp.%d.%d", path, os.Getpid(), seq.Add(1))
	if err := writeSync(tmp, data); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// Durability of the rename itself: fsync the containing directory
	// so the file survives the machine dying right after Publish
	// returns. Best effort — some filesystems refuse directory fsync.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// writeSync writes data to path and fsyncs it before close, so the
// subsequent rename never publishes a name whose bytes are still only
// in the page cache.
func writeSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Build identifies the code of the running process: the hex SHA-256 of
// its executable, streamed from disk on first use and kept for the life
// of the process, so a process that never reads or writes a stamped
// entry never pays for it. Two binaries with the same code but other
// bytes (say, one built with -ldflags=-s) are different builds: a
// stamp that misses only costs a recomputation. When the executable
// cannot be read, Build is a random value drawn once per process, so
// entries written by any other process miss instead of matching.
var Build = sync.OnceValue(func() string {
	if sum, err := digestExecutable(); err == nil {
		return sum
	}
	var b [16]byte
	rand.Read(b[:])
	return "random-" + hex.EncodeToString(b[:])
})

func digestExecutable() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// envelope is the on-disk form of one stored entry: the build that
// wrote it and the full key, stored alongside the payload, so an entry
// from other code, a hash collision or a hand-edited file is detected
// instead of silently decoded.
type envelope[K comparable, P any] struct {
	Build   string `json:"build"`
	Key     K      `json:"key"`
	Payload P      `json:"payload"`
}

// Store is a directory of enveloped entries with payloads of type P,
// each named by a hex content hash of its key K. The zero Store has no
// directory: Read misses, Write and Corrupt fail.
type Store[K comparable, P any] struct {
	Dir string
}

// OpenStore opens (creating if needed) a store rooted at dir.
func OpenStore[K comparable, P any](dir string) (Store[K, P], error) {
	if dir == "" {
		return Store[K, P]{}, errors.New("empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Store[K, P]{}, err
	}
	return Store[K, P]{Dir: dir}, nil
}

func (s Store[K, P]) path(hash string) string {
	return filepath.Join(s.Dir, hash[:2], hash+".json")
}

// Read returns the payload stored under hash, decoded in one pass,
// when the entry was written by this build and echoes key. An absent,
// unreadable, torn, foreign-build or mismatching entry is a miss, so a
// damaged store degrades to recomputation rather than failure.
func (s Store[K, P]) Read(hash string, key K) (payload P, ok bool) {
	if s.Dir == "" {
		return payload, false
	}
	data, err := os.ReadFile(s.path(hash))
	if err != nil {
		return payload, false
	}
	var e envelope[K, P]
	if json.Unmarshal(data, &e) != nil || e.Build != Build() || e.Key != key {
		return payload, false
	}
	return e.Payload, true
}

// Write stores payload under hash, stamped with this build and key,
// through Publish: a concurrent reader never observes a torn entry, and
// a crash leaves either the old state or the complete new entry.
func (s Store[K, P]) Write(hash string, key K, payload P) error {
	if s.Dir == "" {
		return errors.New("atomicfile: write to a store with no directory")
	}
	data, err := json.Marshal(envelope[K, P]{Build: Build(), Key: key, Payload: payload})
	if err != nil {
		return err
	}
	return Publish(s.path(hash), data)
}

// Corrupt truncates the entry stored under hash to half its length —
// the torn write of a crashed or buggy peer, which Read must treat as
// a miss. Chaos injection and recovery tests use it; a real run never
// calls it.
func (s Store[K, P]) Corrupt(hash string) error {
	if s.Dir == "" {
		return errors.New("atomicfile: corrupt on a store with no directory")
	}
	path := s.path(hash)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data[:len(data)/2], 0o644)
}
